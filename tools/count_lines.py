"""Count the lines of the package source: the total, and the code lines,
which leave out blank lines, comments and docstrings.

A docstring here is any string literal that makes up a whole statement, as a
module, class or function docstring does. A code line is a line that holds
part of any other token. Run from anywhere:

    python3 tools/count_lines.py

It counts the src/ next to this script, prints both counts for each file and
for all of them, and exits 0 whatever they are.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.COMMENT,
    tokenize.ENDMARKER,
}
_STATEMENT_END = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one Python source file."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    code: set[int] = set()
    at_statement_start = False
    for tok, following in zip(tokens, tokens[1:]):
        if tok.type in _STATEMENT_END or tok.string == ";":
            at_statement_start = True
            continue
        if tok.type in _LAYOUT:
            continue
        docstring = (
            at_statement_start
            and tok.type == tokenize.STRING
            and following.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        at_statement_start = False
        if not docstring:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(path.read_bytes().splitlines()), len(code)


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src"
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code_lines = count(path)
        print(f"{path.relative_to(root)}: {lines} lines, {code_lines} code lines")
        total += lines
        code += code_lines
    print(f"all: {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
