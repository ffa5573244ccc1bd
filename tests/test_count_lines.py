import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        'x = """a string\n'
        'that is code"""\n'
        "\n"
        "def f():\n"
        '    """Docstring."""\n'
        "    return x  # trailing comment\n"
    )
    # code: the assignment's two lines, the def, and the return line
    assert count_lines.count(source) == (10, 4)
