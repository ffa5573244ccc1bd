"""Reference canonical text: the oracle for the shared polynomial renderer.

These are the two per-class formatting loops and the sign-joining helper that
BiPoly and UniPoly printed through before one renderer served both; they share
no code with it.
"""

from __future__ import annotations


def _render_terms(parts: list[tuple[int, str]]) -> str:
    # parts: (coefficient sign carried separately, term text without sign)
    out: list[str] = []
    for idx, (coeff, body) in enumerate(parts):
        if idx == 0:
            out.append(("-" if coeff < 0 else "") + body)
        else:
            out.append((" - " if coeff < 0 else " + ") + body)
    return "".join(out)


def bipoly_text(poly) -> str:
    if poly.is_zero():
        return "0"
    parts: list[tuple[int, str]] = []
    for i, j, c in poly.terms():
        mono: list[str] = []
        if i:
            mono.append("s" if i == 1 else f"s^{i}")
        if j:
            mono.append("t" if j == 1 else f"t^{j}")
        if not mono:
            body = str(abs(c))
        else:
            pieces = ([] if abs(c) == 1 else [str(abs(c))]) + mono
            body = "*".join(pieces)
        parts.append((c, body))
    return _render_terms(parts)


def unipoly_text(poly) -> str:
    if not poly.coeffs:
        return "0"
    parts: list[tuple[int, str]] = []
    for e in range(poly.degree, -1, -1):
        c = poly.coeffs[e]
        if not c:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        parts.append((c, body))
    return _render_terms(parts)
