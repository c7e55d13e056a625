"""Correctness checks on the answers of a benchmark run.

They run after the timed section.  Each check returns ``None`` when the
answer is right and a one-line reason when it is not.  Where a check can be
made without flagrep it is (the coefficient sum is read off the rendered
text, and Weyl invariance is tested directly); otherwise it compares against
a closed form that the answer's own code path does not use: the Weyl
product for characters, the hook-content value for Schur polynomials.
"""

from __future__ import annotations

import json
import re
from collections import Counter

import flagrep as fr

_COEFF = re.compile(r"(\d+)(?:\*|$)")


def coefficient_sum(text: str) -> int:
    """Value at one of a polynomial in flagrep's text grammar.

    Terms are joined by `` + `` or `` - ``; a term may open with an integer
    coefficient, alone or followed by ``*``, and is 1 otherwise.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = re.split(r" ([+-]) ", text)
    total = 0
    for i in range(0, len(parts), 2):
        if i:
            sign = 1 if parts[i - 1] == "+" else -1
        m = _COEFF.match(parts[i])
        total += sign * (int(m.group(1)) if m else 1)
    return total


def s_invariant_terms(rows) -> Counter:
    """Monomial multiset of a matrix: its rows plus the derived row."""
    derived = tuple(-sum(col) for col in zip(*rows))
    terms = Counter(tuple(r) for r in rows)
    terms[derived] += 1
    return terms


def is_weyl_invariant(terms, cartan) -> bool:
    """Invariance under every simple reflection s_i(w) = w - w[i] * root_i."""
    for w, c in terms.items():
        for i, root in enumerate(cartan):
            if w[i]:
                image = tuple(x - w[i] * r for x, r in zip(w, root))
                if terms.get(image, 0) != c:
                    return False
    return True


def check_char(query: dict, rc, out: str) -> str | None:
    _, tag, text = query["argv"]
    lam = tuple(int(x) for x in text.split(","))
    if rc != 0:
        return f"exit {rc}"
    expected = fr.dimension(fr.cartan_from_tag(tag), lam)
    got = coefficient_sum(out)
    if got != expected:
        return f"coefficient sum {got}, Weyl dimension {expected}"
    return None


def check_schur(query: dict, rc, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    expected = fr.schur_dim(query["mu"], query["m"])
    got = coefficient_sum(out)
    if got != expected:
        return f"value at one {got}, hook-content {expected}"
    return None


check_alpha = check_schur  # alpha of a type-A character is its Schur polynomial


def check_cor3(query: dict, rc, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    if lines.get("check") != "ok":
        return f"check line {lines.get('check')!r}"
    n = fr.schur_dim(query["mu"], query["m"])
    if lines.get("n") != str(n):
        return f"n {lines.get('n')!r}, hook-content {n}"
    if len(json.loads(lines["rows"])) != n - 1:
        return "row count is not n - 1"
    if coefficient_sum(lines["alpha-s"]) != n:
        return "alpha-s does not have value n at one"
    return None


def check_realize(query: dict, result) -> str | None:
    cd = fr.cartan_from_tag(query["group"])
    rows = query["rows"]
    certified = isinstance(result, fr.Certificate)
    if not query["certified"]:
        if certified:
            return "certified a polynomial that is not Weyl-invariant"
        return None
    if not certified:
        return f"tensor product not certified: {result}"
    if result.total_dim != len(rows) + 1:
        return f"certificate dimension {result.total_dim}, rows {len(rows) + 1}"
    if (tuple(query["top"]), 1) not in result.summands:
        return "Cartan component V(a+b) missing or repeated"
    h = fr.cohom_from_rows(rows)
    if fr.certificate_character(cd, result) != fr.s_map(h):
        return "certificate character differs from the s-invariant"
    return None


def irreducibles_up_to(cd, n: int) -> dict:
    """Dominant weights of dimension <= n with their dimensions, found by
    raising one coordinate at a time (the dimension grows in each)."""
    found = {(0,) * cd.rank: 1}
    frontier = list(found)
    while frontier:
        lam = frontier.pop()
        for i in range(cd.rank):
            up = lam[:i] + (lam[i] + 1,) + lam[i + 1:]
            if up not in found:
                d = fr.dimension(cd, up)
                if d <= n:
                    found[up] = d
                    frontier.append(up)
    return found


def check_omega(query: dict, certs) -> str | None:
    """Every certificate has dimension n, none repeats, and their number is
    the count of multisets of irreducibles whose dimensions sum to n."""
    n = query["n"]
    if len(set(certs)) != len(certs):
        return "repeated certificate"
    dims = irreducibles_up_to(fr.cartan_from_tag(query["group"]), n)
    for c in certs:
        if any(lam not in dims for lam, _ in c.summands):
            return f"summand of dimension above n in {c.render()}"
        if sum(dims[lam] * k for lam, k in c.summands) != n:
            return f"certificate {c.render()} does not have dimension n"
    ways = [1] + [0] * n
    for d in dims.values():
        for total in range(d, n + 1):
            ways[total] += ways[total - d]
    if ways[n] != len(certs):
        return f"{len(certs)} certificates, {ways[n]} multisets"
    return None


CLI_CHECKS = {
    "char": check_char,
    "schur": check_schur,
    "cor3": check_cor3,
    "alpha": check_alpha,
}
