"""Hypothesis text for the differential tests of the polynomial readers.

``texts`` mixes a strategy for text in the form ``render`` writes with
token soup that is mostly in that form but may carry other spacing, signs,
unknown or out-of-range names, non-ASCII digits and spaces, empty factors,
leading zeros, over-long digit runs and exponents at and past the parser's
bound, alone and accumulated.  Each odd choice is rare, so that much of
the soup is still valid text.
"""

from unittest import mock

from hypothesis import strategies as st

from flagrep import charpoly

LONG_DIGITS = "9" * 5000


def _exponents():
    odd = ["1000000", "1000001", "600000", "0000002", "00000002", LONG_DIGITS, "²", "٣", ""]
    return st.sampled_from([str(e) for e in range(13)] * 8 + odd)


def _factors(prefix, nvars, rho):
    names = [f"{prefix}{i + 1}" for i in range(nvars)] + ([rho] if rho else [])
    odd = [f"{prefix}0", f"{prefix}{nvars + 1}", f"{prefix}01", f"{prefix}٣", "x", "W1", "rho", ""]
    name = st.sampled_from(names * (40 // len(names) + 1) + odd)
    caret = st.sampled_from(["^"] * 30 + [" ^", "^ ", "^^"])
    return st.tuples(name, st.one_of(st.none(), st.tuples(caret, _exponents()))).map(
        lambda t: t[0] if t[1] is None else t[0] + t[1][0] + t[1][1]
    )


def _join_term(t):
    coeff, factors = t
    text = coeff or ""
    for star, factor in factors:
        text += (star if text else "") + factor
    return text


def _terms(prefix, nvars, rho):
    coeff = st.sampled_from([str(c) for c in range(41)] + ["007", "1" * 5000, "٣", "²", "-2"])
    star = st.sampled_from(["*"] * 40 + [" * ", "**", "*\t", "^"])
    factors = st.lists(st.tuples(star, _factors(prefix, nvars, rho)), max_size=4)
    return st.tuples(st.one_of(st.none(), coeff), factors).map(_join_term)


def _soup(prefix, nvars, rho):
    sep = st.sampled_from([" + ", " - "] * 20 + ["+", "-", "  + ", " +  ", "\t+ ", " + + ", " - - "])
    terms = st.lists(st.tuples(sep, _terms(prefix, nvars, rho)), min_size=1, max_size=5)
    lead = st.sampled_from(["", "-"] * 10 + ["- ", " ", "+", "--"])
    trail = st.sampled_from([""] * 20 + [" ", "\n", " "])
    return st.tuples(lead, terms, trail).map(
        lambda t: t[0] + t[1][0][1] + "".join(s + body for s, body in t[1][1:]) + t[2]
    )


def texts(prefix, nvars, rho, rendered):
    """Text over ``prefix``1..``prefix``<nvars> (and ``rho``, if given):
    ``rendered`` (a strategy for render output) or token soup."""
    return st.one_of(rendered, _soup(prefix, nvars, rho))


def one_pass_only():
    """A patch under which reading fails the test if the text needs
    re-spacing or a term needs reading token by token."""
    refuse = mock.Mock(side_effect=AssertionError("not read in one pass"))
    return mock.patch.multiple(charpoly, _STRAY_SPACE=mock.Mock(sub=refuse), _TERM_TOKEN=mock.Mock(findall=refuse))


#: Block lengths for the writer: a block boundary after every term, every
#: second and every third.
SMALL_BLOCKS = (1, 2, 3)

#: Coefficients whose text the unit rule must leave alone, with +-1 itself:
#: each begins with "1" or ends in it.
UNIT_EDGES = [s * c for c in (1, *range(10, 20), 21, 100, 101) for s in (1, -1)]


def coefficients():
    """Nonzero coefficients for the writer tests, most from ``UNIT_EDGES``."""
    return st.one_of(st.sampled_from(UNIT_EDGES), st.integers(-10**3, 10**3).filter(bool))
