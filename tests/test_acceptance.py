"""Acceptance suite: every gate below is exact, with zero tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see the
lines for passing gates too).
"""

import itertools
import random

from flagrep import (
    Certificate,
    NotInOmega,
    alpha,
    cartan_from_tag,
    certificate_character,
    check_realizable,
    cohom_from_rows,
    decompose,
    dimension,
    dominant_weights_up_to_dim,
    induced_hom,
    is_in_omega_n,
    realize_schur,
    s_map,
    schur,
    schur_dim,
    torus_restriction_from_certificate,
    verify_factorization,
    weight_multiplicities,
    weight_of_partition,
)
from flagrep.charpoly import CharPoly, denormalize, normalize, parse, render
from flagrep.cli import main as cli_main

import oracles

A1 = cartan_from_tag("A1")
A2 = cartan_from_tag("A2")


def _report(name, ok):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}")


def _partitions(total, max_parts):
    out = []
    def rec(prefix, remaining, cap):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_parts:
            return
        for part in range(min(remaining, cap), 0, -1):
            rec(prefix + [part], remaining - part, part)
    rec([], total, total)
    return out


def _random_certificate(rng, cd, pool, budget, max_summands=3):
    while True:
        summands = {}
        total = 0
        for _ in range(rng.randint(1, max_summands)):
            lam, d = pool[rng.randrange(len(pool))]
            if total + d <= budget:
                summands[lam] = summands.get(lam, 0) + 1
                total += d
        if total >= 2:  # a single trivial summand gives a one-point target
            return Certificate(tuple(summands.items()), total)


def test_rank1_ladder_characters(capsys):
    ok = False
    try:
        for k in range(21):
            char = weight_multiplicities(A1, (k,))
            expected = oracles.sl2_char_terms(k)
            assert len(char.terms) == k + 1
            assert all(c == 1 for c in char.terms.values())
            assert char.evaluate_at_one() == k + 1
            assert char.terms == expected
            assert cli_main(["char", "A1", str(k)]) == 0
            out = capsys.readouterr().out
            assert out == render(CharPoly(1, expected)) + "\n"
        ok = True
    finally:
        _report("rank-1 characters match the ladder oracle for k = 0..20", ok)


def test_dimension_consistency(capsys):
    ok = False
    try:
        assert dimension(A2, (1, 1)) == 8
        assert dimension(A2, (1, 0)) == 3
        for tag in ("A1", "A2", "A3", "B2"):
            cd = cartan_from_tag(tag)
            for lam in itertools.product(range(6), repeat=cd.rank):
                assert weight_multiplicities(cd, lam).evaluate_at_one() == dimension(cd, lam)
        ok = True
    finally:
        _report("character evaluation equals the dimension product formula (coords <= 5)", ok)


def test_characters_map_onto_schur_polynomials(capsys):
    ok = False
    try:
        for m in (2, 3, 4):
            cd = cartan_from_tag(f"A{m - 1}")
            for mu in _partitions(8, m - 1):
                image = alpha(weight_multiplicities(cd, weight_of_partition(mu, m)))
                direct = schur(mu, m)
                assert image == direct
                # schur is alpha of the character itself: the oracles keep it honest
                assert direct.terms == oracles.jacobi_trudi_terms(mu, m)
                assert direct == oracles.tableau_schur(mu, m)
        ok = True
    finally:
        _report("type-A characters map onto Schur polynomials (|mu| <= 8, m in 2..4)", ok)


def test_character_equals_invariant_of_induced_map(capsys):
    ok = False
    try:
        rng = random.Random(20260810)
        groups = [cartan_from_tag(t) for t in ("A1", "A2", "A3", "B2", "B3", "C3", "D3", "G2")]
        pools = {cd.label: dominant_weights_up_to_dim(cd, 12) for cd in groups}
        checked = 0
        while checked < 1000:
            cd = rng.choice(groups)
            cert = _random_certificate(rng, cd, pools[cd.label], budget=12)
            tr = torus_restriction_from_certificate(cd, cert)
            check = verify_factorization(cd, tr)
            assert check.equal
            assert check.character.terms == check.via_cohomology.terms
            assert render(check.character) == render(check.via_cohomology)
            assert check.character == certificate_character(cd, cert)
            checked += 1
        ok = True
    finally:
        _report("direct character equals the invariant of its induced map (1000 random)", ok)


def test_realizability_decisions(capsys):
    ok = False
    try:
        cases = [
            ([[1]], "ok", (((1,), 1),), 2),
            ([[2]], "fail", (0,), -1),
            ([[1], [0]], "ok", (((1,), 1), ((0,), 1)), 3),
        ]
        for rows, verdict, *details in cases:
            hom = cohom_from_rows(rows)
            result = check_realizable(A1, hom)
            oracle = oracles.a1_greedy_decompose(s_map(hom).terms)
            if verdict == "ok":
                summands, total = details
                assert isinstance(result, Certificate)
                assert result.summands == summands
                assert result.total_dim == total
                assert oracle[0] == "ok"
                assert sorted(oracle[1]) == sorted(result.summands)
            else:
                witness, deficit = details
                assert isinstance(result, NotInOmega)
                assert result.witness == witness
                assert result.deficit == deficit
                assert oracle == ("fail", witness, deficit)
        ok = True
    finally:
        _report("realizability certificates and refusals match the greedy oracle", ok)


def test_decomposition_round_trip_and_positivity(capsys):
    ok = False
    try:
        rng = random.Random(1729)
        groups = [cartan_from_tag(t) for t in ("A1", "A2", "B2", "A3")]
        pools = {}
        for cd in groups:
            box = itertools.product(range(5), repeat=cd.rank)
            pools[cd.label] = [(lam, dimension(cd, lam)) for lam in box]
        for _ in range(1000):
            cd = rng.choice(groups)
            pool = pools[cd.label]
            pairs = {}
            for _ in range(rng.randint(1, 4)):
                lam, _d = pool[rng.randrange(len(pool))]
                pairs[lam] = pairs.get(lam, 0) + rng.randint(1, 3)
            poly = CharPoly.zero(cd.rank)
            for lam, mult in pairs.items():
                poly = poly + weight_multiplicities(cd, lam) * mult
            result = decompose(cd, poly)
            assert isinstance(result, Certificate)
            assert dict(result.summands) == pairs

        for _ in range(50):
            j, k = rng.randint(0, 10), rng.randint(0, 10)
            product = weight_multiplicities(A1, (j,)) * weight_multiplicities(A1, (k,))
            assert isinstance(decompose(A1, product), Certificate)
        for _ in range(50):
            lam = (rng.randint(0, 3), rng.randint(0, 3))
            mu = (rng.randint(0, 3), rng.randint(0, 3))
            product = weight_multiplicities(A2, lam) * weight_multiplicities(A2, mu)
            result = decompose(A2, product)
            assert isinstance(result, Certificate)
            assert result.total_dim == dimension(A2, lam) * dimension(A2, mu)

        explicit = weight_multiplicities(A2, (1, 0)) * weight_multiplicities(A2, (0, 1))
        assert is_in_omega_n(A2, explicit, 9) == Certificate((((1, 1), 1), ((0, 0), 1)), 9)
        ok = True
    finally:
        _report("decomposition round-trips 1000 certificates and 100 tensor products", ok)


def test_schur_realization_workflow(capsys):
    ok = False
    try:
        for m in (2, 3):
            for mu in _partitions(6, m - 1):
                n, hom, image = realize_schur(mu, m)
                assert n == schur_dim(mu, m)
                assert alpha(s_map(hom)) == schur(mu, m)
                assert image == schur(mu, m)
        n, hom, _ = realize_schur((1, 1), 3)
        assert n == 3
        assert hom.rows == ((0, 1), (1, -1))
        ok = True
    finally:
        _report("Schur realization workflow exact on |mu| <= 6, m in {2, 3}", ok)


def test_algebraic_substrate(capsys):
    ok = False
    try:
        rng = random.Random(99)

        def random_poly(rank, max_terms, coeff_bound, exp_bound):
            terms = {}
            for _ in range(rng.randint(0, max_terms)):
                w = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(rank))
                c = rng.randint(-coeff_bound, coeff_bound)
                if c:
                    terms[w] = c
            return CharPoly(rank, terms)

        for _ in range(10**5):
            rank = rng.randint(1, 3)
            p = random_poly(rank, 3, 100, 8)
            q = random_poly(rank, 3, 100, 8)
            r = random_poly(rank, 3, 100, 8)
            assert p + q == q + p
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p * CharPoly.one(rank) == p
            assert p + CharPoly.zero(rank) == p

        for _ in range(10**5):
            rank = rng.randint(1, 3)
            p = random_poly(rank, 6, 10**4, 20)
            assert parse(render(p), rank) == p

        for _ in range(10**5):
            rank = rng.randint(1, 4)
            w = tuple(rng.randint(-100, 100) for _ in range(rank))
            nm = normalize(w)
            assert min(min(nm.omega_exps), nm.rho_exp) == 0
            assert denormalize(nm) == w
        ok = True
    finally:
        _report("ring axioms, text round-trip and normal-form bijection at 1e5 cases", ok)
