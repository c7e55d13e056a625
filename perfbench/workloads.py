"""Seeded query lists for the three benchmark workloads.

Each generator returns a list of JSON-ready queries.  The seed varies the
inputs while the amount of work stays nearly fixed across seeds, so that
runs on different seeds measure the same cost:

* costly queries are fixed up to what leaves their cost unchanged: a
  diagram automorphism of the group (the dual weight in type A), the order
  of a matrix's rows, the entry a perturbed copy changes;
* cheap queries are drawn per slot from the candidates whose closed-form
  size (Weyl dimension, hook-content value) is near the slot's target.

Inputs are built with flagrep's public functions before any timing starts.
Everything that enters a query is sorted first, so the bytes depend on the
seed and on the mathematics only, never on dict or set order inside flagrep.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import flagrep as fr
from checks import is_weyl_invariant, s_invariant_terms

WORKLOADS = ("char-cold", "realize-scan", "schur-cor3")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def inputs_digest(queries: list[dict]) -> str:
    text = json.dumps(queries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _weight_text(w) -> str:
    return ",".join(str(x) for x in w)


def _automorphisms(tag: str, rank: int) -> list[tuple[int, ...]]:
    """Coordinate permutations given by the symmetries of the Dynkin diagram.

    They permute the fundamental weights, so a character and its image have
    the same number of terms and cost the same to compute and render.
    """
    identity = tuple(range(rank))
    if tag[0] == "A" and rank > 1:
        return [identity, identity[::-1]]
    if tag == "D4":  # the three leaves 0, 2, 3 around the centre 1
        return [(a, 1, b, c) for a, b, c in itertools.permutations((0, 2, 3))]
    if tag[0] == "D":  # the fork at the end: swap the last two nodes
        return [identity, identity[:-2] + (rank - 1, rank - 2)]
    return [identity]


def _image(w, perm) -> tuple[int, ...]:
    return tuple(w[p] for p in perm)


def _pick_near(rng, candidates, target, used, tol=0.08):
    """An unused candidate whose size is within ``tol`` of ``target``.

    ``candidates`` is a sorted list of (size, item).  When none lies inside
    the window, the unused one nearest to the target in ratio is taken.
    """
    free = [(s, item) for s, item in candidates if item not in used]
    window = [c for c in free if target / (1 + tol) <= c[0] <= target * (1 + tol)]
    if window:
        choice = rng.choice(window)
    else:
        best = min(max(s / target, target / s) for s, _ in free)
        choice = rng.choice(
            [c for c in free if max(c[0] / target, target / c[0]) == best]
        )
    used.add(choice[1])
    return choice


def _nearest(candidates, target, used):
    _, size, mu = min(
        (max(s / target, target / s), s, mu) for s, mu in candidates if mu not in used
    )
    used.add(mu)
    return size, mu


# --- char-cold --------------------------------------------------------------

CHAR_GROUPS = ("A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2")

#: About 1.5 MB of rendered output: the scale of C5 (1,1,1,1,1).
CHAR_HEAVY = (("D5", (1, 1, 1, 2, 2)),)

#: Two characters per group in the 20-70 ms range.
CHAR_MEDIUM = {
    "A2": ((30, 20), (24, 12)),
    "A3": ((6, 3, 2), (4, 4, 1)),
    "A4": ((2, 1, 0, 3), (1, 2, 1, 1)),
    "A5": ((1, 0, 1, 0, 2), (0, 1, 1, 1, 0)),
    "B2": ((20, 12), (16, 16)),
    "B3": ((3, 2, 1), (1, 3, 2)),
    "B4": ((1, 1, 1, 1), (2, 1, 0, 1)),
    "C3": ((3, 2, 1), (2, 2, 3)),
    "C4": ((1, 1, 1, 1), (1, 0, 2, 1)),
    "D4": ((2, 1, 1, 0), (1, 1, 1, 1)),
    "D5": ((1, 0, 1, 0, 1), (0, 1, 0, 1, 1)),
    "G2": ((10, 8), (6, 12)),
}

#: Weyl-dimension targets of the light queries drawn for every group.
CHAR_LIGHT_TARGETS = (3, 10, 30, 60, 120, 250, 500)
_LIGHT_BOX = {2: 9, 3: 5, 4: 3, 5: 2}


def char_cold(seed: int) -> list[dict]:
    """Distinct ``char <G> <lambda>`` queries, tiny to 1.5 MB of output."""
    rng = _rng("char-cold", seed)
    queries, heavy = [], []
    for tag in CHAR_GROUPS:
        cd = fr.cartan_from_tag(tag)
        perms = _automorphisms(tag, cd.rank)
        heavy_images = {_image(lam, rng.choice(perms)) for t, lam in CHAR_HEAVY if t == tag}
        chosen = set(heavy_images)
        for lam in CHAR_MEDIUM[tag]:
            chosen.add(_image(lam, rng.choice(perms)))
        box = range(_LIGHT_BOX[cd.rank])
        candidates = sorted(
            (fr.dimension(cd, w), w)
            for w in itertools.product(box, repeat=cd.rank)
            if not any(_image(w, p) in chosen for p in perms)
        )
        for target in CHAR_LIGHT_TARGETS:
            _pick_near(rng, candidates, target, chosen, tol=0.15)
        for lam in sorted(chosen):
            query = {"kind": "char", "argv": ["char", tag, _weight_text(lam)]}
            (heavy if lam in heavy_images else queries).append(query)
    rng.shuffle(queries)
    # last, so that the peak memory it sets does not depend on the order
    return queries + heavy


# --- realize-scan -----------------------------------------------------------

REALIZE_GROUPS = ("B3", "A3", "G2")
#: Row-count targets of the tensor products drawn for every group.
REALIZE_TARGETS = tuple(round(180 * 1.16 ** k) for k in range(28))
REALIZE_PERTURBED = 12
OMEGA_PER_GROUP = 2
OMEGA_RANGE = (18, 30)


def _torus_weights(cd, lam) -> list[tuple[int, ...]]:
    terms = fr.weight_multiplicities(cd, lam).terms
    return [w for w in sorted(terms) for _ in range(terms[w])]


def tensor_rows(cd, a, b) -> list[list[int]]:
    """Torus weights of V(a) (x) V(b), sorted: the rows of its s-invariant."""
    wa, wb = _torus_weights(cd, a), _torus_weights(cd, b)
    return sorted([x + y for x, y in zip(u, v)] for u in wa for v in wb)


def _perturb(rng, cd, rows) -> list[list[int]]:
    """One entry of one row moved by one, drawn again until the s-invariant
    is not Weyl-invariant: then the matrix is certainly not certified."""
    while True:
        out = [list(r) for r in rows]
        out[rng.randrange(len(out))][rng.randrange(cd.rank)] += rng.choice((-1, 1))
        if not is_weyl_invariant(s_invariant_terms(out), cd.cartan_matrix):
            return out


def realize_scan(seed: int) -> list[dict]:
    """``check_realizable`` over tensor-product s-invariants of a few groups,
    30% of them copies with one entry perturbed, plus a few Omega_n scans.

    Each group is scanned in order of size with a fixed pair per size, so
    that the character-cache misses fall on the same queries for every
    seed.  The seed picks the dual pair in A3, the row order, the perturbed
    copies and their entries, and the Omega_n sizes.
    """
    rng = _rng("realize-scan", seed)
    queries = []
    for tag in REALIZE_GROUPS:
        cd = fr.cartan_from_tag(tag)
        perms = _automorphisms(tag, cd.rank)
        irreps = sorted(
            (fr.dimension(cd, w), w)
            for w in itertools.product(range(4), repeat=cd.rank)
            if any(w)
        )
        pairs = sorted(
            (da * db, (a, b))
            for (da, a), (db, b) in itertools.combinations_with_replacement(irreps, 2)
        )
        for n in sorted(rng.sample(range(*OMEGA_RANGE), OMEGA_PER_GROUP)):
            queries.append({"kind": "omega", "group": tag, "n": n})
        used = set()
        stride = len(REALIZE_TARGETS) / REALIZE_PERTURBED  # one copy per stride of sizes
        perturbed = {
            int(k * stride) + rng.randrange(int(stride)) for k in range(REALIZE_PERTURBED)
        }
        for i, target in enumerate(REALIZE_TARGETS):
            _, (a, b) = _nearest(pairs, target, used)
            perm = rng.choice(perms)
            a, b = _image(a, perm), _image(b, perm)
            rows = tensor_rows(cd, a, b)[:-1]
            rng.shuffle(rows)
            queries.append({
                "kind": "realize", "group": tag, "rows": rows,
                "certified": True, "top": [x + y for x, y in zip(a, b)],
            })
            if i in perturbed:
                queries.append({
                    "kind": "realize", "group": tag, "rows": _perturb(rng, cd, rows),
                    "certified": False,
                })
    return queries


# --- schur-cor3 -------------------------------------------------------------

SCHUR_M = (3, 4, 5, 6)
#: Hook-content targets per number of variables, one query of each kind.
SCHUR_TARGETS = (8, 20, 50, 120, 300, 700, 1500, 3000, 6000)
#: Slots up to this target draw their partition at random.  Larger slots
#: take the partition nearest the target, fixed, because tableau enumeration
#: costs more than the tableau count where rows hit dead ends; the seed then
#: varies their alpha input between a weight and its dual.
SCHUR_RANDOM_UP_TO = 50


def _partitions(slots: int, largest: int):
    """Partitions with at most ``slots`` parts, each part <= largest."""
    yield ()
    if slots:
        for first in range(1, largest + 1):
            for rest in _partitions(slots - 1, first):
                yield (first,) + rest


def schur_cor3(seed: int) -> list[dict]:
    """``schur``, ``cor3`` and ``alpha`` queries over m = 3..6; the alpha
    input is a type-A character rendered here, so the parser gets work.

    Partitions have at most m - 2 rows (one row for m = 3): with m - 1 rows
    the enumerator's dead ends make the cost of a slot depend on its shape.
    """
    rng = _rng("schur-cor3", seed)
    small, large = [], []
    for m in SCHUR_M:
        rows = max(1, m - 2)
        shapes = itertools.chain(_partitions(rows, 12), ((k,) for k in range(13, 61)))
        candidates = sorted({(fr.schur_dim(mu, m), mu) for mu in shapes if mu})
        cd = fr.cartan_from_tag(f"A{m - 1}")
        used = set()
        for target in SCHUR_TARGETS:
            for kind in ("schur", "cor3", "alpha"):
                if target <= SCHUR_RANDOM_UP_TO:
                    _, mu = _pick_near(rng, candidates, target, used)
                else:
                    _, mu = _nearest(candidates, target, used)
                if kind == "alpha":
                    lam = fr.weight_of_partition(mu, m)
                    lam = rng.choice((lam, lam[::-1]))  # the dual has the same terms
                    argv = ["alpha", cd.label, fr.render(fr.weight_multiplicities(cd, lam))]
                else:
                    argv = [kind, _weight_text(mu), str(m)]
                query = {"kind": kind, "argv": argv, "mu": list(mu), "m": m}
                (small if target <= SCHUR_RANDOM_UP_TO else large).append(query)
    rng.shuffle(small)
    # the large slots last, in a fixed order, so that the peak memory set by
    # the tableau cache does not depend on the order
    return small + large


GENERATORS = {
    "char-cold": char_cold,
    "realize-scan": realize_scan,
    "schur-cor3": schur_cor3,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)
