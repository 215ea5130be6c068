"""Exterior algebras, symmetrization, and the end-to-end torus runs.

The cohomology of the n-torus is exterior on n degree-1 generators; this
module builds that algebra directly (zero differential, wedge product
with shuffle signs) and provides the two desk-scale probes: symmetrizing
the secondary multiplication into Hom(S^3 V, Lambda^2 V), and solving
for an integral trivialization of the full cocycle on the simplicial
torus.

Symmetrization sums over S_3 without signs; the probe's matrix form has
a signed variant behind a flag.  Neither is asserted to be canonical: the
monomorphism probe reports what each variant does, including whether it
descends to cohomology classes at all.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations

from .dga import DgAlgebra, cochain_algebra
from .exactlin import (
    ExactMatrix, Ring, Subquotient, ZZ, as_vector, kernel_basis, zero_vector,
)
from .hochschild import (
    CochainLayout, HochschildCochain, TwistedBimodule, coboundary_matrix,
    theta, trivialize,
)
from .sections import HRing, build_sections
from .simplicial import build_torus


def _subsets(n: int, k: int) -> list[tuple]:
    return list(combinations(range(n), k))


def _wedge(s: tuple, t: tuple):
    """(sign, union) for e_s ^ e_t, or None when the factors overlap."""
    if set(s) & set(t):
        return None
    inversions = sum(1 for a in s for b in t if a > b)
    merged = tuple(sorted(s + t))
    return (-1) ** inversions, merged


def exterior_algebra(n: int, ring: Ring = ZZ) -> DgAlgebra:
    """Lambda^*(Z^n) as a dg-algebra with zero differential.

    Degree-k basis: k-element index subsets in lexicographic order.
    """
    if n < 1:
        raise ValueError("exterior algebra wants rank >= 1")
    ranks = []
    index = []
    for k in range(n + 1):
        subs = _subsets(n, k)
        index.append({s: i for i, s in enumerate(subs)})
        ranks.append(len(subs))
    product = {}
    for p in range(n + 1):
        for q in range(n + 1 - p):
            entries = []
            for s, i in index[p].items():
                for t, j in index[q].items():
                    w = _wedge(s, t)
                    if w is not None:
                        sign, merged = w
                        entries.append((i, j, index[p + q][merged],
                                        ring.normalize(sign)))
            if entries:
                product[(p, q)] = tuple(entries)
    return DgAlgebra(ring, n, ranks, {}, product, as_vector(ring, [1]))


# ---------------------------------------------------------------------------
# Symmetrization
# ---------------------------------------------------------------------------

def sym3_monomials(n: int) -> list[tuple]:
    return list(combinations_with_replacement(range(n), 3))


def symmetrize(theta_cochain: HochschildCochain) -> ExactMatrix:
    """The induced map S^3 V -> Lambda^2 V from the (1,1,1) block.

    Column (i <= j <= k): sum over all S_3 orderings of (v_i, v_j, v_k)
    of the block values, without signs; rows are coordinates on H^2.
    """
    n = theta_cochain.rank(1)
    ring = theta_cochain.ring
    block = theta_cochain.block_or_zero((1, 1, 1))
    h2 = theta_cochain.rank(2)
    monos = sym3_monomials(n)
    out = ExactMatrix.zeros(ring, h2, len(monos))
    for col, (i, j, k) in enumerate(monos):
        acc = zero_vector(ring, h2)
        for a, b, c in permutations((i, j, k)):
            acc = acc + block.column((a * n + b) * n + c)
        out.data[:, col] = ring.reduce_array(acc)
    return out


def symmetrize_matrix(h: HRing, layout: CochainLayout, signed: bool = False) -> ExactMatrix:
    """Matrix of cochain |-> flattened symmetrization, on layout coordinates."""
    n = h.rank(1)
    monos = sym3_monomials(n)
    rows = h.rank(2) * len(monos)
    out = ExactMatrix.zeros(h.ring, rows, layout.total)
    if (1, 1, 1) not in layout.offsets:
        return out
    off, brows, bcols = layout.offsets[(1, 1, 1)]
    for col, mono in enumerate(monos):
        for perm in permutations(range(3)):
            a, b, c = (mono[x] for x in perm)
            flat = (a * n + b) * n + c
            # signed: the sign of perm, (-1) to the number of its inversions
            inversions = sum(x > y for x, y in combinations(perm, 2))
            w = h.ring.normalize((-1) ** inversions) if signed else 1
            for r in range(brows):
                idx = col * brows + r
                out.data[idx, off + r * bcols + flat] = h.ring.normalize(
                    out.data[idx, off + r * bcols + flat] + w)
    return out


def verify_monomorphism(n: int, signed: bool = False, ring: Ring = ZZ) -> dict:
    """Desk-scale probe of the symmetrization map on HH^3 of Lambda^*(Z^n).

    Computes the internal-degree -1 graded part of HH^3 of the exterior
    algebra with twisted shifted coefficients, checks whether the chosen
    symmetrization variant descends to classes, and if so whether it is
    injective on them.  The verdicts are reported, not assumed.
    """
    alg = exterior_algebra(n, ring)
    co = build_sections(alg)
    h = co.h()
    M = TwistedBimodule(h)
    d2, lay2, lay3 = coboundary_matrix(M, 2, -1)
    d3, lay3b, lay4 = coboundary_matrix(M, 3, -1)
    assert lay3.tuples == lay3b.tuples
    cocycles = kernel_basis(d3)
    hh3 = Subquotient.from_gens_rels(ring, cocycles, d2)
    sym = symmetrize_matrix(h, lay3, signed=signed)
    kills_coboundaries = (sym @ d2).is_zero()
    injective = None
    if kills_coboundaries:
        # injective iff every cocycle that sym kills is a coboundary
        injective = hh3.classify(cocycles @ kernel_basis(sym @ cocycles)).is_zero()
    return {
        "n": n,
        "signed": signed,
        "hh3_free_rank": hh3.free_rank,
        "hh3_torsion": [ring.scalar_to_json(d) for d in hh3.torsion],
        "descends_to_classes": kills_coboundaries,
        "injective_on_classes": injective,
    }


def torus_theta_trivial(n: int, ring: Ring = ZZ, seed=None):
    """Build the torus-n cochain model, its theta, and an exact witness
    delta a = theta.  Returns (witness, theta, sections)."""
    algebra = cochain_algebra(build_torus(n), ring)
    co = build_sections(algebra, seed=seed)
    th = theta(co)
    witness, cert = trivialize(th, TwistedBimodule(co.h()))
    if witness is None:
        raise AssertionError(
            f"torus theta unexpectedly nontrivial; certificate row {cert}")
    return witness, th, co
