"""Graded Hochschild cochains on a cohomology ring and the secondary
multiplication 3-cocycle.

Coefficients live in the shifted twisted bimodule: the left action
carries the sign (-1)^{|x|}, the right action is ordinary, and internal
degrees are tracked as maps into H (so the secondary multiplication has
internal degree -1); the shift enters only through that bookkeeping.

A cochain of arity l and internal degree t is stored blockwise: for each
degree tuple (p_1, ..., p_l) a matrix H^{p_1} (x) ... (x) H^{p_l} ->
H^{p_1 + ... + p_l + t}, source indices flattened row-major.  Only
tuples whose source and target ranks are all nonzero can carry blocks.

The triviality and class-equality solvers assemble the coboundary as an
exact matrix, one signed Kronecker block per (target tuple, source
tuple) and term of delta, and hand the system to the exact linear
solver; infeasibility comes back as a checkable certificate.  No
Kronecker product is formed: each block is a multiplication block
repeated on a grid of cells, written by index arithmetic from its
nonzeros.  Products with a Kronecker factor elsewhere (theta's chain
blocks, HRing.left_mult) contract through exactlin.matmul_kron.
coboundary() is the independent evaluator: every witness is re-checked
with it, and the tests compare the assembled matrix with coboundary() of
each elementary cochain, so the two cannot drift apart.  When H^0 is
spanned by the unit and the cocycle vanishes on unit slots, the solve is
restricted to all-positive degree tuples: a solution there extends by
zero to a full solution, and the extension is re-verified against every
block.

theta_chain_block is the one chain-level formula for the secondary
multiplication: theta() projects it block by block and massey_triple
applies it to one triple.  Its reference in tests/oracles.py evaluates
the formula one triple at a time from vector-level products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import product as iproduct
from math import prod
from pathlib import Path

import numpy as np

from .exactlin import (
    ExactMatrix, Ring, int_from_json, ints_from_key, kron, matmul_kron, nonzero_lines,
    ring_from_name, solve_with_certificate, zero_vector,
)
from .sections import CohomologySections, HRing, NotACocycleError


@dataclass
class TwistedBimodule:
    """H with left action x * m = (-1)^{|x|} x m, right action ordinary,
    degrees shifted up by one."""

    base: HRing


@dataclass
class HochschildCochain:
    arity: int
    internal_degree: int
    h_ranks: list
    ring: Ring
    blocks: dict          # degree tuple -> ExactMatrix (h_target x prod h_sources)

    def rank(self, n: int) -> int:
        return self.h_ranks[n] if 0 <= n < len(self.h_ranks) else 0

    def shape(self, tup) -> tuple:
        rows = self.rank(sum(tup) + self.internal_degree)
        cols = 1
        for p in tup:
            cols *= self.rank(p)
        return rows, cols

    def block(self, tup) -> ExactMatrix | None:
        return self.blocks.get(tuple(tup))

    def block_or_zero(self, tup) -> ExactMatrix:
        b = self.blocks.get(tuple(tup))
        if b is None:
            rows, cols = self.shape(tup)
            return ExactMatrix.zeros(self.ring, rows, cols)
        return b

    def set_block(self, tup, m: ExactMatrix) -> None:
        if m.is_zero():
            self.blocks.pop(tuple(tup), None)
        else:
            self.blocks[tuple(tup)] = m

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks.values())

    def __sub__(self, other: "HochschildCochain") -> "HochschildCochain":
        out = HochschildCochain(self.arity, self.internal_degree,
                                list(self.h_ranks), self.ring, {})
        for tup in set(self.blocks) | set(other.blocks):
            out.set_block(tup, self.block_or_zero(tup) - other.block_or_zero(tup))
        return out

    def __eq__(self, other):
        if not isinstance(other, HochschildCochain):
            return NotImplemented
        if (self.arity, self.internal_degree) != (other.arity, other.internal_degree):
            return False
        return all(self.block_or_zero(t) == other.block_or_zero(t)
                   for t in set(self.blocks) | set(other.blocks))


def zero_cochain(h: HRing, arity: int, internal_degree: int) -> HochschildCochain:
    return HochschildCochain(arity, internal_degree, list(h.ranks), h.ring, {})


def admissible_tuples(h: HRing, arity: int, internal_degree: int,
                      positive_only: bool = False):
    """Degree tuples that can carry a nonzero block, in lexicographic order."""
    lo = 1 if positive_only else 0
    out = []
    for tup in iproduct(range(lo, h.top + 1), repeat=arity):
        target = sum(tup) + internal_degree
        if not 0 <= target <= h.top or h.rank(target) == 0:
            continue
        if any(h.rank(p) == 0 for p in tup):
            continue
        out.append(tup)
    return out


# ---------------------------------------------------------------------------
# The Hochschild coboundary
# ---------------------------------------------------------------------------

def coboundary(a: HochschildCochain, M: TwistedBimodule) -> HochschildCochain:
    """delta a: arity l+1, same internal degree; first term twisted by (-1)^{|x1|}."""
    h = M.base
    ring = h.ring
    l, t = a.arity, a.internal_degree
    out = zero_cochain(h, l + 1, t)
    for tup in admissible_tuples(h, l + 1, t):
        rows, cols = out.shape(tup)
        acc = ExactMatrix.zeros(ring, rows, cols)
        touched = False
        # x1 * a(x2, ..., x_{l+1}), twisted left action
        src = tup[1:]
        A = a.block(src)
        if A is not None:
            ta = sum(src) + t
            m0 = h.mult_block(tup[0], ta) @ kron(ExactMatrix.identity(ring, h.rank(tup[0])), A)
            acc = acc + m0.scale((-1) ** tup[0])
            touched = True
        # (-1)^i a(..., x_i x_{i+1}, ...)
        for i in range(l):
            merged = tup[:i] + (tup[i] + tup[i + 1],) + tup[i + 2:]
            A = a.block(merged)
            if A is None:
                continue
            mats = [ExactMatrix.identity(ring, h.rank(p)) for p in tup[:i]]
            mats.append(h.mult_block(tup[i], tup[i + 1]))
            mats.extend(ExactMatrix.identity(ring, h.rank(p)) for p in tup[i + 2:])
            acc = acc + (A @ reduce(kron, mats)).scale((-1) ** (i + 1))
            touched = True
        # (-1)^{l+1} a(x_1, ..., x_l) x_{l+1}, ordinary right action
        src = tup[:l]
        A = a.block(src)
        if A is not None:
            ta = sum(src) + t
            ml = h.mult_block(ta, tup[l]) @ kron(A, ExactMatrix.identity(ring, h.rank(tup[l])))
            acc = acc + ml.scale((-1) ** (l + 1))
            touched = True
        if touched:
            out.set_block(tup, acc)
    return out


def verify_cocycle(a: HochschildCochain, M: TwistedBimodule) -> bool:
    return coboundary(a, M).is_zero()


# ---------------------------------------------------------------------------
# Secondary multiplication
# ---------------------------------------------------------------------------

def theta_chain_block(co: CohomologySections, p: int, q: int, r: int) -> ExactMatrix:
    """Matrix of Theta on basis triples of (H^p, H^q, H^r): C^{p+q+r-1} x h_p h_q h_r,
    Theta(x, y, z) = (-1)^{|x|} s(x) q(y,z) - q(xy, z) + q(x, yz) - q(x,y) s(z)."""
    a = co.algebra
    h = co.h()
    ring = co.ring
    hp, hq, hr = co.hr(p), co.hr(q), co.hr(r)
    rows = a.rank(p + q + r - 1)
    block = ExactMatrix.zeros(ring, rows, hp * hq * hr)
    if rows == 0 or hp * hq * hr == 0:
        return block
    q_yz = co.qpair_block(q, r)
    if not q_yz.is_zero():
        block = block + a.bilinear_block(p, q + r - 1, co.s_matrix(p), q_yz).scale((-1) ** p)
    block = block - matmul_kron(co.qpair_block(p + q, r), h.mult_block(p, q), hr)
    block = block + matmul_kron(co.qpair_block(p, q + r), h.mult_block(q, r), hp,
                                identity_first=True)
    q_xy = co.qpair_block(p, q)
    if not q_xy.is_zero():
        block = block - a.bilinear_block(p + q - 1, r, q_xy, co.s_matrix(r))
    return block


def theta(co: CohomologySections) -> HochschildCochain:
    """The secondary-multiplication 3-cocycle of the sections package."""
    h = co.h()
    out = zero_cochain(h, 3, -1)
    a = co.algebra
    for tup in admissible_tuples(h, 3, -1):
        p, q, r = tup
        chain = theta_chain_block(co, p, q, r)
        n = p + q + r - 1
        if not (a.d(n) @ chain).is_zero():
            raise NotACocycleError(
                f"Theta block {tup} failed the chain-level cocycle check")
        out.set_block(tup, co.pi_matrix(n) @ chain)
    return out


# ---------------------------------------------------------------------------
# Linear systems in cochain space
# ---------------------------------------------------------------------------

@dataclass
class CochainLayout:
    """Flat coordinates on the space of block cochains with fixed arity/degree."""

    h: HRing
    arity: int
    internal_degree: int
    tuples: list
    offsets: dict
    total: int

    @staticmethod
    def build(h: HRing, arity: int, internal_degree: int,
              positive_only: bool = False) -> "CochainLayout":
        tuples = admissible_tuples(h, arity, internal_degree, positive_only)
        shape = zero_cochain(h, arity, internal_degree).shape
        offsets, total = {}, 0
        for tup in tuples:
            rows, cols = shape(tup)
            offsets[tup] = (total, rows, cols)
            total += rows * cols
        return CochainLayout(h, arity, internal_degree, tuples, offsets, total)

    def pack(self, a: HochschildCochain) -> np.ndarray:
        v = zero_vector(self.h.ring, self.total)
        for tup in self.tuples:
            off, rows, cols = self.offsets[tup]
            b = a.block(tup)
            if b is not None:
                v[off:off + rows * cols] = b.data.reshape(rows * cols)
        return v

    def unpack(self, v: np.ndarray) -> HochschildCochain:
        out = zero_cochain(self.h, self.arity, self.internal_degree)
        for tup in self.tuples:
            off, rows, cols = self.offsets[tup]
            m = ExactMatrix(self.h.ring, v[off:off + rows * cols].reshape(rows, cols).copy())
            out.set_block(tup, m)
        return out


def coboundary_matrix(M: TwistedBimodule, arity: int, internal_degree: int,
                      positive_only: bool = False):
    """(matrix of delta, source layout, target layout) in flat coordinates.

    Assembled block by block: for each target tuple T, each term of
    coboundary() reads one source tuple S and adds one signed Kronecker
    block at the layout offsets of (T, S); an S outside the source layout
    (a unit slot when positive_only) adds nothing.  The Kronecker block
    is not formed: each nonzero of its multiplication block lands on a
    grid of cells, found by index arithmetic.  The sums per cell are
    normalized once, and the nonzero ones are kept as the matrix's rows
    (ExactMatrix.from_nonzeros): no dense array is allocated.
    """
    h = M.base
    ring = h.ring
    l, t = arity, internal_degree
    src = CochainLayout.build(h, l, t, positive_only)
    dst = CochainLayout.build(h, l + 1, t, positive_only)
    n = src.total
    sums = {}                               # flat cell row * n + col -> sum
    nonzeros = {}                           # (p, q) -> [(u, v, m[u, v])]

    def add(T, S, sign, pq, cell, grid):
        """sign * m[u, v] into the cells cell(u, v) + g, g in grid, of the
        (T, S) block, for each nonzero m[u, v] of m = mult_block(*pq)."""
        if pq not in nonzeros:
            lines = nonzero_lines(h.mult_block(*pq))
            nonzeros[pq] = [(u, v, x) for u, row in enumerate(lines) for v, x in row.items()]
        base = dst.offsets[T][0] * n + src.offsets[S][0]
        for u, v, x in nonzeros[pq]:
            k, x = base + cell(u, v), sign * x
            for g in grid:
                sums[k + g] = sums.get(k + g, 0) + x

    # a row is (i, source classes) for the value's class i; a column is
    # (r, c) for the row and column of the source block
    for T in dst.tuples:
        _, rt, ct = dst.offsets[T]
        # x1 * a(x2, ..., x_{l+1}), twisted: [(i, x, c), (r, c)] is m[i, (x, r)]
        S = T[1:]
        if S in src.offsets:
            _, ra, ca = src.offsets[S]
            hx = h.rank(T[0])
            add(T, S, (-1) ** T[0], (T[0], sum(S) + t),
                lambda i, xr: (i * hx + xr // ra) * ca * n + xr % ra * ca,
                _grid((ca, n + 1)))
        # a(..., x_i x_{i+1}, ...): [(r, (a, v, b)), (r, (a, u, b))] is m[u, v]
        # for the classes a before and b after the pair
        for i in range(l):
            S = T[:i] + (T[i] + T[i + 1],) + T[i + 2:]
            if S in src.offsets:
                ca = src.offsets[S][2]
                hm, hv = h.rank(S[i]), h.rank(T[i]) * h.rank(T[i + 1])
                post = prod(map(h.rank, T[i + 2:]))
                add(T, S, (-1) ** (i + 1), (T[i], T[i + 1]), lambda u, v: (v * n + u) * post,
                    _grid((rt, ct * n + ca), (prod(map(h.rank, T[:i])), (hv * n + hm) * post),
                          (post, n + 1)))
        # a(x_1, ..., x_l) x_{l+1}: [(i, c, y), (r, c)] is m[i, (r, y)]
        S = T[:l]
        if S in src.offsets:
            _, ra, ca = src.offsets[S]
            hk = h.rank(T[l])
            add(T, S, (-1) ** (l + 1), (sum(S) + t, T[l]),
                lambda i, ry: (i * ca * hk + ry % hk) * n + ry // hk * ca,
                _grid((ca, hk * n + 1)))
    rows = [{} for _ in range(dst.total)]
    for k in sorted(sums):
        x = ring.normalize(sums[k])
        if x:
            rows[k // n][k % n] = x
    return ExactMatrix.from_nonzeros(ring, (dst.total, n), rows), src, dst


def _grid(*axes) -> list:
    """The offsets i_1 s_1 + ... + i_k s_k, 0 <= i_j < count_j, of the
    axes (count_j, stride s_j)."""
    out = [0]
    for count, stride in axes:
        out = [o + i * stride for o in out for i in range(count)]
    return out


def _vanishes_on_unit_slots(a: HochschildCochain, h: HRing) -> bool:
    return all(a.block_or_zero(t).is_zero()
               for t in admissible_tuples(h, a.arity, a.internal_degree)
               if 0 in t)


def _solve_delta(target: HochschildCochain, M: TwistedBimodule):
    """Find a with delta a = target (arity of a = target.arity - 1)."""
    h = M.base
    arity = target.arity - 1
    t = target.internal_degree
    restricted = h.rank(0) == 1 and _vanishes_on_unit_slots(target, h)
    mat, src, dst = coboundary_matrix(M, arity, t, positive_only=restricted)
    rhs = dst.pack(target)
    x, cert = solve_with_certificate(mat, rhs)
    if x is None and restricted:
        # no normalized witness; settle it on the full complex
        mat, src, dst = coboundary_matrix(M, arity, t, positive_only=False)
        x, cert = solve_with_certificate(mat, dst.pack(target))
    if x is None:
        return None, cert
    witness = src.unpack(x)
    if coboundary(witness, M) != target:
        raise AssertionError("solver produced an invalid witness")
    return witness, None


def trivialize(theta_cochain: HochschildCochain, M: TwistedBimodule):
    """Witness a (arity 2, internal degree -1) with delta a = theta, or
    (None, certificate) when the class is nontrivial over the ring."""
    if theta_cochain.arity != 3:
        raise ValueError("trivialize expects an arity-3 cochain")
    if not verify_cocycle(theta_cochain, M):
        raise NotACocycleError("input cochain is not a Hochschild cocycle")
    return _solve_delta(theta_cochain, M)


def classes_equal(t1: HochschildCochain, t2: HochschildCochain, M: TwistedBimodule):
    """Witness a with delta a = t1 - t2, or (None, certificate)."""
    if (t1.arity, t1.internal_degree) != (t2.arity, t2.internal_degree):
        raise ValueError("cochain shape mismatch")
    diff = t1 - t2
    if not verify_cocycle(diff, M):
        raise NotACocycleError("difference is not a cocycle")
    return _solve_delta(diff, M)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def cochain_to_json(a: HochschildCochain) -> dict:
    return {
        "ring": a.ring.name,
        "arity": a.arity,
        "internal_degree": a.internal_degree,
        "h_ranks": list(a.h_ranks),
        "blocks": {",".join(map(str, tup)): m.to_lists()
                   for tup, m in sorted(a.blocks.items())},
    }


def cochain_from_json(payload: dict) -> HochschildCochain:
    ring = ring_from_name(payload["ring"])
    out = HochschildCochain(int_from_json(payload["arity"]),
                            int_from_json(payload["internal_degree"]),
                            [int_from_json(r) for r in payload["h_ranks"]], ring, {})
    for key, rows in payload["blocks"].items():
        tup = tuple(ints_from_key(key))
        out.set_block(tup, ExactMatrix.from_lists(ring, rows, shape=out.shape(tup)))
    return out


def save_cochain(a: HochschildCochain, path) -> None:
    Path(path).write_text(json.dumps(cochain_to_json(a), sort_keys=True),
                          encoding="utf-8")
