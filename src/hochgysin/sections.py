"""Cohomology of a dg-algebra with a chosen splitting package.

From the Smith normal forms of the differentials we extract, per degree:
a basis of cocycles, a basis of coboundaries, a basis of cohomology with
chosen cocycle representatives s, a section q of d onto its image, and
the class projection pi.  pi, q_of and image_coords take a matrix of
columns (a vector is its one-column case) and re-verify what they
return.  The decomposition requires H to be projective over the
coefficient ring: over Z, torsion in any degree is a hard error.

The canonical (seedless) package is fully determined by the fixed pivot
rule.  A seed perturbs s by coboundaries and q by cocycle-valued
corrections, which is exactly the freedom the constructions downstream
must not depend on.  s(1) = 1 is enforced: the unit class is rotated to
the first basis vector of H^0 and its representative is the unit cochain
itself (degree 0 admits no coboundaries, so seeding preserves this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .dga import DgAlgebra, dga_from_json, dga_to_json
from .exactlin import (
    DimensionMismatchError, ExactMatrix, Ring, Subquotient, as_columns, complex_cohomology,
    divide_rows, int_from_json, kron, shaped_like, smith_normal_form, vec_is_zero,
    zero_vector,
)


class TorsionHomologyError(Exception):
    def __init__(self, degree, factors):
        self.degree = degree
        self.factors = factors
        super().__init__(
            f"H^{degree} has torsion (invariant factors {factors}); "
            "the splitting package requires projective cohomology")


class NotACocycleError(Exception):
    pass


class ProductNotACoboundaryError(Exception):
    pass


class UnitNotPrimitiveError(Exception):
    pass


class SectionsFormatError(Exception):
    pass


@dataclass
class HRing:
    """The cohomology ring of a dg-algebra in its fixed basis.

    mult[(p, q)] is the matrix of H^p (x) H^q -> H^{p+q} with source
    pairs flattened row-major; the unit class is e_0 in degree 0.
    """

    ring: Ring
    ranks: list
    mult: dict

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def rank(self, n: int) -> int:
        return self.ranks[n] if 0 <= n <= self.top else 0

    def mult_block(self, p: int, q: int) -> ExactMatrix:
        if (p, q) in self.mult:
            return self.mult[(p, q)]
        return ExactMatrix.zeros(self.ring, self.rank(p + q),
                                 self.rank(p) * self.rank(q))

    def multiply(self, p: int, q: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.rank(p + q) == 0 or self.rank(p) == 0 or self.rank(q) == 0:
            return zero_vector(self.ring, self.rank(p + q))
        return self.mult_block(p, q).matvec(np.outer(x, y).reshape(len(x) * len(y)))

    def left_mult(self, p: int, X: ExactMatrix, q: int) -> ExactMatrix:
        """Products of the classes X (columns, in H^p) with the basis of H^q:
        column jx * h_q + jy is X_jx e_jy."""
        ident = ExactMatrix.identity(self.ring, self.rank(q))
        return self.mult_block(p, q) @ kron(X, ident)

    def right_mult(self, p: int, q: int, z) -> ExactMatrix:
        """Matrix of y -> y z on H^p, for the class z in H^q."""
        ident = ExactMatrix.identity(self.ring, self.rank(p))
        return self.mult_block(p, q) @ kron(ident, as_columns(self.ring, z))


class CohomologySections:
    """Splitting data (pi, s, q) for the cohomology of a dg-algebra."""

    def __init__(self, algebra: DgAlgebra, seed=None):
        self.algebra = algebra
        self.seed = seed
        self.h_rank: list = []
        self.s: dict = {}              # n -> C^n x h_n
        self.q: dict = {}              # n -> C^{n-1} x b_n  (image-basis coords)
        self.image_basis: dict = {}    # n -> C^n x b_n      (basis of B^n)
        self.kernel_basis: dict = {}   # n -> C^n x z_n
        self._im_rows: dict = {}       # n -> b_n x C^n rows of U with divisors
        self._im_div: dict = {}
        self._coc_inv: dict = {}       # n -> Vinv of SNF(d^n)
        self._coc_rank: dict = {}      # n -> rank of d^n
        self._class_map: dict = {}     # n -> h_n x z_n
        self._pi_mat: dict = {}        # n -> h_n x C^n (valid on cocycles)
        self._h: HRing | None = None
        self._qpair_cache: dict = {}
        self._ss_cache: dict = {}      # (p, q) -> s(x)s(y) block, C^{p+q} x h_p*h_q

    # -- basic dimensions

    @property
    def ring(self) -> Ring:
        return self.algebra.ring

    @property
    def top(self) -> int:
        return self.algebra.top_degree

    def b_rank(self, n: int) -> int:
        return self.image_basis[n].cols if n in self.image_basis else 0

    def z_rank(self, n: int) -> int:
        return self.kernel_basis[n].cols if n in self.kernel_basis else 0

    def hr(self, n: int) -> int:
        return self.h_rank[n] if 0 <= n <= self.top else 0

    # -- core maps

    def pi(self, n: int, V):
        """Class coordinates of the cocycles in the columns of V (or of one
        cocycle) in C^n; NotACocycleError when a column is not a cocycle."""
        W = as_columns(self.ring, V)
        if n in self._coc_inv:
            # d^n W = 0 iff the first rank(d^n) rows of Vinv W vanish (U d V = D)
            if not (self._coc_inv[n].take_rows(range(self._coc_rank[n])) @ W).is_zero():
                raise NotACocycleError(f"vector in degree {n} is not a cocycle")
        return shaped_like(V, self.pi_matrix(n) @ W)

    def pi_matrix(self, n: int) -> ExactMatrix:
        """h_n x C^n matrix computing pi; only meaningful on cocycles."""
        if n not in self._pi_mat:
            if self.hr(n) == 0 or self.algebra.rank(n) == 0:
                self._pi_mat[n] = ExactMatrix.zeros(self.ring, self.hr(n),
                                                    self.algebra.rank(n))
            else:
                r = self._coc_rank[n]
                tail = self._coc_inv[n].take_rows(range(r, self._coc_inv[n].rows))
                self._pi_mat[n] = self._class_map[n] @ tail
        return self._pi_mat[n]

    def s_matrix(self, n: int) -> ExactMatrix:
        if n in self.s:
            return self.s[n]
        return ExactMatrix.zeros(self.ring, self.algebra.rank(n), self.hr(n))

    def s_apply(self, n: int, h: np.ndarray) -> np.ndarray:
        return self.s_matrix(n).matvec(h)

    def image_coords(self, n: int, W):
        """Coordinates on image_basis[n] of the columns of W (or of one
        vector); ProductNotACoboundaryError unless each is a coboundary."""
        Wm = as_columns(self.ring, W)
        Y, bad = divide_rows(self._im_rows[n] @ Wm, self._im_div[n])
        if bad.any() or self.image_basis[n] @ Y != Wm:
            raise ProductNotACoboundaryError(f"vector in degree {n} is not a coboundary")
        return shaped_like(W, Y)

    def q_of(self, n: int, W):
        """q applied to the coboundaries in the columns of W (or to one) in
        C^n; lands in C^{n-1}."""
        return shaped_like(W, self.q[n] @ self.image_coords(n, as_columns(self.ring, W)))

    def ss_block(self, p: int, q: int) -> ExactMatrix:
        """Matrix of (x, y) -> s(x) s(y), C^{p+q} x h_p*h_q."""
        if (p, q) not in self._ss_cache:
            self._ss_cache[(p, q)] = self.algebra.bilinear_block(
                p, q, self.s_matrix(p), self.s_matrix(q))
        return self._ss_cache[(p, q)]

    def qpair_block(self, p: int, q: int) -> ExactMatrix:
        """Matrix of (x, y) -> q(x, y) := q(s(x)s(y) - s(xy)), C^{p+q-1} x h_p*h_q."""
        key = (p, q)
        if key not in self._qpair_cache:
            hp, hq = self.hr(p), self.hr(q)
            if hp == 0 or hq == 0 or p + q > self.top:   # C^{p+q} = 0 above the top
                self._qpair_cache[key] = ExactMatrix.zeros(
                    self.ring, self.algebra.rank(p + q - 1), hp * hq)
            else:
                w = self.ss_block(p, q)
                prod = self.h().mult_block(p, q)
                if self.algebra.rank(p + q):
                    w = w - self.s_matrix(p + q) @ prod
                self._qpair_cache[key] = self.q_of(p + q, w)
        return self._qpair_cache[key]

    def q_pair(self, p: int, x: np.ndarray, q: int, y: np.ndarray) -> np.ndarray:
        """q(x, y) for classes x in H^p, y in H^q: d(q(x,y)) = s(x)s(y) - s(xy)."""
        if self.hr(p) == 0 or self.hr(q) == 0:
            return zero_vector(self.ring, self.algebra.rank(p + q - 1))
        return self.qpair_block(p, q).matvec(np.outer(x, y).reshape(len(x) * len(y)))

    def h(self) -> HRing:
        """The cohomology ring on the fixed basis (canonical: seed-independent)."""
        if self._h is None:
            mult = {}
            for p in range(self.top + 1):
                for q in range(self.top + 1 - p):
                    hp, hq, ht = self.hr(p), self.hr(q), self.hr(p + q)
                    if hp == 0 or hq == 0 or ht == 0:
                        continue
                    mult[(p, q)] = self.pi_matrix(p + q) @ self.ss_block(p, q)
            self._h = HRing(self.ring, list(self.h_rank), mult)
        return self._h


def compute_cohomology(a: DgAlgebra) -> list[Subquotient]:
    """Ker(d^n)/Im(d^{n-1}) per degree as subquotients (torsion included)."""
    degrees = complex_cohomology(a.ring, range(a.top_degree + 1), a.d)
    return [g.group() for g in degrees.values()]


def build_sections(a: DgAlgebra, seed=None) -> CohomologySections:
    """Construct the splitting package; TorsionHomologyError over Z with torsion."""
    ring = a.ring
    co = CohomologySections(a, seed)
    for n, g in complex_cohomology(ring, range(a.top_degree + 1), a.d).items():
        co._coc_inv[n] = g.snf.Vinv
        co._coc_rank[n] = g.snf.rank
        co.kernel_basis[n] = g.kernel
        co.image_basis[n] = g.image
        prev = g.prev
        if prev is not None:
            co.q[n] = prev.take_columns("V", range(prev.rank))
            co._im_rows[n] = prev.take_rows("U", range(prev.rank))
            co._im_div[n] = list(prev.divisors)
        else:
            co.q[0] = ExactMatrix.zeros(ring, 0, 0)
            co._im_rows[0] = ExactMatrix.zeros(ring, 0, a.rank(0))
            co._im_div[0] = []
        # coboundaries in kernel coordinates
        z = co.z_rank(n)
        full = g.snf.lmul("Vinv", co.image_basis[n])
        r = co._coc_rank[n]
        head = full.take_rows(range(r))
        if not head.is_zero():
            raise AssertionError("image not contained in kernel: d^2 != 0?")
        x = full.take_rows(range(r, full.rows))
        sx = smith_normal_form(x)
        torsion = [d for d in sx.divisors if not ring.is_unit(d)]
        if torsion:
            raise TorsionHomologyError(n, torsion)
        h_n = z - sx.rank
        co.h_rank.append(h_n)
        co.s[n] = sx.rmul(co.kernel_basis[n], "Uinv").take_columns(range(sx.rank, z))
        co._class_map[n] = sx.take_rows("U", range(sx.rank, z))

    _normalize_unit(co)
    if seed is not None:
        _randomize(co, random.Random(seed))
    return co


def _normalize_unit(co: CohomologySections) -> None:
    """Rotate the H^0 basis so the unit class is e_0 with representative 1."""
    if co.hr(0) == 0:
        return
    u_cls = co.pi(0, co.algebra.unit)
    if vec_is_zero(u_cls):
        return
    ring = co.ring
    s = smith_normal_form(as_columns(ring, u_cls))
    if not ring.is_unit(s.divisors[0]):
        raise UnitNotPrimitiveError(
            f"unit class {list(u_cls)} is not part of a basis of H^0")
    w = s.U.copy()
    winv = s.Uinv.copy()
    lead = w.matvec(u_cls)[0]
    if lead != ring.one():
        w.data[0] = ring.reduce_array(ring.inv(lead) * w.data[0])
        winv.data[:, 0] = ring.reduce_array(lead * winv.data[:, 0])
    co._class_map[0] = w @ co._class_map[0]
    # s gets the inverse recombination; then the unit column is pinned to 1
    co.s[0] = co.s[0] @ winv
    co.s[0].data[:, 0] = co.algebra.unit
    co._pi_mat.pop(0, None)


def _randomize(co: CohomologySections, rng: random.Random) -> None:
    """Perturb s by coboundaries and q by cocycle-valued corrections."""
    ring = co.ring
    for n in range(co.top + 1):
        b, h = co.b_rank(n), co.hr(n)
        if b and h:
            r = ExactMatrix.from_rows(
                ring, [[rng.randint(-2, 2) for _ in range(h)] for _ in range(b)])
            co.s[n] = co.s[n] + co.image_basis[n] @ r
        z_prev = co.z_rank(n - 1)
        if b and z_prev:
            r2 = ExactMatrix.from_rows(
                ring, [[rng.randint(-2, 2) for _ in range(b)] for _ in range(z_prev)])
            co.q[n] = co.q[n] + co.kernel_basis[n - 1] @ r2
    co._qpair_cache.clear()
    co._ss_cache.clear()
    co._h = None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def sections_to_json(co: CohomologySections) -> dict:
    def mats(d):
        return {str(n): m.to_lists() for n, m in d.items()}
    return {
        "algebra": dga_to_json(co.algebra),
        "seed": co.seed,
        "h_rank": list(co.h_rank),
        "s": mats(co.s),
        "q": mats(co.q),
        "image_basis": mats(co.image_basis),
        "kernel_basis": mats(co.kernel_basis),
        "im_rows": mats(co._im_rows),
        "im_div": {str(n): [co.ring.scalar_to_json(d) for d in ds]
                   for n, ds in co._im_div.items()},
        "coc_inv": mats(co._coc_inv),
        "coc_rank": {str(n): r for n, r in co._coc_rank.items()},
        "class_map": mats(co._class_map),
    }


def sections_from_json(payload: dict) -> CohomologySections:
    try:
        co = _sections_fields(payload)
    except (KeyError, ValueError, TypeError, IndexError, AttributeError,
            DimensionMismatchError) as exc:
        raise SectionsFormatError(f"malformed section package: {exc}") from exc
    _check_package(co)
    return co


def _sections_fields(payload: dict) -> CohomologySections:
    algebra = dga_from_json(payload["algebra"])
    ring = algebra.ring
    co = CohomologySections(algebra, payload.get("seed"))
    co.h_rank = [int_from_json(x) for x in payload["h_rank"]]

    def mat(key, n, rows, cols):
        m = ExactMatrix.from_lists(ring, payload[key].get(str(n), []),
                                   shape=(rows, cols))
        if (m.rows, m.cols) != (rows, cols):
            raise DimensionMismatchError(
                f"{key}[{n}] is {m.rows}x{m.cols}, expected {rows}x{cols}")
        return m
    for n in range(algebra.top_degree + 1):
        cn = algebra.rank(n)
        co._coc_rank[n] = int_from_json(payload["coc_rank"][str(n)])
        co._coc_inv[n] = mat("coc_inv", n, cn, cn)
        z = cn - co._coc_rank[n]
        co.kernel_basis[n] = mat("kernel_basis", n, cn, z)
        b = len(payload["im_div"].get(str(n), []))
        co.image_basis[n] = mat("image_basis", n, cn, b)
        co.q[n] = mat("q", n, algebra.rank(n - 1), b)
        co._im_rows[n] = mat("im_rows", n, b, cn)
        co._im_div[n] = [ring.scalar_from_json(x)
                         for x in payload["im_div"].get(str(n), [])]
        co.s[n] = mat("s", n, cn, co.h_rank[n])
        co._class_map[n] = mat("class_map", n, co.h_rank[n], z)
    return co


def _check_package(co: CohomologySections) -> None:
    """Cheap structural identities; rejects tampered section files."""
    a = co.algebra
    for n in range(co.top + 1):
        div = co._im_div[n]
        diag = ExactMatrix(co.ring, np.diag(np.array(div, dtype=object)))
        if 0 in div or _sparse_rows_matmul(co._im_rows[n], co.image_basis[n]) != diag:
            raise SectionsFormatError(
                f"loaded im_rows[{n}] @ image_basis[{n}] is not diag(im_div[{n}]) "
                "with nonzero divisors")
        if not (a.d(n) @ co.s_matrix(n)).is_zero():
            raise NotACocycleError(f"loaded s[{n}] columns are not cocycles")
        if co.b_rank(n):
            dq = a.d(n - 1) @ co.q[n]
            if dq != co.image_basis[n]:
                raise ProductNotACoboundaryError(f"loaded q[{n}] is not a section of d")
        ps = co.pi_matrix(n) @ co.s_matrix(n)
        if ps != ExactMatrix.identity(co.ring, co.hr(n)):
            raise NotACocycleError(f"loaded package fails pi s = id in degree {n}")


def _sparse_rows_matmul(R: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """R @ B through the nonzero entries of each row of R, for a sparse R."""
    out = ExactMatrix.zeros(R.ring, R.rows, B.cols)
    for i, row in enumerate(R.data):
        nz = row.nonzero()[0]
        if len(nz):
            out.data[i] = R.ring.reduce_array(row[nz] @ B.data[nz])
    return out
