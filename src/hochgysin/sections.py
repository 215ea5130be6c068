"""Cohomology of a dg-algebra with a chosen splitting package.

From the Smith normal forms of the differentials, which the package
keeps, we extract per degree: a basis of cocycles, a basis of
coboundaries, a basis of cohomology with chosen cocycle representatives
s, a section q of d onto its image, and the class projection pi.  pi,
q_of and image_coords take a matrix of columns (a vector is its
one-column case) and re-verify what they return; image_coords
back-substitutes through the SNF of d^{n-1}, as Solver does.  The
decomposition requires H to be projective over the coefficient ring:
over Z, torsion in any degree is a hard error.

The canonical (seedless) package is fully determined by the fixed pivot
rule.  A seed perturbs s by coboundaries and q by cocycle-valued
corrections, which is exactly the freedom the constructions downstream
must not depend on.  s(1) = 1 is enforced: the unit class is rotated to
the first basis vector of H^0 and its representative is the unit cochain
itself (degree 0 admits no coboundaries, so seeding preserves this).

A serialized package is {"algebra", "seed", "s", "q"}, the choice only.
Loading rebuilds everything else from the algebra by the same pivot rule
and checks the stored s and q against it: d s = 0, d q = image_basis and
pi s = id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dga import DgAlgebra, dga_from_json, dga_to_json
from .exactlin import (
    DimensionMismatchError, ExactMatrix, Ring, Subquotient, as_columns, complex_cohomology,
    divide_rows, int_from_json, kron, shaped_like, smith_normal_form, vec_is_zero,
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
        self._d_snf: dict = {}         # n -> SNF of d^n : C^n -> C^{n+1}
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
        if not (self.algebra.d(n) @ W).is_zero():
            raise NotACocycleError(f"vector in degree {n} is not a cocycle")
        return shaped_like(V, self.pi_matrix(n) @ W)

    def pi_matrix(self, n: int) -> ExactMatrix:
        """h_n x C^n matrix computing pi; only meaningful on cocycles."""
        if n in self._pi_mat:
            return self._pi_mat[n]
        return ExactMatrix.zeros(self.ring, self.hr(n), self.algebra.rank(n))

    def s_matrix(self, n: int) -> ExactMatrix:
        if n in self.s:
            return self.s[n]
        return ExactMatrix.zeros(self.ring, self.algebra.rank(n), self.hr(n))

    def image_coords(self, n: int, W):
        """Coordinates on image_basis[n] of the columns of W (or of one
        vector); ProductNotACoboundaryError unless each is a coboundary."""
        Wm = as_columns(self.ring, W)
        prev = self._d_snf.get(n - 1)     # B^0 = 0: no rows divide
        Y, bad = (divide_rows(Wm, []) if prev is None
                  else divide_rows(prev.lmul("U", Wm), prev.divisors))
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
        co.kernel_basis[n] = g.kernel
        co.image_basis[n] = g.image
        co._d_snf[n] = g.snf
        prev = g.prev
        co.q[n] = (ExactMatrix.zeros(ring, 0, 0) if prev is None
                   else prev.take_columns("V", range(prev.rank)))
        # coboundaries in kernel coordinates
        z = co.z_rank(n)
        r = g.snf.rank
        full = g.snf.lmul("Vinv", co.image_basis[n])
        if not full.take_rows(range(r)).is_zero():
            raise AssertionError("image not contained in kernel: d^2 != 0?")
        x = full.take_rows(range(r, full.rows))
        sx = smith_normal_form(x)
        torsion = [d for d in sx.divisors if not ring.is_unit(d)]
        if torsion:
            raise TorsionHomologyError(n, torsion)
        co.h_rank.append(z - sx.rank)
        co.s[n] = sx.rmul(co.kernel_basis[n], "Uinv").take_columns(range(sx.rank, z))
        # the kernel coordinates of a cocycle are the last rows of Vinv of
        # SNF(d^n) applied to it; the last rows of U of sx take them to H^n
        co._pi_mat[n] = (sx.take_rows("U", range(sx.rank, z))
                         @ g.snf.take_rows("Vinv", range(r, a.rank(n))))

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
    # U takes u_cls to its divisor, a unit made 1 by the SNF's canonical_unit
    co._pi_mat[0] = s.U @ co._pi_mat[0]
    # s gets the inverse recombination; then the unit column is pinned to 1
    co.s[0] = co.s[0] @ s.Uinv
    co.s[0].data[:, 0] = co.algebra.unit


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
    return {"algebra": dga_to_json(co.algebra), "seed": co.seed,
            "s": mats(co.s), "q": mats(co.q)}


def sections_from_json(payload: dict) -> CohomologySections:
    """The stored choice (s, q) over the data the fixed pivot rule derives from
    the stored algebra, which is taken as given (the CLI validates it first)."""
    extra = sorted(set(payload) - {"algebra", "seed", "s", "q"})
    if extra:
        raise SectionsFormatError(
            f"section package has unknown keys {extra}; it holds only algebra, seed, s, q")
    try:
        seed = payload["seed"]
        if seed is not None:
            int_from_json(seed)
        co = build_sections(dga_from_json(payload["algebra"]))
        co.seed = seed
        a = co.algebra

        def mat(key, n, rows, cols):
            m = ExactMatrix.from_lists(co.ring, payload[key].get(str(n), []),
                                       shape=(rows, cols))
            if (m.rows, m.cols) != (rows, cols):
                raise DimensionMismatchError(
                    f"{key}[{n}] is {m.rows}x{m.cols}, expected {rows}x{cols}")
            return m
        for n in range(a.top_degree + 1):
            co.s[n] = mat("s", n, a.rank(n), co.hr(n))
            co.q[n] = mat("q", n, a.rank(n - 1), co.b_rank(n))
    except (KeyError, ValueError, TypeError, IndexError, AttributeError,
            DimensionMismatchError) as exc:
        raise SectionsFormatError(f"malformed section package: {exc}") from exc
    _check_package(co)
    return co


def _check_package(co: CohomologySections) -> None:
    """The loaded s and q against the recomputed data; rejects tampered files."""
    a = co.algebra
    for n in range(co.top + 1):
        if not (a.d(n) @ co.s_matrix(n)).is_zero():
            raise NotACocycleError(f"loaded s[{n}] columns are not cocycles")
        if co.b_rank(n) and a.d(n - 1) @ co.q[n] != co.image_basis[n]:
            raise ProductNotACoboundaryError(f"loaded q[{n}] is not a section of d")
        ps = co.pi_matrix(n) @ co.s_matrix(n)
        if ps != ExactMatrix.identity(co.ring, co.hr(n)):
            raise NotACocycleError(f"loaded package fails pi s = id in degree {n}")

