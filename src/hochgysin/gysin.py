"""Mapping cones of left multiplication and the induced module extension.

For a class c with chain representative z = s(c), the cone of
l_z : C[|c|] -> C is C + C[|c|-1] with differential
D(x, y) = (d(x) + z y, (-1)^{|c|-1} d(y)) and the diagonal right
C-action.  Its cohomology sits in the extension

    0 -> H/(cH) -> H(cone) -> Ann(c)[|c|-1] -> 0

whose class is measured against the secondary multiplication:
beta_geo(x, y) = sigma(x) y - sigma(x y), computed through the cone,
must agree with beta_theta(x, y) = theta(c, x, y) mod cH up to the
trivial shapes b(xy) - b(x) y.  Splittings are produced by solving that
same trivial-shape system for beta_geo and correcting sigma.

Everything here works at two independent levels on purpose: chain-level
cone computations (preimages solved exactly) versus H-level theta
blocks; the test suite compares them.  Multiplication by a class goes
through HRing.left_mult / right_mult, cone cohomology through the
shared complex_cohomology routine, and coordinates on Ann(c) and cone
preimages through one cached solver per degree of the extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dga import DgAlgebra, DgModule, validate_module
from .exactlin import (
    ExactMatrix, Solver, Subquotient, as_vector, complex_cohomology, kernel_basis,
    kron, solve, solve_with_certificate, vec_is_zero, zero_vector,
)
from .hochschild import HochschildCochain
from .sections import CohomologySections


@dataclass
class ConeComplex:
    """cone(l_{s(c)}) as a right dg-module over the base algebra."""

    algebra: DgAlgebra
    sections: CohomologySections
    c_degree: int
    c_coords: np.ndarray
    z: np.ndarray                  # chain representative s(c)
    module: DgModule

    def rank(self, n: int) -> int:
        return self.module.rank(n)

    def inject(self, n: int, x: np.ndarray) -> np.ndarray:
        """C^n -> cone^n, first summand."""
        out = zero_vector(self.algebra.ring, self.rank(n))
        out[:len(x)] = x
        return out

    def parts(self, n: int, v: np.ndarray):
        b = self.algebra.rank(n)
        return v[:b], v[b:]


def mapping_cone(a: DgAlgebra, c_degree: int, c_coords, co: CohomologySections,
                 check: bool = True) -> ConeComplex:
    """Build cone(l_{s(c)}); validates D^2 = 0 and the dg-module axioms."""
    ring = a.ring
    c_coords = as_vector(ring, list(c_coords))
    z = co.s_apply(c_degree, c_coords)
    lo = min(0, c_degree - 1)
    hi = a.top_degree + max(0, c_degree - 1)
    degrees = list(range(lo, hi + 1))
    ranks = {n: a.rank(n) + a.rank(n - c_degree + 1) for n in degrees}
    sign = ring.normalize(1 if (c_degree - 1) % 2 == 0 else -1)

    diff = {}
    for n in degrees:
        rows = ranks.get(n + 1, a.rank(n + 1) + a.rank(n - c_degree + 2))
        m = ExactMatrix.zeros(ring, rows, ranks[n])
        bn, bn1 = a.rank(n), a.rank(n + 1)
        sn = a.rank(n - c_degree + 1)
        # d on the first summand
        if bn and bn1:
            m.data[:bn1, :bn] = a.d(n).data
        # left multiplication by z into the first summand
        for i, j, k, cc in a.entries(c_degree, n - c_degree + 1):
            if z[i] != 0:
                m.data[k, bn + j] = ring.normalize(m.data[k, bn + j] + cc * z[i])
        # (-1)^{|c|-1} d on the shifted summand
        ds = a.d(n - c_degree + 1)
        if sn and ds.rows:
            m.data[bn1:, bn:] = (sign * ds.data)
        diff[n] = ExactMatrix(ring, ring.reduce_array(m.data))

    action = {}
    for q in range(a.top_degree + 1):
        for n in degrees:
            bn = a.rank(n)
            bt = a.rank(n + q)
            entries = list(a.entries(n, q))
            for i, j, k, cc in a.entries(n - c_degree + 1, q):
                entries.append((bn + i, j, bt + k, cc))
            if entries:
                action[(n, q)] = tuple(entries)

    module = DgModule(a, degrees, ranks, diff, action)
    cone = ConeComplex(a, co, c_degree, c_coords, z, module)
    if check:
        report = validate_module(module)
        if not report.passed:
            raise AssertionError(f"cone failed module axioms: {report.failures()}")
    return cone


@dataclass
class ConeCohomology:
    """Presented cohomology of a cone with its right H-action."""

    cone: ConeComplex
    groups: dict                  # degree -> Subquotient

    def group(self, n: int) -> Subquotient:
        if n in self.groups:
            return self.groups[n]
        return Subquotient.from_gens_rels(
            self.cone.algebra.ring, ExactMatrix.zeros(self.cone.algebra.ring, 0, 0))

    def classify(self, n: int, v: np.ndarray) -> np.ndarray:
        return self.group(n).classify(v)

    def describe(self) -> dict:
        return {str(n): self.groups[n].describe() for n in sorted(self.groups)}


def cone_cohomology(cone: ConeComplex) -> ConeCohomology:
    module = cone.module
    degrees = complex_cohomology(cone.algebra.ring, module.degrees, module.d)
    return ConeCohomology(cone, {n: g.group() for n, g in degrees.items()})


# ---------------------------------------------------------------------------
# The extension and its two beta cochains
# ---------------------------------------------------------------------------

@dataclass
class GysinExtension:
    algebra: DgAlgebra
    sections: CohomologySections
    c_degree: int
    c_coords: np.ndarray
    cone: ConeComplex
    cone_h: ConeCohomology
    kernel: dict                  # H-degree n -> Subquotient H^n/(c H^{n-|c|})
    ann_basis: dict               # H-degree m -> ExactMatrix (h_m x ann rank)
    sigma_chain: dict             # m -> ExactMatrix (cone^{m+|c|-1} x ann rank)
    beta_geo: dict = field(default_factory=dict)   # (m, q) -> ExactMatrix
    _solvers: dict = field(default_factory=dict, repr=False)

    def ann_rank(self, m: int) -> int:
        return self.ann_basis[m].cols if m in self.ann_basis else 0

    def _solver(self, key, matrix) -> Solver:
        """One solver per system; matrix() builds it on first use."""
        if key not in self._solvers:
            self._solvers[key] = Solver(matrix())
        return self._solvers[key]

    def ann_coords(self, m: int, v: np.ndarray):
        """Coordinates of v in H^m on the Ann(c) basis, or None outside Ann(c).

        The basis has full column rank, so the coordinates are unique.
        """
        return self._solver(("ann", m), lambda: self.ann_basis[m]).solve(v)

    def target_degree(self, m: int, q: int) -> int:
        return m + q + self.c_degree - 1

    def describe(self) -> dict:
        h = self.sections
        return {
            "c_degree": self.c_degree,
            "c": [h.ring.scalar_to_json(x) for x in self.c_coords],
            "kernel": {str(n): g.describe() for n, g in sorted(self.kernel.items())},
            "cone_cohomology": self.cone_h.describe(),
            "annihilator_ranks": {str(m): self.ann_rank(m)
                                  for m in sorted(self.ann_basis)},
        }


def _annihilator_bases(co: CohomologySections, c_degree: int, c_coords):
    """Per degree m, a basis of Ann(c) in H^m = kernel of left multiplication."""
    h = co.h()
    return {m: kernel_basis(h.left_mult(c_degree, c_coords, m))
            for m in range(h.top + 1) if h.rank(m)}


def _kernel_groups(co: CohomologySections, c_degree: int, c_coords):
    """Per degree n, the subquotient H^n/(c H^{n - |c|})."""
    h = co.h()
    return {n: Subquotient.from_gens_rels(h.ring, ExactMatrix.identity(h.ring, h.rank(n)),
                                          h.left_mult(c_degree, c_coords, n - c_degree))
            for n in range(h.top + 1)}


def gysin_extension(a: DgAlgebra, c_degree: int, c_coords,
                    co: CohomologySections) -> GysinExtension:
    """The extension data for c: cone, kernel/annihilator, sigma, beta_geo."""
    ring = a.ring
    c_coords = as_vector(ring, list(c_coords))
    cone = mapping_cone(a, c_degree, c_coords, co)
    cone_h = cone_cohomology(cone)
    kernel = _kernel_groups(co, c_degree, c_coords)
    ann = _annihilator_bases(co, c_degree, c_coords)

    # sigma(x) = class of (-q(c, x), s(x)) at cone degree m + |c| - 1
    c_col = ExactMatrix.from_columns(ring, [c_coords], nrows=len(c_coords))
    sigma_chain = {m: ExactMatrix(ring, np.vstack([
        (-(co.qpair_block(c_degree, m) @ kron(c_col, basis))).data,
        (co.s_matrix(m) @ basis).data])) for m, basis in ann.items()}

    ext = GysinExtension(a, co, c_degree, c_coords, cone, cone_h, kernel, ann,
                         sigma_chain)
    ext.beta_geo = _compute_beta_geo(ext)
    return ext


def _cone_class_preimage(ext: GysinExtension, n: int, w: np.ndarray) -> np.ndarray:
    """h in H^n with [(s(h), 0)] = [w] in H^n(cone); defined mod c H^{n-|c|}.

    Solves (s(h), 0) - w = D(omega) exactly; exactness of the extension
    guarantees a solution whenever the projection of [w] vanishes.
    """
    co = ext.sections
    hn = co.hr(n)
    cone = ext.cone

    def system():
        s_cols = [cone.inject(n, co.s_matrix(n).column(j)) for j in range(hn)]
        s_block = ExactMatrix.from_columns(co.ring, s_cols, nrows=cone.rank(n))
        return s_block.hstack(cone.module.d(n - 1))
    sol = ext._solver(("preimage", n), system).solve(w)
    if sol is None:
        raise AssertionError("cone class has no preimage in H; exactness broken?")
    return sol[:hn]


def _through_ann(ext: GysinExtension, maps: dict, m: int, v: np.ndarray,
                 size: int) -> np.ndarray:
    """maps[m] applied to the Ann(c) coordinates of v in H^m; the zero
    vector of length size when H^m has no Ann(c) basis."""
    if m not in ext.ann_basis:
        return zero_vector(ext.sections.ring, size)
    coords = ext.ann_coords(m, v)
    if coords is None:
        raise AssertionError("Ann(c) is not closed under the action")
    return maps[m].matvec(coords)


def _beta_blocks(ext: GysinExtension, values) -> dict:
    """{(m, q): matrix} of a bilinear beta: Ann(c)^m x H^q -> H/(cH).

    Column jx * h_q + jy classifies in H^{m+q+|c|-1}/(cH) the jy-th of the
    ambient vectors values(m, q, jx) returns for the jx-th Ann(c) basis
    vector x and the basis classes y = e_jy of H^q.
    """
    h = ext.sections.h()
    out = {}
    for m, basis in ext.ann_basis.items():
        if basis.cols == 0:
            continue
        for q in range(h.top + 1):
            nprime = ext.target_degree(m, q)
            ktarget = ext.kernel.get(nprime)
            if h.rank(q) == 0 or ktarget is None or h.rank(nprime) == 0:
                continue
            cols = [ktarget.classify(v) for jx in range(basis.cols)
                    for v in values(m, q, jx)]
            out[(m, q)] = ExactMatrix.from_columns(
                h.ring, cols, nrows=len(ktarget.orders))
    return out


def _compute_beta_geo(ext: GysinExtension) -> dict:
    """beta_geo(x, y) = sigma(x) y - sigma(x y), classified in H/(cH)."""
    co = ext.sections
    h = co.h()
    ring = h.ring
    cone = ext.cone

    def values(m, q, jx):
        ncone = m + ext.c_degree - 1
        nprime = ext.target_degree(m, q)
        sigma_x = ext.sigma_chain[m].column(jx)
        x_times = h.left_mult(m, ext.ann_basis[m].column(jx), q)
        s_q = co.s_matrix(q)
        out = []
        for jy in range(h.rank(q)):
            prod = cone.module.act(ncone, q, sigma_x, s_q.column(jy))
            sig_xy = _through_ann(ext, ext.sigma_chain, m + q, x_times.column(jy),
                                  cone.rank(nprime))
            out.append(_cone_class_preimage(ext, nprime, ring.reduce_array(prod - sig_xy)))
        return out
    return _beta_blocks(ext, values)


def beta_from_theta(th: HochschildCochain, ext: GysinExtension) -> dict:
    """beta_theta(x, y) = theta(c, x, y) mod cH on the same block layout."""
    h = ext.sections.h()

    def values(m, q, jx):
        x = ext.ann_basis[m].column(jx)
        ident = ExactMatrix.identity(h.ring, h.rank(q))
        return [th.value((ext.c_degree, m, q), [ext.c_coords, x, ident.column(jy)])
                for jy in range(h.rank(q))]
    return _beta_blocks(ext, values)


# ---------------------------------------------------------------------------
# Trivial-shape solver: beta(x, y) = b(x y) - b(x) y in H/(cH)
# ---------------------------------------------------------------------------

def _solve_trivial_shape(ext: GysinExtension, beta: dict):
    """Linear b: Ann(c) -> H/(cH), degree |c| - 1, with b(xy) - b(x)y = beta.

    Unknowns are ambient H-coordinates of b on each Ann basis vector plus
    slack coefficients absorbing the cH ambiguity per equation block.
    Returns (b_blocks, None) or (None, certificate).
    """
    h = ext.sections.h()
    ring = h.ring
    shift = ext.c_degree - 1
    offsets = {}                            # m -> (first column, rank, h rank)
    total = 0
    for m in sorted(ext.ann_basis):
        r = ext.ann_rank(m)
        ht = h.rank(m + shift)
        offsets[m] = (total, r, ht)
        total += r * ht

    equations = []                          # (unknown part, cH relations, rhs)
    for (m, q), block in sorted(beta.items()):
        ktarget = ext.kernel[ext.target_degree(m, q)]
        rels = ktarget.relations            # ambient columns spanning cH
        hn = rels.rows
        hq = h.rank(q)
        ident_n = ExactMatrix.identity(ring, hn)
        ident_q = ExactMatrix.identity(ring, hq)
        for jx in range(ext.ann_rank(m)):
            x_times = h.left_mult(m, ext.ann_basis[m].column(jx), q)
            for jy in range(hq):
                eq = ExactMatrix.zeros(ring, hn, total)
                # + b(xy): unknown block at degree m + q
                if (m + q) in offsets:
                    off, r2, _ = offsets[m + q]
                    xy_ann = ext.ann_coords(m + q, x_times.column(jy))
                    eq.data[:, off:off + r2 * hn] = \
                        kron(ExactMatrix.from_rows(ring, [xy_ann]), ident_n).data
                # - b(x) y: right multiplication of the degree-(m+shift) unknown by e_y
                if m in offsets:
                    off, _, ht1 = offsets[m]
                    cols = slice(off + jx * ht1, off + (jx + 1) * ht1)
                    eq.data[:, cols] = ring.reduce_array(
                        eq.data[:, cols] - h.right_mult(m + shift, q, ident_q.column(jy)).data)
                equations.append((eq, rels, ktarget.lift(block.column(jx * hq + jy))))

    x = zero_vector(ring, total)
    if equations:
        # slack columns - rels * t, one block per equation (working modulo cH)
        nrows = sum(eq.rows for eq, _, _ in equations)
        system = ExactMatrix.zeros(ring, nrows,
                                   total + sum(r.cols for _, r, _ in equations))
        rhs = zero_vector(ring, nrows)
        row0 = 0
        col0 = total
        for eq, rels, beta_amb in equations:
            rows = slice(row0, row0 + eq.rows)
            system.data[rows, :total] = eq.data
            system.data[rows, col0:col0 + rels.cols] = (-rels).data
            rhs[rows] = beta_amb
            row0 += eq.rows
            col0 += rels.cols
        x, cert = solve_with_certificate(system, rhs)
        if x is None:
            return None, cert
    return {m: ExactMatrix(ring, x[off:off + r * ht].reshape(r, ht).T.copy())
            for m, (off, r, ht) in offsets.items()}, None


def _beta_difference(ext: GysinExtension, b1: dict, b2: dict) -> dict:
    ring = ext.sections.ring
    out = {}
    for key in set(b1) | set(b2):
        m, q = key
        kt = ext.kernel[ext.target_degree(m, q)]
        rows = len(kt.orders)
        cols = ext.ann_rank(m) * ext.sections.h().rank(q)
        a1 = b1.get(key, ExactMatrix.zeros(ring, rows, cols))
        a2 = b2.get(key, ExactMatrix.zeros(ring, rows, cols))
        diff = a1 - a2
        # classified coordinates live modulo the torsion orders
        for i, d in enumerate(kt.orders):
            if d != 0 and ring.tag == "Z":
                diff.data[i, :] = diff.data[i, :] % d
        out[key] = diff
    return out


def verify_theorem_th(a: DgAlgebra, c_degree: int, c_coords,
                      co: CohomologySections, th: HochschildCochain = None,
                      ext: GysinExtension = None):
    """Check that the extension class equals the image of [theta].

    Returns (True, witness b) when beta_geo - beta_theta has the trivial
    shape b(xy) - b(x) y, else (False, certificate).
    """
    from .hochschild import theta as theta_op
    if ext is None:
        ext = gysin_extension(a, c_degree, c_coords, co)
    if th is None:
        th = theta_op(co)
    bt = beta_from_theta(th, ext)
    diff = _beta_difference(ext, ext.beta_geo, bt)
    b, cert = _solve_trivial_shape(ext, diff)
    if b is None:
        return False, cert
    return True, b


@dataclass
class SplitSection:
    """A module-linear splitting of the extension."""

    b: dict                        # m -> ExactMatrix (H^{m+|c|-1} x ann rank)
    sigma_tilde_chain: dict        # m -> ExactMatrix (cone^{m+|c|-1} x ann rank)
    sigma_tilde_class: dict        # m -> ExactMatrix (cone gens x ann rank)


def split_extension(ext: GysinExtension, theta_witness: HochschildCochain = None):
    """Module-linear section of H(cone) ->> Ann(c)[|c|-1], or a certificate.

    When a trivialization of theta is supplied, b0(x) = witness(c, x)
    seeds the solve (the system is solved for the correction only).
    """
    co = ext.sections
    h = co.h()
    ring = h.ring
    shift = ext.c_degree - 1

    seed_blocks = None
    if theta_witness is not None:
        c_col = ExactMatrix.from_columns(ring, [ext.c_coords], nrows=len(ext.c_coords))
        seed_blocks = {m: theta_witness.block_or_zero((ext.c_degree, m)) @ kron(c_col, basis)
                       for m, basis in ext.ann_basis.items()}

    target = ext.beta_geo
    if seed_blocks is not None:
        target = _beta_difference(ext, ext.beta_geo,
                                  _trivial_shape_beta(ext, seed_blocks))
    b_corr, cert = _solve_trivial_shape(ext, target)
    if b_corr is None:
        return None, cert
    b = b_corr
    if seed_blocks is not None:
        b = {m: seed_blocks[m] + b_corr[m] for m in b_corr}

    # sigma_tilde(x) = sigma(x) + iota(b(x)); verify and classify
    chain = {}
    cls = {}
    for m, basis in ext.ann_basis.items():
        n = m + shift
        corr = ExactMatrix.zeros(ring, ext.cone.rank(n), basis.cols)
        corr.data[:co.algebra.rank(n)] = (co.s_matrix(n) @ b[m]).data
        chain[m] = ext.sigma_chain[m] + corr
        cls[m] = ExactMatrix.from_columns(
            ring, [ext.cone_h.classify(n, chain[m].column(j)) for j in range(basis.cols)],
            nrows=len(ext.cone_h.group(n).orders))
    section = SplitSection(b, chain, cls)
    _verify_split(ext, section)
    return section, None


def _trivial_shape_beta(ext: GysinExtension, b: dict) -> dict:
    """The beta blocks b(xy) - b(x) y, classified like beta_geo."""
    h = ext.sections.h()
    ring = h.ring
    shift = ext.c_degree - 1

    def values(m, q, jx):
        x_times = h.left_mult(m, ext.ann_basis[m].column(jx), q)
        b_times = h.left_mult(m + shift, b[m].column(jx), q)
        out = []
        for jy in range(h.rank(q)):
            bxy = _through_ann(ext, b, m + q, x_times.column(jy),
                               h.rank(ext.target_degree(m, q)))
            out.append(ring.reduce_array(bxy - b_times.column(jy)))
        return out
    return _beta_blocks(ext, values)


def _verify_split(ext: GysinExtension, section: SplitSection) -> None:
    """projection o sigma_tilde = id and H-linearity, by multiplication."""
    co = ext.sections
    h = co.h()
    cone = ext.cone
    for m, basis in ext.ann_basis.items():
        n = m + ext.c_degree - 1
        if not _projects_to_ann(ext, m, section.sigma_tilde_chain[m]):
            raise AssertionError("sigma_tilde is not a section of the projection")
        for jx in range(basis.cols):
            w = section.sigma_tilde_chain[m].column(jx)
            # H-linearity at class level: sigma~(x h) = sigma~(x) h
            for q in range(h.top + 1):
                hq = h.rank(q)
                if hq == 0:
                    continue
                nt = n + q
                s_q = co.s_matrix(q)
                x_times = h.left_mult(m, basis.column(jx), q)
                for jy in range(hq):
                    lhs = ext.cone_h.classify(
                        nt, cone.module.act(n, q, w, s_q.column(jy)))
                    rhs = ext.cone_h.classify(nt, _through_ann(
                        ext, section.sigma_tilde_chain, m + q, x_times.column(jy),
                        cone.rank(nt)))
                    if any(u != v for u, v in zip(lhs, rhs)):
                        raise AssertionError(
                            f"sigma_tilde is not H-linear at degrees ({m},{q})")


# ---------------------------------------------------------------------------
# Exactness checks for the extension (rank and membership style)
# ---------------------------------------------------------------------------

def check_extension_exactness(ext: GysinExtension) -> dict:
    """Per cone degree: injectivity, kernel-image agreement, surjectivity."""
    co = ext.sections
    ring = co.ring
    cone = ext.cone
    results = {}
    for n in cone.module.degrees:
        nh = ext.cone_h.group(n)
        kq = ext.kernel.get(n)
        m = n - ext.c_degree + 1
        ann = ext.ann_basis.get(m)
        # iota on kernel generators, classified in H^n(cone)
        gens = kq.reduced_gens if kq is not None else ExactMatrix.zeros(ring, 0, 0)
        iota = ExactMatrix.from_columns(
            ring, [nh.classify(cone.inject(n, co.s_apply(n, gens.column(j))))
                   for j in range(gens.cols)], nrows=len(nh.orders))
        rels = _order_relations(ring, nh.orders)
        entry = {}
        entry["iota_injective"] = kq is None or not len(kq.orders) or \
            _presented_map_injective(iota, rels, _order_relations(ring, kq.orders))
        # image of iota = kernel of projection, and projection surjective
        entry["exact_at_middle"] = _exactness_at_middle(ext, n, iota, rels)
        # sigma supplies a preimage of every Ann(c) basis vector
        entry["proj_surjective"] = ann is None or ann.cols == 0 or \
            _projects_to_ann(ext, m, ext.sigma_chain[m])
        results[n] = entry
    return results


def _order_relations(ring, orders) -> ExactMatrix:
    """Columns d_j e_j, one per nonzero order d_j of a presented group."""
    cols = []
    for j, d in enumerate(orders):
        if d != 0:
            col = zero_vector(ring, len(orders))
            col[j] = ring.normalize(d)
            cols.append(col)
    return ExactMatrix.from_columns(ring, cols, nrows=len(orders))


def _presented_map_injective(f: ExactMatrix, dst_rels: ExactMatrix,
                             src_rels: ExactMatrix) -> bool:
    """Injectivity of a map between presented groups given on generators."""
    big = f.hstack(dst_rels) if dst_rels.cols else f
    kern = kernel_basis(big)
    for j in range(kern.cols):
        xpart = kern.column(j)[:f.cols]
        if vec_is_zero(xpart):
            continue
        if solve(src_rels, xpart) is None:
            return False
    return True


def _exactness_at_middle(ext: GysinExtension, n: int, iota: ExactMatrix,
                         rels: ExactMatrix) -> bool:
    """ker(proj) = im(iota) inside H^n(cone), presented with relations rels."""
    co = ext.sections
    ring = co.ring
    cone = ext.cone
    nh = ext.cone_h.group(n)
    if not len(nh.orders):
        return True
    m = n - ext.c_degree + 1
    ann = ext.ann_basis.get(m)
    # projection matrix on generators (free target: Ann coordinates)
    pcols = []
    for j in range(nh.reduced_gens.cols):
        g = nh.reduced_gens.column(j)
        xpart, ypart = cone.parts(n, g)
        proj = co.pi(m, ypart) if 0 <= m <= co.top else \
            zero_vector(ring, 0)
        if ann is None or ann.cols == 0:
            if not vec_is_zero(proj):
                return False
            pcols.append(zero_vector(ring, 0))
        else:
            coords = ext.ann_coords(m, proj)
            if coords is None:
                return False          # projection landed outside Ann(c)
            pcols.append(coords)
    if ann is None or ann.cols == 0:
        pker = ExactMatrix.identity(ring, len(nh.orders))
    else:
        pmat = ExactMatrix.from_columns(ring, pcols, nrows=ann.cols)
        pker = kernel_basis(pmat)
    span = iota.hstack(rels) if rels.cols else iota
    for j in range(pker.cols):
        if solve(span, pker.column(j)) is None:
            return False
    return True


def _projects_to_ann(ext: GysinExtension, m: int, chains: ExactMatrix) -> bool:
    """Column j of chains (in cone^{m+|c|-1}) projects to the j-th Ann(c)
    basis vector of H^m."""
    ann = ext.ann_basis[m]
    n = m + ext.c_degree - 1
    for j in range(ann.cols):
        _, ypart = ext.cone.parts(n, chains.column(j))
        proj = ext.sections.pi(m, ypart)
        if any(u != v for u, v in zip(proj, ann.column(j))):
            return False
    return True
