import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hochgysin.dga import cochain_algebra, load_dga, validate_module
from hochgysin.exactlin import (
    GF, QQ, ZZ, ExactMatrix, as_vector, ring_from_name, smith_normal_form, zero_vector,
)
from hochgysin.gysin import (
    beta_from_theta, check_extension_exactness, cone_cohomology, gysin_extension,
    mapping_cone, split_extension, verify_theorem_th,
)
from hochgysin.hochschild import (
    TwistedBimodule, admissible_tuples, coboundary, theta, trivialize, zero_cochain,
)
from hochgysin.sections import build_sections
from hochgysin.simplicial import build_circle, build_sphere, build_torus, product
from oracles import cochain_value, h_multiply

FIXTURE = Path(__file__).parent.parent / "src" / "hochgysin" / "fixtures" / \
    "massey_fixture.dga.json"


@pytest.fixture(scope="module")
def torus2():
    a = cochain_algebra(build_torus(2), ZZ)
    return a, build_sections(a)


@pytest.fixture(scope="module")
def sphere2():
    a = cochain_algebra(build_sphere(2), ZZ)
    return a, build_sections(a)


@pytest.fixture(scope="module")
def heis():
    a = load_dga(FIXTURE)
    return a, build_sections(a)


def cone_homology_oracle(cone):
    """Invariant factors of H^n(cone) straight from SNF of the D matrices."""
    out = {}
    module = cone.module
    for n in module.degrees:
        rank_d = smith_normal_form(module.d(n)).rank
        s_prev = smith_normal_form(module.d(n - 1)) if (n - 1) in module.diff \
            else None
        rank_prev = s_prev.rank if s_prev else 0
        free = module.rank(n) - rank_d - rank_prev
        torsion = [d for d in (s_prev.divisors if s_prev else [])
                   if not ZZ.is_unit(d)]
        out[n] = (free, torsion)
    return out


def test_cone_zero_class_block_diagonal(sphere2):
    a, co = sphere2
    cone = mapping_cone(a, 2, [0], co)
    ch = cone_cohomology(cone)
    # cohomology of C + C[1]: H^n(cone) = H^n + H^{n-1} = (1, 1, 1, 1)
    expect = {0: 1, 1: 1, 2: 1, 3: 1}
    for n, want in expect.items():
        assert ch.group(n).free_rank == want
        assert ch.group(n).torsion == []


def test_cone_unit_class_acyclic(torus2):
    a, co = torus2
    cone = mapping_cone(a, 0, [1], co)
    ch = cone_cohomology(cone)
    for n in cone.module.degrees:
        assert ch.group(n).free_rank == 0 and ch.group(n).torsion == [], n


def test_cone_d_squared_and_module_axioms(torus2):
    a, co = torus2
    cone = mapping_cone(a, 2, [1], co)     # validates internally
    for n in cone.module.degrees:
        assert (cone.module.d(n + 1) @ cone.module.d(n)).is_zero()
    assert validate_module(cone.module).passed


@pytest.mark.parametrize("k", [1, 2, 3])
def test_torus2_cone_cohomology_heisenberg(torus2, k):
    a, co = torus2
    cone = mapping_cone(a, 2, [k], co)
    ch = cone_cohomology(cone)
    expected = {0: (1, []), 1: (2, []), 2: (2, [] if k == 1 else [k]), 3: (1, [])}
    for n, (free, torsion) in expected.items():
        assert ch.group(n).free_rank == free, (n, k)
        assert ch.group(n).torsion == torsion, (n, k)
    # independent oracle straight from the D matrices
    assert {n: (ch.group(n).free_rank, ch.group(n).torsion)
            for n in expected} == {n: v for n, v in cone_homology_oracle(cone).items()
                                   if n in expected}


def test_hopf_cone_is_three_sphere(sphere2):
    a, co = sphere2
    ch = cone_cohomology(mapping_cone(a, 2, [1], co))
    got = {n: ch.group(n).free_rank for n in (0, 1, 2, 3)}
    assert got == {0: 1, 1: 0, 2: 0, 3: 1}


def test_extension_exactness_sphere_torus_fixture(sphere2, torus2, heis):
    for (a, co), c_deg, c in ((sphere2, 2, [1]), (torus2, 2, [2]),
                              (heis, 1, [0, 1])):
        ext = gysin_extension(a, c_deg, c, co)
        results = check_extension_exactness(ext)
        for n, entry in results.items():
            assert all(entry.values()), (c_deg, c, n, entry)


def test_extension_exactness_over_f2(torus2):
    a2 = cochain_algebra(build_torus(2), GF(2))
    co2 = build_sections(a2)
    ext = gysin_extension(a2, 2, [1], co2)
    for entry in check_extension_exactness(ext).values():
        assert all(entry.values())


def test_unit_class_extension_trivial(torus2):
    a, co = torus2
    ext = gysin_extension(a, 0, [1], co)
    assert all(r == 0 for r in (ext.ann_rank(m) for m in ext.ann_basis))
    assert all(len(g.orders) == 0 for g in ext.kernel.values())
    sec, cert = split_extension(ext)
    assert sec is not None            # vacuously split


def test_sphere_annihilator_shape(sphere2):
    a, co = sphere2
    ext = gysin_extension(a, 2, [1], co)
    # Ann(c) = H^2 (top class annihilates by truncation); H^0 part is free on c
    assert ext.ann_rank(0) == 0 and ext.ann_rank(2) == 1
    assert ext.kernel[2].describe() == {"free_rank": 0, "torsion": []}


def test_beta_geo_satisfies_extension_cocycle_law(torus2):
    # beta(n, xy) = beta(nx, y) + beta(n, x) y, on random classes
    a, co = torus2
    h = co.h()
    ext = gysin_extension(a, 1, [1, 0], co)   # odd-degree c keeps all degrees small
    rng = random.Random(7)

    def beta(m, x_ann_coords, q, y):
        block = ext.beta_geo.get((m, q))
        kq = ext.kernel[ext.target_degree(m, q)]
        if block is None:
            return zero_vector(ZZ, len(kq.orders))
        hq = h.rank(q)
        acc = zero_vector(ZZ, len(kq.orders))
        for jx in range(len(x_ann_coords)):
            for jy in range(hq):
                if x_ann_coords[jx] != 0 and y[jy] != 0:
                    acc = acc + x_ann_coords[jx] * y[jy] * \
                        block.column(jx * hq + jy)
        return kq.classify(kq.reduced_gens.matvec(acc))

    checked = 0
    for _ in range(20):
        m = rng.choice([mm for mm in ext.ann_basis if ext.ann_rank(mm)])
        basis = ext.ann_basis[m]
        nc = as_vector(ZZ, [rng.randint(-2, 2) for _ in range(basis.cols)])
        for qx in (0, 1):
            for qy in (0, 1):
                if ext.target_degree(m, qx + qy) not in ext.kernel or \
                        (m + qx) not in ext.ann_basis:
                    continue
                x = as_vector(ZZ, [rng.randint(-2, 2) for _ in range(h.rank(qx))])
                y = as_vector(ZZ, [rng.randint(-2, 2) for _ in range(h.rank(qy))])
                xy = h_multiply(h, qx, qy, x, y)
                lhs = beta(m, nc, qx + qy, xy)
                # nx in Ann coordinates
                from hochgysin.exactlin import solve
                namb = basis.matvec(nc)
                nx = h_multiply(h, m, qx, namb, x)
                nx_ann = solve(ext.ann_basis[m + qx], nx)
                t1 = beta(m + qx, nx_ann, qy, y)
                bny = beta(m, nc, qx, x)
                kq1 = ext.kernel[ext.target_degree(m, qx)]
                amb = kq1.reduced_gens.matvec(bny)
                ractd = h_multiply(h, ext.target_degree(m, qx), qy, amb, y)
                kq2 = ext.kernel[ext.target_degree(m, qx + qy)]
                t2 = kq2.classify(ractd)
                rhs = kq2.classify(kq2.reduced_gens.matvec(t1 + t2))
                assert list(lhs) == list(rhs)
                checked += 1
    assert checked >= 30


def test_beta_from_coboundary_has_trivial_shape(torus2):
    # theta = delta a  =>  beta_theta(x, y) = b(xy) - b(x) y with b(x) = a(c, x)
    a, co = torus2
    h = co.h()
    M = TwistedBimodule(h)
    rng = random.Random(31)
    ext = gysin_extension(a, 2, [1], co)
    acochain = zero_cochain(h, 2, -1)
    for tup in admissible_tuples(h, 2, -1):
        rows, cols = acochain.shape(tup)
        acochain.set_block(tup, ExactMatrix.from_rows(
            ZZ, [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]))
    th = coboundary(acochain, M)
    bt = beta_from_theta(th, ext)
    from hochgysin.gysin import _solve_trivial_shape
    b, cert = _solve_trivial_shape(ext, bt)
    assert cert is None and b is not None
    # and the specific b(x) = a(c, x) works: check one block directly
    for (m, q), block in bt.items():
        kq = ext.kernel[ext.target_degree(m, q)]
        hq = h.rank(q)
        for jx in range(ext.ann_rank(m)):
            x = ext.ann_basis[m].column(jx)
            bx = cochain_value(acochain, (2, m), [as_vector(ZZ, [1]), x])
            for jy in range(hq):
                y = zero_vector(ZZ, hq)
                y[jy] = 1
                xy = h_multiply(h, m, q, x, y)
                bxy = cochain_value(acochain, (2, m + q), [as_vector(ZZ, [1]), xy])
                expected = bxy - h_multiply(h, m + 1, q, bx, y)
                got = kq.reduced_gens.matvec(block.column(jx * hq + jy))
                assert list(kq.classify(expected)) == list(kq.classify(got))


def test_theorem_th_sphere(sphere2):
    a, co = sphere2
    ok, witness = verify_theorem_th(a, 2, [1], co)
    assert ok


@pytest.mark.parametrize("k", [1, 2, 3])
def test_theorem_th_torus2(torus2, k):
    a, co = torus2
    ok, witness = verify_theorem_th(a, 2, [k], co)
    assert ok


def test_theorem_th_fixture_odd_degree(heis):
    a, co = heis
    ok, witness = verify_theorem_th(a, 1, [0, 1], co)
    assert ok


@pytest.mark.parametrize("k", [1, 2, 3])
def test_split_extension_torus2(torus2, k):
    a, co = torus2
    th = theta(co)
    w, cert = trivialize(th, TwistedBimodule(co.h()))
    assert w is not None
    ext = gysin_extension(a, 2, [k], co)
    sec, cert = split_extension(ext, theta_witness=w)
    assert sec is not None            # _verify_split ran inside
    sec2, cert2 = split_extension(ext)
    assert sec2 is not None


def test_fixture_split_fails_and_matches_trivialize(heis):
    # trivialize fails on the fixture and the c = [e1] extension is non-split:
    # the two negative verdicts must agree through independent code paths
    a, co = heis
    th = theta(co)
    w, cert = trivialize(th, TwistedBimodule(co.h()))
    assert w is None and cert is not None
    ext = gysin_extension(a, 1, [0, 1], co)
    sec, scert = split_extension(ext)
    assert sec is None and scert is not None
    # the beta_theta route agrees with the beta_geo route in the negative
    from hochgysin.gysin import _solve_trivial_shape
    bt = beta_from_theta(th, ext)
    b, bcert = _solve_trivial_shape(ext, bt)
    assert b is None


def test_fixture_other_c_split(heis):
    # c = [e2] ([1,0] in the canonical H^1 basis): by the e1 <-> e2 symmetry
    # the extension is again non-split
    a, co = heis
    ext = gysin_extension(a, 1, [1, 0], co)
    sec, cert = split_extension(ext)
    assert sec is None
    # but c = top class: Ann = everything, beta_geo is zero in the only
    # admissible block, and the extension splits
    ext3 = gysin_extension(a, 3, [1], co)
    sec3, cert3 = split_extension(ext3)
    assert sec3 is not None


@pytest.mark.parametrize("ring_name,c_degree,c", [
    ("Z", 1, [0, 0]), ("F3", 2, [0]), ("Q", 1, [0, 0]), ("fixture", 0, [0]),
])
def test_trivial_shape_round_trip(heis, ring_name, c_degree, c):
    # a random b gives beta = b(xy) - b(x) y; the solve must return a b'
    # (not necessarily b) whose trivial shape is the same beta.  The zero
    # class makes Ann(c) = H and H/(cH) = H, so beta is not zero.
    from hochgysin.gysin import _solve_trivial_shape, _trivial_shape_beta
    if ring_name == "fixture":
        a, co = heis
    else:
        a = cochain_algebra(build_torus(2), ring_from_name(ring_name))
        co = build_sections(a)
    ring = a.ring
    h = co.h()
    ext = gysin_extension(a, c_degree, c, co)
    rng = random.Random(19)
    b = {}
    for m, basis in ext.ann_basis.items():
        b[m] = ExactMatrix.zeros(ring, h.rank(m + c_degree - 1), basis.cols)
        for i, j in np.ndindex(b[m].data.shape):
            den = rng.choice([1, 2, 3]) if ring == QQ else 1
            b[m].data[i, j] = ring.normalize(Fraction(rng.randint(-3, 3), den))
    beta = _trivial_shape_beta(ext, b)
    assert any(not block.is_zero() for block in beta.values())
    solved, cert = _solve_trivial_shape(ext, beta)
    assert cert is None
    assert _trivial_shape_beta(ext, solved) == beta


def test_cross_oracle_trivial_theta_implies_split(torus2):
    a, co = torus2
    th = theta(co)
    w, _ = trivialize(th, TwistedBimodule(co.h()))
    assert w is not None
    for c_deg, c in ((0, [1]), (1, [1, 0]), (1, [2, 1]), (2, [1]), (2, [5])):
        ext = gysin_extension(a, c_deg, c, co)
        sec, cert = split_extension(ext, theta_witness=w)
        assert sec is not None, (c_deg, c)


@pytest.mark.parametrize("factors, seed", [
    ((build_circle, lambda: build_sphere(2)), 3),
    ((lambda: build_sphere(2), lambda: build_sphere(2)), None),
], ids=["S1xS2-seed3", "S2xS2"])
def test_formal_case_over_q_splits_for_every_class(factors, seed):
    # the paper's first case: over Q a formal base has trivial [theta], and
    # the extension of every class splits and matches the image of [theta]
    a = cochain_algebra(product(*(f() for f in factors)), QQ)
    co = build_sections(a, seed=seed)
    th = theta(co)
    assert trivialize(th, TwistedBimodule(co.h()))[0] is not None
    for n in range(1, co.top + 1):
        for i in range(co.hr(n)):
            c = [int(j == i) for j in range(co.hr(n))]
            ext = gysin_extension(a, n, c, co)
            assert verify_theorem_th(a, n, c, co, th=th, ext=ext)[0], (n, c)
            assert split_extension(ext)[0] is not None, (n, c)


def test_action_well_defined_across_seed(torus2):
    # the H-action on cone cohomology computed through a second section
    # package agrees with the canonical one in the fixed presentation
    a, co = torus2
    co2 = build_sections(a, seed=77)
    cone = mapping_cone(a, 2, [1], co)
    ch = cone_cohomology(cone)
    for n in (0, 1, 2):
        chains = ch.group(n).reduced_gens
        for q in (0, 1):
            v1 = cone.module.bilinear_block(n, q, chains, co.s_matrix(q))
            v2 = cone.module.bilinear_block(n, q, chains, co2.s_matrix(q))
            assert v1.cols == chains.cols * co.hr(q)
            assert ch.group(n + q).classify(v1) == ch.group(n + q).classify(v2)


def _failures(report):
    return {c.name: c.witness for c in report.failures()}


def test_cone_module_check_catches_corrupt_action(torus2):
    a, co = torus2
    module = mapping_cone(a, 2, [1], co).module
    ent = list(module.action[(1, 1)])
    i, j, k, c = ent[0]
    ent[0] = (i, j, k, c + 1)
    bad = dataclasses.replace(module, action={**module.action, (1, 1): tuple(ent)})
    failures = _failures(validate_module(bad))
    assert set(failures) == {"module_leibniz", "module_associativity"}
    assert failures["module_associativity"] == "action associativity fails at (0,1,1)"


def test_cone_module_check_catches_corrupt_differential(torus2):
    a, co = torus2
    module = mapping_cone(a, 2, [1], co).module
    d = ExactMatrix(a.ring, module.d(1).data.copy())
    d.data[0, 0] += 1
    bad = dataclasses.replace(module, diff={**module.diff, 1: d})
    failures = _failures(validate_module(bad))
    assert failures["module_d_squared"] == "D^2 != 0 at degree 0"
    assert "module_unit" not in failures and "module_associativity" not in failures
