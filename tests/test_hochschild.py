import random
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest

from hochgysin.dga import cochain_algebra, load_dga
from hochgysin.exactlin import GF, QQ, ZZ, ExactMatrix, as_vector
from hochgysin.hochschild import (
    CochainLayout, HochschildCochain, TwistedBimodule, admissible_tuples,
    coboundary, coboundary_matrix, cochain_from_json, cochain_to_json,
    classes_equal, theta, trivialize, verify_cocycle, zero_cochain,
)
from hochgysin.sections import HRing, NotACocycleError, build_sections
from hochgysin.simplicial import build_sphere, build_torus
from hochgysin.torus import exterior_algebra
from oracles import cochain_value, dga_multiply, h_multiply, q_pair, theta_value

MASSEY_FIXTURE = Path(__file__).parent.parent / "src" / "hochgysin" / "fixtures" / \
    "massey_fixture.dga.json"


def torus2_sections(seed=None):
    return build_sections(cochain_algebra(build_torus(2), ZZ), seed=seed)


def random_cochain(h, arity, internal_degree, rng, lo=-2, hi=2):
    out = zero_cochain(h, arity, internal_degree)
    for tup in admissible_tuples(h, arity, internal_degree):
        rows, cols = out.shape(tup)
        m = ExactMatrix.from_rows(
            h.ring, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])
        out.set_block(tup, m)
    return out


def test_coboundary_of_zero():
    co = torus2_sections()
    M = TwistedBimodule(co.h())
    assert coboundary(zero_cochain(co.h(), 2, -1), M).is_zero()


def test_arity_zero_constant_on_sphere():
    co = build_sections(cochain_algebra(build_sphere(2), ZZ))
    h = co.h()
    M = TwistedBimodule(h)
    # constant cochain = the fundamental class, internal degree 2
    a = zero_cochain(h, 0, 2)
    a.set_block((), ExactMatrix.from_rows(ZZ, [[1]]))
    da = coboundary(a, M)
    # (delta a)(x) = x * m - m x; for x = fundamental class both products
    # land above the top degree, and for x = 1 they cancel
    assert da.is_zero()


def test_delta_delta_zero_all_arities():
    co = torus2_sections()
    h = co.h()
    M = TwistedBimodule(h)
    rng = random.Random(314)
    for arity in (0, 1, 2, 3):
        for t in (-1, 0, 1):
            a = random_cochain(h, arity, t, rng)
            assert coboundary(coboundary(a, M), M).is_zero(), (arity, t)


def test_theta_unit_slots_vanish():
    co = torus2_sections()
    th = theta(co)
    for tup in admissible_tuples(co.h(), 3, -1):
        if 0 in tup:
            assert th.block_or_zero(tup).is_zero(), tup


def test_theta_on_spheres_is_zero():
    for m in (1, 2, 3):
        co = build_sections(cochain_algebra(build_sphere(m), ZZ))
        assert theta(co).is_zero()


def test_theta_blocks_match_pointwise_values():
    co = torus2_sections(seed=5)
    th = theta(co)
    rng = random.Random(17)
    a = co.algebra
    for tup in admissible_tuples(co.h(), 3, -1):
        p, q, r = tup
        for _ in range(3):
            x = as_vector(ZZ, [rng.randint(-2, 2) for _ in range(co.hr(p))])
            y = as_vector(ZZ, [rng.randint(-2, 2) for _ in range(co.hr(q))])
            z = as_vector(ZZ, [rng.randint(-2, 2) for _ in range(co.hr(r))])
            chain = theta_value(co, p, x, q, y, r, z)
            expected = co.pi(p + q + r - 1, chain)
            got = cochain_value(th, tup, [x, y, z])
            assert list(got) == list(expected)


def test_theta_is_cocycle_torus2_many_seeds():
    for seed in (None, 1, 2, 3, 4, 5):
        co = torus2_sections(seed=seed)
        th = theta(co)
        assert verify_cocycle(th, TwistedBimodule(co.h()))


def test_perturbed_theta_fails_cocycle_check():
    # needs top degree 3 so that arity-4 tuples exist to catch the damage
    from pathlib import Path
    from hochgysin.dga import load_dga
    fixture = Path(__file__).parent.parent / "src" / "hochgysin" / "fixtures" / \
        "massey_fixture.dga.json"
    co = build_sections(load_dga(fixture))
    th = theta(co)
    M = TwistedBimodule(co.h())
    assert verify_cocycle(th, M)
    block = th.block_or_zero((1, 1, 1))
    block = ExactMatrix(block.ring, block.data.copy())
    block.data[1, 0] = block.data[1, 0] + 1    # value [e23] on (h1,h1,h1)
    th.set_block((1, 1, 1), block)
    assert not verify_cocycle(th, M)


def test_sign_audit_delta_s_theta():
    # chain-level identity: (delta_s Theta)(x,y,z,w) = (-1)^{|x|+|y|} d(q(x,y) q(z,w))
    co = torus2_sections(seed=8)
    a = co.algebra
    rng = random.Random(99)
    for _ in range(20):
        degs = [rng.choice([1, 1, 2]) for _ in range(4)]
        if sum(degs) - 1 > a.top_degree + 1:
            continue
        px, py, pz, pw = degs
        x, y, z, w = (as_vector(ZZ, [rng.randint(-2, 2) for _ in range(co.hr(p))])
                      for p in degs)
        h = co.h()
        # delta_s Theta = (-1)^{|x|} s(x) Theta(y,z,w) - Theta(xy,z,w)
        #   + Theta(x,yz,w) - Theta(x,y,zw) + Theta(x,y,z) s(w)
        n = sum(degs) - 1
        lhs = as_vector(ZZ, [0] * a.rank(n))
        lhs = lhs + ((-1) ** px) * dga_multiply(
            a, px, py + pz + pw - 1, co.s_matrix(px).matvec(x),
            theta_value(co, py, y, pz, z, pw, w))
        lhs = lhs - theta_value(co, px + py, h_multiply(h, px, py, x, y), pz, z, pw, w)
        lhs = lhs + theta_value(co, px, x, py + pz, h_multiply(h, py, pz, y, z), pw, w)
        lhs = lhs - theta_value(co, px, x, py, y, pz + pw, h_multiply(h, pz, pw, z, w))
        lhs = lhs + dga_multiply(a, px + py + pz - 1, pw,
                                 theta_value(co, px, x, py, y, pz, z),
                                 co.s_matrix(pw).matvec(w))
        qxy = q_pair(co, px, x, py, y)
        qzw = q_pair(co, pz, z, pw, w)
        prod = dga_multiply(a, px + py - 1, pz + pw - 1, qxy, qzw)
        rhs = ((-1) ** (px + py)) * a.d(n - 1).matvec(prod)
        assert list(lhs) == list(rhs)


def test_coboundary_matrix_agrees_with_direct():
    co = torus2_sections()
    h = co.h()
    M = TwistedBimodule(h)
    mat, src, dst = coboundary_matrix(M, 2, -1)
    rng = random.Random(41)
    a = random_cochain(h, 2, -1, rng)
    assert list(mat.matvec(src.pack(a))) == list(dst.pack(coboundary(a, M)))


def column_by_column(M, arity, internal_degree, positive_only):
    """The matrix of delta as coboundary() of each elementary cochain, packed
    into the target layout: the oracle for coboundary_matrix."""
    h = M.base
    src = CochainLayout.build(h, arity, internal_degree, positive_only)
    dst = CochainLayout.build(h, arity + 1, internal_degree, positive_only)
    mat = ExactMatrix.zeros(h.ring, dst.total, src.total)
    for tup in src.tuples:
        off, rows, cols = src.offsets[tup]
        for k in range(rows * cols):
            m = ExactMatrix.zeros(h.ring, rows, cols)
            m.data[k // cols, k % cols] = 1
            a = zero_cochain(h, arity, internal_degree)
            a.set_block(tup, m)
            mat.data[:, off + k] = dst.pack(coboundary(a, M))
    return mat, src, dst


def same_entries_and_types(x: ExactMatrix, y: ExactMatrix) -> bool:
    return x.data.shape == y.data.shape and all(
        a == b and type(a) is type(b) for a, b in zip(x.data.flat, y.data.flat))


# case -> (sections, arities, internal degrees)
NO_DRIFT_CASES = {
    "t2-Z": (torus2_sections, (1, 2, 3), (-1, 0)),
    "t2-Q": (lambda: build_sections(cochain_algebra(build_torus(2), QQ), seed=3),
             (1, 2, 3), (-1,)),
    "t2-F3": (lambda: build_sections(cochain_algebra(build_torus(2), GF(3)), seed=4),
              (1, 2, 3), (-1,)),
    "massey-seeded": (lambda: build_sections(load_dga(MASSEY_FIXTURE), seed=6),
                      (1, 2, 3), (-1,)),
    # arity 3 over F5 is the 1365 x 495 matrix of the hh3 benchmark workload
    "exterior3-F5": (lambda: build_sections(exterior_algebra(3, GF(5))), (1, 2, 3), (-1,)),
    "exterior3-Z": (lambda: build_sections(exterior_algebra(3, ZZ)), (1, 2, 3), (-1,)),
}


@pytest.mark.parametrize("case", list(NO_DRIFT_CASES))
def test_coboundary_matrix_matches_column_by_column(case):
    make, arities, degrees = NO_DRIFT_CASES[case]
    h = make().h()
    M = TwistedBimodule(h)
    rng = random.Random(case)
    for arity, t, positive_only in iproduct(arities, degrees, (False, True)):
        mat, src, dst = coboundary_matrix(M, arity, t, positive_only)
        ref, ref_src, ref_dst = column_by_column(M, arity, t, positive_only)
        assert (src.offsets, dst.offsets) == (ref_src.offsets, ref_dst.offsets)
        assert same_entries_and_types(mat, ref), (arity, t, positive_only)
        for _ in range(2):
            a = src.unpack(as_vector(h.ring, [rng.randint(-3, 3) for _ in range(src.total)]))
            assert list(mat.matvec(src.pack(a))) == list(dst.pack(coboundary(a, M)))


def test_coboundary_matrix_with_fractional_structure_constants():
    # over Q with a proper fraction in the product the two constructions
    # agree in value; each may leave integral Fractions in other entries
    f = Fraction(1, 2)
    unit = {(0, p): ExactMatrix.identity(QQ, r) for p, r in enumerate((1, 2, 1))}
    unit.update({(p, 0): m for (_, p), m in unit.items()})
    h = HRing(QQ, [1, 2, 1], {**unit, (1, 1): ExactMatrix.from_rows(QQ, [[0, f, -f, 0]])})
    M = TwistedBimodule(h)
    for arity in (1, 2):
        mat, _, _ = coboundary_matrix(M, arity, -1)
        assert mat == column_by_column(M, arity, -1, False)[0]


def test_trivialize_zero_gives_zero():
    co = torus2_sections()
    M = TwistedBimodule(co.h())
    a, cert = trivialize(zero_cochain(co.h(), 3, -1), M)
    assert cert is None and a.is_zero()


def test_trivialize_roundtrip_on_constructed_coboundary():
    co = torus2_sections()
    h = co.h()
    M = TwistedBimodule(h)
    rng = random.Random(2718)
    for _ in range(3):
        b = random_cochain(h, 2, -1, rng)
        target = coboundary(b, M)
        a, cert = trivialize(target, M)
        assert cert is None
        assert coboundary(a, M) == target


def test_trivialize_rejects_non_cocycle():
    co = torus2_sections()
    h = co.h()
    M = TwistedBimodule(h)
    rng = random.Random(5)
    bad = random_cochain(h, 3, -1, rng)
    if verify_cocycle(bad, M):        # astronomically unlikely; adjust if so
        bad.set_block((1, 1, 1), bad.block_or_zero((1, 1, 1)) +
                      ExactMatrix.identity(ZZ, 0))
    with pytest.raises(NotACocycleError):
        trivialize(bad, M)


def test_torus2_theta_trivial_over_z():
    co = torus2_sections()
    M = TwistedBimodule(co.h())
    th = theta(co)
    a, cert = trivialize(th, M)
    assert cert is None
    assert coboundary(a, M) == th


def test_trivialize_full_path_disconnected_algebra():
    # torus plus an isolated basepoint: H^0 has rank 2, so the solver
    # cannot restrict to positive degrees and must run the full system
    from hochgysin.simplicial import build_torus, make_complex
    t2 = build_torus(2)
    k = make_complex(10, list(t2.facets) + [(9,)])
    co = build_sections(cochain_algebra(k, ZZ))
    assert co.h_rank[0] == 2
    M = TwistedBimodule(co.h())
    th = theta(co)
    assert verify_cocycle(th, M)
    a, cert = trivialize(th, M)
    assert cert is None
    assert coboundary(a, M) == th


def test_classes_equal_across_seeds():
    co1 = torus2_sections(seed=10)
    co2 = torus2_sections(seed=11)
    M = TwistedBimodule(co1.h())
    w, cert = classes_equal(theta(co1), theta(co2), M)
    assert cert is None and w is not None


def test_classes_equal_same_input_zero_witness():
    co = torus2_sections()
    th = theta(co)
    M = TwistedBimodule(co.h())
    w, cert = classes_equal(th, th, M)
    assert cert is None and w.is_zero()


def test_cochain_serialization_roundtrip(tmp_path):
    co = torus2_sections()
    th = theta(co)
    payload = cochain_to_json(th)
    back = cochain_from_json(payload)
    assert back == th
    assert back.arity == 3 and back.internal_degree == -1


def test_layout_pack_unpack():
    co = torus2_sections()
    h = co.h()
    layout = CochainLayout.build(h, 2, -1)
    rng = random.Random(3)
    a = random_cochain(h, 2, -1, rng)
    assert layout.unpack(layout.pack(a)) == a


# the paper's identities on a few section seeds; case -> dg-algebra
IDENTITY_CASES = {
    "t2-F2": lambda: cochain_algebra(build_torus(2), GF(2)),
    "t2-F3": lambda: cochain_algebra(build_torus(2), GF(3)),
    "t2-Q": lambda: cochain_algebra(build_torus(2), QQ),
    "massey": lambda: load_dga(MASSEY_FIXTURE),
}


@pytest.mark.parametrize("case", list(IDENTITY_CASES))
def test_theta_is_cocycle_through_assembled_matrix(case):
    a = IDENTITY_CASES[case]()
    for seed in (1, 2, 3):
        co = build_sections(a, seed=seed)
        th = theta(co)
        assert not th.is_zero()
        mat, src, _ = coboundary_matrix(TwistedBimodule(co.h()), 3, -1)
        assert all(x == 0 for x in mat.matvec(src.pack(th))), seed


@pytest.mark.parametrize("case", list(IDENTITY_CASES))
def test_theta_class_independent_of_seed(case):
    a = IDENTITY_CASES[case]()
    co1 = build_sections(a, seed=1)
    th1 = theta(co1)
    M = TwistedBimodule(co1.h())
    others = [theta(build_sections(a, seed=seed)) for seed in (2, 3, 4)]
    assert any(th != th1 for th in others)
    for th in others:
        w, cert = classes_equal(th1, th, M)
        assert cert is None and coboundary(w, M) == th1 - th
