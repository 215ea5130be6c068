import random

import pytest

from hochgysin.dga import cochain_algebra, validate
from hochgysin.exactlin import QQ, ZZ, ExactMatrix, as_vector, vec_is_zero
from hochgysin.hochschild import (
    CochainLayout, TwistedBimodule, admissible_tuples, coboundary, theta, zero_cochain,
)
from hochgysin.sections import build_sections
from hochgysin.simplicial import build_torus
from hochgysin.torus import (
    exterior_algebra, symmetrize, symmetrize_matrix, sym3_monomials, torus_theta_trivial,
)
from oracles import dga_multiply, exterior_iso


def test_exterior_rank_one():
    a = exterior_algebra(1)
    assert a.ranks == [1, 1]
    assert validate(a).passed
    e = as_vector(ZZ, [1])
    assert vec_is_zero(dga_multiply(a, 1, 1, e, e))


def test_exterior_rank_two_signs():
    a = exterior_algebra(2)
    assert a.ranks == [1, 2, 1]
    assert validate(a).passed
    e1 = as_vector(ZZ, [1, 0])
    e2 = as_vector(ZZ, [0, 1])
    assert list(dga_multiply(a, 1, 1, e1, e2)) == [1]
    assert list(dga_multiply(a, 1, 1, e2, e1)) == [-1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exterior_binomial_ranks_and_axioms(n):
    a = exterior_algebra(n)
    from math import comb
    assert a.ranks == [comb(n, k) for k in range(n + 1)]
    assert validate(a).passed


def test_exterior_graded_commutativity():
    a = exterior_algebra(3)
    rng = random.Random(8)
    for p in range(4):
        for q in range(4 - p):
            x = as_vector(ZZ, [rng.randint(-2, 2) for _ in range(a.rank(p))])
            y = as_vector(ZZ, [rng.randint(-2, 2) for _ in range(a.rank(q))])
            xy = dga_multiply(a, p, q, x, y)
            yx = dga_multiply(a, q, p, y, x)
            sign = (-1) ** (p * q)
            assert list(xy) == [sign * v for v in yx]


def test_exterior_sections_are_trivial_case():
    # zero differential: s = id on the chosen basis, q = 0, theta = 0
    a = exterior_algebra(2)
    co = build_sections(a)
    assert co.h_rank == a.ranks
    for n in range(a.top_degree + 1):
        assert co.b_rank(n) == 0
        assert co.s_matrix(n) == ExactMatrix.identity(ZZ, a.rank(n))
    assert theta(co).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_torus_cohomology_is_exterior(n):
    co = build_sections(cochain_algebra(build_torus(n), ZZ))
    mats = exterior_iso(co)
    from math import comb
    assert [m.rows for m in mats] == [comb(n, k) for k in range(n + 1)]


def test_symmetrize_zero():
    a = exterior_algebra(2)
    co = build_sections(a)
    z = zero_cochain(co.h(), 3, -1)
    assert symmetrize(z).is_zero()
    layout = CochainLayout.build(co.h(), 3, -1)
    for signed in (False, True):
        assert vec_is_zero(symmetrize_matrix(co.h(), layout, signed=signed).matvec(
            layout.pack(z)))


def test_symmetrize_is_s3_invariant():
    # precomposing the block with a permutation leaves the output unchanged
    co = build_sections(cochain_algebra(build_torus(2), ZZ))
    th = theta(co)
    n = co.hr(1)
    block = th.block_or_zero((1, 1, 1))
    sym = symmetrize(th)
    # swap the first two tensor slots of the block and re-symmetrize
    swapped = ExactMatrix.zeros(ZZ, block.rows, block.cols)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                src = (i * n + j) * n + k
                dst = (j * n + i) * n + k
                swapped.data[:, dst] = block.data[:, src]
    th2 = zero_cochain(co.h(), 3, -1)
    th2.set_block((1, 1, 1), swapped)
    assert symmetrize(th2) == sym


def test_symmetrize_of_coboundary_consistent():
    # computing sym(delta a) via the cochain or via linearity must agree,
    # and for the exterior algebra the unsigned variant kills coboundaries
    a = exterior_algebra(2)
    co = build_sections(a)
    h = co.h()
    M = TwistedBimodule(h)
    rng = random.Random(55)
    for _ in range(5):
        b = zero_cochain(h, 2, -1)
        for tup in admissible_tuples(h, 2, -1):
            rows, cols = b.shape(tup)
            b.set_block(tup, ExactMatrix.from_rows(
                ZZ, [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]))
        db = coboundary(b, M)
        assert symmetrize(db).is_zero()


def test_torus2_theta_trivial_over_z_and_q():
    for ring in (ZZ, QQ):
        w, th, co = torus_theta_trivial(2, ring)
        assert coboundary(w, TwistedBimodule(co.h())) == th


def test_torus2_theta_trivial_over_prime_fields():
    # the integral witness reduces mod p, so these must succeed too
    from hochgysin.exactlin import GF
    for p in (2, 3):
        w, th, co = torus_theta_trivial(2, GF(p))
        assert coboundary(w, TwistedBimodule(co.h())) == th


def test_torus2_symmetrized_image_zero():
    _, th, _ = torus_theta_trivial(2, ZZ)
    assert symmetrize(th).is_zero()


def test_torus3_theta_trivial_over_z():
    w, th, co = torus_theta_trivial(3, ZZ)
    assert coboundary(w, TwistedBimodule(co.h())) == th
    assert symmetrize(th).is_zero()


def test_sym3_monomials_count():
    assert len(sym3_monomials(3)) == 10    # C(3+2, 3)
    assert sym3_monomials(2) == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
