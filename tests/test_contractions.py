"""The products with a Kronecker factor, computed without forming it,
against the Kronecker products themselves.

exactlin.matmul_kron is checked against np.kron on random shapes, and
each site that uses it (theta_chain_block, HRing.left_mult and
right_mult, sigma_chain, beta_from_theta) and the block writes of the
trivial-shape system against its Kronecker reference in tests/oracles.py.
Over Z and F_p the entries must agree with their Python types; over Q in
value, where a Kronecker product may leave an integral Fraction.
"""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hochgysin.dga import cochain_algebra, load_dga
from hochgysin.exactlin import GF, QQ, ZZ, ExactMatrix, matmul_kron
from hochgysin.gysin import _trivial_shape_system, beta_from_theta, gysin_extension
from hochgysin.hochschild import admissible_tuples, theta, theta_chain_block
from hochgysin.sections import build_sections
from hochgysin.simplicial import build_torus

FIXTURE = Path(__file__).parent.parent / "src" / "hochgysin" / "fixtures" / \
    "massey_fixture.dga.json"


def same(x: ExactMatrix, y: ExactMatrix) -> bool:
    """Equal entries, and over Z and F_p equal Python types too."""
    if x.data.shape != y.data.shape:
        return False
    if x.ring.tag == "Q":
        return x == y
    return all(a == b and type(a) is type(b) for a, b in zip(x.data.flat, y.data.flat))


@st.composite
def kron_operands(draw):
    """(M, X, k, identity_first) over Z, Q, F2 or F5, every dimension in 0..6."""
    ring = draw(st.sampled_from([ZZ, QQ, GF(2), GF(5)]))
    m, a, b, k = (draw(st.integers(0, 6)) for _ in range(4))
    value = st.integers(-9, 9)
    if ring.tag == "Q":
        value |= st.fractions(-9, 9, max_denominator=4)

    def matrix(rows, cols):
        out = ExactMatrix.zeros(ring, rows, cols)
        for i, j in np.ndindex(rows, cols):
            out.data[i, j] = ring.normalize(draw(value))
        return out
    return matrix(m, a * k), matrix(a, b), k, draw(st.booleans())


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(kron_operands())
def test_matmul_kron_matches_np_kron(operands):
    M, X, k, identity_first = operands
    eye = np.identity(k, dtype=object)
    K = np.kron(eye, X.data) if identity_first else np.kron(X.data, eye)
    assert same(matmul_kron(M, X, k, identity_first),
                oracles.dense_matmul(M, ExactMatrix(M.ring, M.ring.reduce_array(K))))


# case -> (algebra, sections seed, classes c as (degree, coordinates))
T2_CLASSES = ((0, [1]), (1, [1, 0]), (1, [0, 0]), (2, [1]))
CASES = {
    "t2-Z": (lambda: cochain_algebra(build_torus(2), ZZ), None, T2_CLASSES),
    "t2-Q": (lambda: cochain_algebra(build_torus(2), QQ), 3, T2_CLASSES),
    "t2-F3": (lambda: cochain_algebra(build_torus(2), GF(3)), 4, T2_CLASSES),
    "massey-seeded": (lambda: load_dga(FIXTURE), 6, ((1, [0, 1]), (0, [0]), (3, [1]))),
    "t3-seeded": (lambda: cochain_algebra(build_torus(3), ZZ), 7,
                  ((1, [1, 0, 0]), (2, [1, -1, 0]))),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    make, seed, classes = CASES[request.param]
    a = make()
    return a, build_sections(a, seed=seed), classes


def test_theta_chain_block_matches_kron(case):
    _, co, _ = case
    for p, q, r in admissible_tuples(co.h(), 3, -1):
        assert same(theta_chain_block(co, p, q, r),
                    oracles.kron_theta_chain_block(co, p, q, r)), (p, q, r)


def test_left_and_right_mult_match_kron(case):
    _, co, _ = case
    h = co.h()
    rng = random.Random(19)
    for p in range(h.top + 1):
        for q in range(h.top + 1):
            for cols in (h.rank(p), 2):
                X = ExactMatrix.from_rows(h.ring, [[rng.randint(-3, 3) for _ in range(cols)]
                                                   for _ in range(h.rank(p))]) \
                    if h.rank(p) else ExactMatrix.zeros(h.ring, 0, cols)
                assert same(h.left_mult(p, X, q), oracles.kron_left_mult(h, p, X, q))
            z = [h.ring.normalize(rng.randint(-3, 3)) for _ in range(h.rank(q))]
            assert same(h.right_mult(p, q, z), oracles.kron_right_mult(h, p, q, z))


def test_gysin_products_match_kron(case):
    a, co, classes = case
    th = theta(co)
    for c_degree, c in classes:
        ext = gysin_extension(a, c_degree, c, co)
        ref = oracles.kron_sigma_chain(ext)
        assert ext.sigma_chain.keys() == ref.keys()
        assert all(same(ext.sigma_chain[m], ref[m]) for m in ref), (c_degree, c)
        got, ref = beta_from_theta(th, ext), oracles.kron_beta_from_theta(th, ext)
        assert got.keys() == ref.keys()
        assert all(same(got[k], ref[k]) for k in ref), (c_degree, c)
        for beta in (ext.beta_geo, got):
            system, rhs, offsets = _trivial_shape_system(ext, beta)
            ref_system, ref_rhs, ref_offsets = oracles.kron_trivial_shape_system(ext, beta)
            assert offsets == ref_offsets
            assert same(system, ref_system), (c_degree, c)
            assert list(rhs) == list(ref_rhs)
