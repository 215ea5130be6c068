"""Property tests of the Smith normal form on random sparse inputs, and
of the product on entries near the int64 bound.

hypothesis runs derandomized with a bounded example count, so the suite
stays deterministic; the dense kernels in tests/oracles.py supplies the
rank that the sparse kernel must reach and the products on Python ints.
"""

from hypothesis import given, settings, strategies as st

import oracles
from hochgysin.exactlin import GF, QQ, ZZ, ExactMatrix, as_words, smith_normal_form


@st.composite
def sparse_matrices(draw):
    """0-12 x 0-12 over Z, Q, F2 or F5, at most about a third of the cells
    nonzero (zero rows and columns are common), over Q some proper fractions."""
    ring = draw(st.sampled_from([ZZ, QQ, GF(2), GF(5)]))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    M = ExactMatrix.zeros(ring, rows, cols)
    if rows and cols:
        value = st.integers(-9, 9)
        if ring.tag == "Q":
            value |= st.fractions(-9, 9, max_denominator=4)
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        for (i, j), x in draw(st.dictionaries(cells, value,
                                              max_size=rows * cols // 3 + 1)).items():
            M.data[i, j] = ring.normalize(x)
    return M


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(sparse_matrices())
def test_snf_invariants_on_random_sparse_matrices(M):
    ring, s = M.ring, smith_normal_form(M)
    D = ExactMatrix.zeros(ring, M.rows, M.cols)
    for i, d in enumerate(s.divisors):
        D.data[i, i] = d
    U, Uinv, V, Vinv = (oracles.transform(s, name) for name in ("U", "Uinv", "V", "Vinv"))
    assert s.shape == (M.rows, M.cols) and (U @ M) @ V == D
    assert U @ Uinv == ExactMatrix.identity(ring, M.rows)
    assert V @ Vinv == ExactMatrix.identity(ring, M.cols)
    assert all(ring.divides(a, b) for a, b in zip(s.divisors, s.divisors[1:]))
    assert all(d > 0 if ring.tag == "Z" else d == 1 for d in s.divisors)
    assert s.rank == len(s.divisors) == oracles.dense_smith_normal_form(M).rank


@st.composite
def near_bound_products(draw):
    """(A, B) past the size gate over Z or F_p whose largest entries a and
    b put k * a * b within a factor 2 of 2**63 (k the inner dimension);
    each entry is +-a (or +-b) or below, and one sign throughout when
    `aligned`, so that the sums reach the bound."""
    ring = draw(st.sampled_from([ZZ, ZZ, ZZ, GF(5), GF(2147483647)]))
    m, k, n = draw(st.integers(10, 14)), draw(st.integers(8, 40)), draw(st.integers(10, 14))
    ea = draw(st.integers(0, 63 - k.bit_length()))
    eb = max(0, 63 - k.bit_length() - ea + draw(st.integers(-1, 1)))
    aligned = draw(st.booleans())
    rnd = draw(st.randoms(use_true_random=False))

    def entries(rows, cols, e):
        top = 2 ** e
        return [[top if aligned else rnd.choice([top, -top, rnd.randint(-top, top)])
                 for _ in range(cols)] for _ in range(rows)]
    return (ExactMatrix.from_rows(ring, entries(m, k, ea)),
            ExactMatrix.from_rows(ring, entries(k, n, eb)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(near_bound_products())
def test_products_near_the_word_bound(AB):
    A, B = AB
    got, ref = A @ B, oracles.dense_matmul(A, B)
    assert got == ref and all(type(x) is int for x in got.data.flat)
    bound = A.cols * max(abs(x) for x in A.data.flat) * max(abs(x) for x in B.data.flat)
    assert (as_words(A.ring, A.cols, A.data, B.data) is None) == (bound >= 2 ** 63)
