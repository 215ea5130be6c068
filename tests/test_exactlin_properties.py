"""Property tests of the Smith normal form on random sparse inputs.

hypothesis runs derandomized with a bounded example count, so the suite
stays deterministic; the dense kernel in tests/oracles.py supplies the
rank that the sparse kernel must reach.
"""

from hypothesis import given, settings, strategies as st

import oracles
from hochgysin.exactlin import GF, QQ, ZZ, ExactMatrix, smith_normal_form


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
    assert s.D == D and (s.U @ M) @ s.V == D
    assert s.U @ s.Uinv == ExactMatrix.identity(ring, M.rows)
    assert s.V @ s.Vinv == ExactMatrix.identity(ring, M.cols)
    assert all(ring.divides(a, b) for a, b in zip(s.divisors, s.divisors[1:]))
    assert all(d > 0 if ring.tag == "Z" else d == 1 for d in s.divisors)
    assert s.rank == len(s.divisors) == oracles.dense_smith_normal_form(M).rank
