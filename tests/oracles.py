"""Independent oracles used across the test suite.

The homology oracle works straight from boundary matrices and Smith
normal form; it never touches the cochain-algebra or sections code
paths it is used to check.
"""

from hochgysin.exactlin import ExactMatrix, ZZ, smith_normal_form


def boundary_matrix(simplices, n, ring=ZZ):
    """Boundary C_n -> C_{n-1} of the face-closure list from SimplicialComplex.simplices()."""
    rows = {s: i for i, s in enumerate(simplices[n - 1])} if n >= 1 else {}
    cols = simplices[n] if n < len(simplices) else []
    m = ExactMatrix.zeros(ring, len(rows), len(cols))
    for j, s in enumerate(cols):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            m.data[rows[face], j] = ring.normalize((-1) ** i)
    return m


def homology_groups(k, ring=ZZ):
    """[(free rank, [torsion orders])] per degree, from boundary SNF only."""
    simplices = k.simplices()
    dim = len(simplices) - 1
    out = []
    for n in range(dim + 1):
        d_n = boundary_matrix(simplices, n, ring) if n >= 1 else \
            ExactMatrix.zeros(ring, 0, len(simplices[0]))
        rank_dn = smith_normal_form(d_n).rank
        if n + 1 <= dim:
            s_next = smith_normal_form(boundary_matrix(simplices, n + 1, ring))
            rank_next, divisors = s_next.rank, s_next.divisors
        else:
            rank_next, divisors = 0, []
        free = len(simplices[n]) - rank_dn - rank_next
        torsion = [d for d in divisors if not ring.is_unit(d)]
        out.append((free, torsion))
    return out


def homology_ranks(k, ring=ZZ):
    return [r for r, _ in homology_groups(k, ring)]


# ---------------------------------------------------------------------------
# Dense references for the kernels of exactlin that walk only nonzeros
# ---------------------------------------------------------------------------

TRANSFORMS = {"U": ("row", False, False), "Uinv": ("row", True, False),
              "V": ("col", False, True), "Vinv": ("col", True, True)}


def dense_replay(s, Y, side, inverse, transpose):
    """SNFResult._replay on whole rows of a dense array, in place."""
    ring = s.ring
    ops = [op for op in s.ops if op[0] == side]
    for _, kind, dst, src, q in (ops if inverse == transpose else reversed(ops)):
        if kind == "swap":
            Y[[dst, src]] = Y[[src, dst]]
        elif kind == "scale":
            Y[dst] = ring.reduce_array((ring.inv(q) if inverse else q) * Y[dst])
        else:
            if transpose:
                dst, src = src, dst
            Y[dst] = ring.reduce_array(Y[dst] + q * Y[src] if inverse
                                       else Y[dst] - q * Y[src])


def dense_lmul(s, name, Y):
    out = Y.data.copy()
    dense_replay(s, out, *TRANSFORMS[name])
    return ExactMatrix(s.ring, out)


def dense_rmul(s, X, name):
    side, inverse, transpose = TRANSFORMS[name]
    out = X.data.T.copy()
    dense_replay(s, out, side, inverse, not transpose)
    return ExactMatrix(s.ring, out.T)


def dense_matmul(A, B):
    """A @ B through numpy's dense object product."""
    if A.cols == 0:
        return ExactMatrix.zeros(A.ring, A.rows, B.cols)
    return ExactMatrix(A.ring, A.ring.reduce_array(A.data @ B.data))
