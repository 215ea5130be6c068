"""Independent oracles used across the test suite.

The homology oracle works straight from boundary matrices and Smith
normal form; it never touches the cochain-algebra or sections code
paths it is used to check.
"""

import numpy as np

from hochgysin.exactlin import ExactMatrix, SNFResult, ZZ, smith_normal_form


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


def _dense_find_pivot(ring, A, t, dead):
    """(row, col) of the smallest pivot_size in A[t:, t:], ties by lowest
    (row, col).  Rows flagged dead are zero on A[t:, t:] and skipped; rows
    found zero here get flagged."""
    best = None
    for i in (t + np.flatnonzero(~dead[t:])).tolist():
        nz = A[i, t:].nonzero()[0]
        if not len(nz):
            dead[i] = True
            continue
        if ring.is_field:
            return i, t + int(nz[0])
        sizes = np.abs(A[i, t + nz])
        k = sizes.argmin()
        if best is None or sizes[k] < best[0]:
            best = (sizes[k], i, t + int(nz[k]))
            if best[0] == 1:
                return i, best[2]  # nothing beats a unit, except an earlier one
    return None if best is None else best[1:]


def dense_smith_normal_form(M):
    """smith_normal_form on whole rows of a dense array: every line
    operation runs on a full numpy row, a column operation on a row of the
    transposed view.  The same operations, in the same order."""
    ring = M.ring
    A = M.data.copy()
    rows, cols = A.shape
    ops = []
    dead = np.zeros(rows, dtype=bool)
    lines = {"row": A, "col": A.T}

    def axpy(side, dst, src, q):
        a = lines[side]
        a[dst] = ring.reduce_array(a[dst] - q * a[src])
        ops.append((side, "axpy", dst, src, q))

    def swap(side, i, j):
        if i != j:
            a = lines[side]
            a[[i, j]] = a[[j, i]]
            if side == "row":
                dead[[i, j]] = dead[[j, i]]
            ops.append((side, "swap", i, j, None))

    def clear(side, t):
        a = lines[side]
        moved = False
        for i in (t + 1 + a[t + 1:, t].nonzero()[0]).tolist():
            q = ring.quo(a[i, t], a[t, t])
            if q:
                axpy(side, i, t, q)
            if a[i, t] != 0:
                swap(side, t, i)
                moved = True
        return moved

    def fold(t):
        if ring.is_unit(A[t, t]):
            return False
        bad = np.flatnonzero((A[t + 1:, t + 1:] % A[t, t] != 0).any(axis=1))
        if len(bad):
            axpy("row", t, t + 1 + bad[0], -1)
        return len(bad) > 0

    t = 0
    while (piv := _dense_find_pivot(ring, A, t, dead)) is not None:
        swap("row", t, piv[0])
        swap("col", t, piv[1])
        while clear("row", t) or clear("col", t) or fold(t):
            pass
        u = ring.canonical_unit(A[t, t])
        if u != ring.one():
            A[t] = ring.reduce_array(u * A[t])
            ops.append(("row", "scale", t, t, u))
        t += 1

    divisors = [A[i, i] for i in range(min(rows, cols)) if A[i, i] != 0]
    return SNFResult(ring, ExactMatrix(ring, A), len(divisors), divisors, ops)
