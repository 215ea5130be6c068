"""Independent oracles used across the test suite.

The homology oracle works straight from boundary matrices and Smith
normal form; it never touches the cochain-algebra or sections code
paths it is used to check.

The vector-level references evaluate one element or one tuple of classes
at a time, where the package works on whole blocks: the cochain product
entry by entry, q(x, y) and theta(x, y, z) of single classes, the value
of a Hochschild cochain on a tuple of classes, and the comparison of the
cohomology of a torus with an exterior algebra.  The dense references
run the sparse kernels of exactlin on whole numpy rows.  Helpers that
only the tests need (a matrix from its columns, the Euler
characteristic) live here too.
"""

from itertools import combinations

import numpy as np

from hochgysin.exactlin import (
    ExactMatrix, SNFResult, ZZ, as_vector, smith_normal_form, zero_vector,
)


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


def euler_characteristic(k):
    """The alternating sum of the f-vector of the complex k."""
    return sum((-1) ** i * n for i, n in enumerate(k.f_vector()))


def from_columns(ring, cols, nrows):
    """The matrix with the given vectors as its columns, nrows rows."""
    m = ExactMatrix.zeros(ring, nrows, len(cols))
    for j, col in enumerate(cols):
        m.data[:, j] = [ring.normalize(x) for x in col]
    return m


# ---------------------------------------------------------------------------
# Vector-level references for the block maps
# ---------------------------------------------------------------------------

def dga_multiply(a, p, q, u, v):
    """Product C^p x C^q -> C^{p+q} of two coordinate vectors, entry by
    entry from the product tensor (the reference for bilinear_block)."""
    out = zero_vector(a.ring, a.rank(p + q))
    for i, j, k, c in a.entries(p, q):
        if u[i] != 0 and v[j] != 0:
            out[k] = a.ring.normalize(out[k] + c * u[i] * v[j])
    return out


def h_multiply(h, p, q, x, y):
    """Product H^p x H^q -> H^{p+q} of two class vectors, through the
    structure constants (the reference for HRing.left_mult)."""
    if h.rank(p + q) == 0 or h.rank(p) == 0 or h.rank(q) == 0:
        return zero_vector(h.ring, h.rank(p + q))
    return h.mult_block(p, q).matvec(np.outer(x, y).reshape(len(x) * len(y)))


def q_pair(co, p, x, q, y):
    """q(x, y) = q(s(x) s(y) - s(xy)) in C^{p+q-1} for classes x in H^p and
    y in H^q, one pair at a time (the reference for qpair_block), so that
    d q(x, y) = s(x) s(y) - s(xy)."""
    a = co.algebra
    if co.hr(p) == 0 or co.hr(q) == 0 or p + q > co.top:
        return zero_vector(co.ring, a.rank(p + q - 1))
    s = co.s_matrix
    w = dga_multiply(a, p, q, s(p).matvec(x), s(q).matvec(y)) \
        - s(p + q).matvec(h_multiply(co.h(), p, q, x, y))
    return co.q_of(p + q, co.ring.reduce_array(w))


def theta_value(co, px, x, py, y, pz, z):
    """Chain-level Theta(x, y, z) for single classes, a cochain in C^{sum-1}
    (the reference for hochschild.theta_chain_block):

    Theta = (-1)^{|x|} s(x) q(y,z) - q(xy, z) + q(x, yz) - q(x,y) s(z).
    """
    a = co.algebra
    h = co.h()
    ring = co.ring
    out = zero_vector(ring, a.rank(px + py + pz - 1))
    sign = ring.normalize((-1) ** px)
    out = out + sign * dga_multiply(a, px, py + pz - 1, co.s_matrix(px).matvec(x),
                                    q_pair(co, py, y, pz, z))
    out = out - q_pair(co, px + py, h_multiply(h, px, py, x, y), pz, z)
    out = out + q_pair(co, px, x, py + pz, h_multiply(h, py, pz, y, z))
    out = out - dga_multiply(a, px + py - 1, pz, q_pair(co, px, x, py, y),
                             co.s_matrix(pz).matvec(z))
    return ring.reduce_array(out)


def cochain_value(c, degs, vectors):
    """A Hochschild cochain evaluated on homogeneous classes: its block of
    the degree tuple applied to x_1 (x) ... (x) x_l; the class coordinates
    of the value."""
    b = c.block_or_zero(degs)
    col = as_vector(c.ring, [1])
    for v in vectors:
        col = np.outer(col, v).reshape(len(col) * len(v))
    return b.matvec(col)


def _wedge(s, t):
    """(sign, sorted union) of e_s ^ e_t, or None when s and t meet."""
    if set(s) & set(t):
        return None
    return (-1) ** sum(1 for a in s for b in t if a > b), tuple(sorted(s + t))


def exterior_iso(co):
    """Per-degree isomorphism Lambda^*(H^1) -> H^* through cup products.

    Returns the list of matrices (columns = products of the chosen H^1
    basis classes, indexed by sorted subsets) after verifying that the
    map is a ring isomorphism; raises ValueError when the cohomology is
    not exterior on its degree-1 part.
    """
    h = co.h()
    n = h.rank(1)
    ring = h.ring
    basis1 = [ExactMatrix.identity(ring, n).column(i) for i in range(n)]

    def wedge_image(subset):
        if not subset:
            return ExactMatrix.identity(ring, h.rank(0)).column(0)
        vec, deg = basis1[subset[0]], 1
        for i in subset[1:]:
            vec = h_multiply(h, deg, 1, vec, basis1[i])
            deg += 1
        return vec

    mats = []
    for k in range(h.top + 1):
        cols = [wedge_image(subset) for subset in combinations(range(n), k)]
        m = from_columns(ring, cols, h.rank(k))
        if m.rows != m.cols:
            raise ValueError(f"H^{k} has rank {m.rows}, expected C({n},{k}) = {m.cols}")
        s = smith_normal_form(m)
        if s.rank != m.rows or any(not ring.is_unit(d) for d in s.divisors):
            raise ValueError(f"degree-{k} comparison matrix is not invertible")
        mats.append(m)
    # ring-map check on structure constants: phi(e_S) phi(e_T) = phi(e_S ^ e_T)
    for p in range(h.top + 1):
        for q in range(h.top + 1 - p):
            for s in combinations(range(n), p):
                for t in combinations(range(n), q):
                    lhs = h_multiply(h, p, q, wedge_image(s), wedge_image(t))
                    w = _wedge(s, t)
                    if w is None:
                        rhs = zero_vector(ring, h.rank(p + q))
                    else:
                        sign, merged = w
                        rhs = ring.reduce_array(ring.normalize(sign) * wedge_image(merged))
                    if any(a != b for a, b in zip(lhs, rhs)):
                        raise ValueError(
                            f"products of degree-1 classes are not exterior at {s},{t}")
    return mats


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
    """(row, col) of the smallest pivot in A[t:, t:] (by abs over Z; over a
    field the first), ties by lowest (row, col).  Rows flagged dead are
    zero on A[t:, t:] and skipped; rows found zero here get flagged."""
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
        if u != 1:
            A[t] = ring.reduce_array(u * A[t])
            ops.append(("row", "scale", t, t, u))
        t += 1

    divisors = [A[i, i] for i in range(min(rows, cols)) if A[i, i] != 0]
    return SNFResult(ring, ExactMatrix(ring, A), len(divisors), divisors, ops)


def dense_column_hermite(M):
    """exactlin.column_hermite on whole numpy columns: Euclid across the
    live columns of a row with the smallest entry as pivot (by abs over Z),
    every column operation on a full column."""
    ring = M.ring
    A = M.data.copy()
    rows, cols = A.shape
    pivot_col = 0
    for r in range(rows):
        if pivot_col >= cols:
            break
        # euclidean elimination across columns pivot_col.. in row r
        while True:
            nz = [j for j in range(pivot_col, cols) if A[r, j] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: (abs(A[r, j]) if ring.tag == "Z" else 1, j))
            p = nz[0]
            for j in nz[1:]:
                q = ring.quo(A[r, j], A[r, p])
                if q:
                    A[:, j] = ring.reduce_array(A[:, j] - q * A[:, p])
        nz = [j for j in range(pivot_col, cols) if A[r, j] != 0]
        if not nz:
            continue
        j = nz[0]
        if j != pivot_col:
            A[:, [pivot_col, j]] = A[:, [j, pivot_col]]
        u = ring.canonical_unit(A[r, pivot_col])
        if u != 1:
            A[:, pivot_col] = ring.reduce_array(u * A[:, pivot_col])
        # reduce earlier columns against this pivot for canonicity
        for j in range(pivot_col):
            x = A[r, j]
            if x != 0:
                q = ring.quo(x, A[r, pivot_col])  # over Z leaves x in [0, pivot)
                if q:
                    A[:, j] = ring.reduce_array(A[:, j] - q * A[:, pivot_col])
        pivot_col += 1
    return ExactMatrix(ring, A[:, :pivot_col].copy())
