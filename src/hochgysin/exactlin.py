"""Exact linear algebra over Z, Q and prime fields.

Everything downstream (cochain algebras, section packages, Hochschild
solves, cone cohomology) reduces to the operations in this module:
Smith normal form with its recorded line operations, column Hermite
form, subquotient presentations, and the per-degree cohomology of a
cochain complex.  The SNF of M answers every linear question about M:
solves with certificates, kernel, image and image coordinates.  Solves
and class maps take a matrix of columns, a vector being its one-column
case (as_columns/shaped_like); one back-substitution serves all of
them.  No floating point is used anywhere: scalars are Python ints
(reduced mod p over F_p), over Q a ``fractions.Fraction`` only when not
integral, so zeros and units cost integer arithmetic; the only division
is ``Fraction(b) / a`` in Ring.

Matrices are stored densely as 2-D numpy arrays of dtype=object, except
one built from its nonzeros (ExactMatrix.from_nonzeros), which keeps its
rows {col: value} until `.data` densifies it once.  The long-running
kernels walk only nonzeros.  A product over Z or F_p whose sums provably
fit a machine word runs in int64 (as_words) and comes back as Python
ints.  There is one elimination kernel, _Lines: axpy, swap and scale on
lines {index: value} with the transposed index kept in step, the
Euclidean step of one line against another at an index, and the clear
of the lines past t at an index.  The Smith normal form runs it on the
rows and on the columns of one sparse copy of A (a column operation on
A is a row operation on A.T), the column Hermite form on the columns
only.  Replay holds its operand's rows as {col: value}; a sparse left
factor's product works row by row.  Every other reader of a matrix's
nonzeros (the Smith normal form, the Hermite form, replay, the axiom
checks of dga and the coboundary assembly) calls nonzero_lines, which
takes kept rows without a scan and finds the nonzeros of a dense array
through the mask ``a != 0``, nearly twice as fast as ``a.nonzero()`` on
objects; a product reads `.data`.  A
product with a Kronecker factor that is an identity, M @ kron(X, I) or
M @ kron(I, X), is matmul_kron: a reshape of M, one product @ X and a
reshape back, so the word path and the reduction mod p stay those of @.

Pivot rule (fixed for reproducibility): among the nonzero candidates on
the trailing block, over Z the smallest abs(), ties broken by lowest
(row, col); over fields the first nonzero in scan order.  Rows already
found zero on the trailing block are not scanned again.  The reduction
updates only A and records each line operation; U, V and their
inverses are never maintained.  A caller that needs T @ Y, X @ T or
some rows or columns of a transform T gets them by replaying the
operations on that operand; no transform is built whole.  Tests pin U,
V and their inverses by digest, so the operation sequence cannot drift.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import isqrt

import numpy as np


class ExactLinearError(Exception):
    """Base class for errors raised by this module."""


class DimensionMismatchError(ExactLinearError):
    pass


class NotInSpanError(ExactLinearError):
    pass


# ---------------------------------------------------------------------------
# Coefficient rings
# ---------------------------------------------------------------------------

# the serialized scalars: a JSON int, or a string "p" or "p/q" (q != 0)
_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# the name of F_p; p is a prime below MAX_MODULUS, tested by trial division
_PRIME_FIELD = re.compile(r"F([1-9][0-9]*)")
MAX_MODULUS = 2 ** 32


class Ring:
    """A supported coefficient ring: Z, Q or F_p (p prime).

    Scalars are plain Python values: int over Z, int in [0, p) over F_p,
    and over Q an int when integral, a Fraction otherwise.  normalize()
    gives that canonical form; arithmetic on Fractions may leave an
    integral Fraction, which compares, hashes and prints like its int.
    The Ring object only carries the arithmetic conventions.
    """

    __slots__ = ("tag", "p")

    def __init__(self, tag: str, p: int | None = None):
        if tag not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring tag {tag!r}")
        if tag == "Fp":
            if (p is None or not 2 <= p < MAX_MODULUS
                    or any(p % q == 0 for q in range(2, isqrt(p) + 1))):
                raise ValueError(f"modulus {p} is not a prime below 2**32")
        self.tag = tag
        self.p = p

    # -- identity / naming

    @property
    def name(self) -> str:
        return {"Z": "Z", "Q": "Q"}.get(self.tag, f"F{self.p}")

    @property
    def is_field(self) -> bool:
        return self.tag != "Z"

    def __eq__(self, other):
        return isinstance(other, Ring) and self.tag == other.tag and self.p == other.p

    def __hash__(self):
        return hash((self.tag, self.p))

    def __repr__(self):
        return f"Ring({self.name})"

    # -- scalar arithmetic

    def normalize(self, x):
        if type(x) is not int:
            x = Fraction(x)
            if x.denominator != 1:
                if self.tag != "Q":
                    raise ValueError(f"{x} is not an integer")
                return x
            x = int(x.numerator)
        return x % self.p if self.tag == "Fp" else x

    def is_unit(self, x) -> bool:
        x = self.normalize(x)
        if self.tag == "Z":
            return x in (1, -1)
        return x != 0

    def inv(self, x):
        x = self.normalize(x)
        if self.tag == "Z":
            if x in (1, -1):
                return x
            raise ZeroDivisionError(f"{x} is not a unit in Z")
        if self.tag == "Q":
            return self.normalize(Fraction(1) / x)
        return pow(x, self.p - 2, self.p)

    def divides(self, a, b) -> bool:
        """True when a | b (for a = 0 this means b = 0)."""
        a, b = self.normalize(a), self.normalize(b)
        if a == 0:
            return b == 0
        if self.tag == "Z":
            return b % a == 0
        return True

    def quo(self, b, a):
        """Euclidean quotient of b by a != 0: floor division over Z, b / a
        over a field, so that b - quo(b, a) * a is smaller than a or zero."""
        if self.tag == "Z":
            return b // a
        a, b = self.normalize(a), self.normalize(b)
        if a == 0:
            raise ZeroDivisionError("division by zero")
        if self.tag == "Q":
            return self.normalize(Fraction(b) / a)
        return (b * self.inv(a)) % self.p

    def canonical_unit(self, x):
        """Unit u with u*x 'positive' for x != 0: over Z the sign, over
        fields 1/x."""
        if self.tag == "Z":
            return 1 if x > 0 else -1
        return self.inv(x)

    # -- array helpers (object arrays, and the int64 results of as_words)

    def reduce_array(self, arr: np.ndarray) -> np.ndarray:
        if self.tag == "Fp":
            return arr % self.p
        return arr

    # -- serialization of scalars

    def scalar_to_json(self, x):
        x = self.normalize(x)
        return x if type(x) is int else f"{x.numerator}/{x.denominator}"

    def scalar_from_json(self, v):
        """A JSON int (not a bool) or a "p/q" string with q != 0; anything
        else, floats included, raises ValueError."""
        if type(v) is int:
            return self.normalize(v)
        m = _SCALAR.fullmatch(v) if type(v) is str else None
        den = int(m[2] or 1) if m else 0
        if den:
            return self.normalize(Fraction(int(m[1]), den))
        raise ValueError(f"{v!r} is not a JSON integer or a \"p/q\" string")


ZZ = Ring("Z")
QQ = Ring("Q")


def GF(p: int) -> Ring:
    return Ring("Fp", p)


def ring_from_name(name: str) -> Ring:
    """Z, Q or F<p>, p written in decimal without sign, spaces or leading zeros."""
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    m = _PRIME_FIELD.fullmatch(name) if type(name) is str else None
    if m is None:
        raise ValueError(f"unknown ring name {name!r}")
    return GF(int(m[1]))


def int_from_json(v) -> int:
    """A JSON int (not a bool); anything else, floats and digit strings
    included, raises ValueError."""
    if type(v) is not int:
        raise ValueError(f"{v!r} is not a JSON integer")
    return v


def ints_from_key(key: str) -> list:
    """The integers of an object key such as "1,2": JSON ints, comma-separated."""
    return [int_from_json(x) for x in json.loads(f"[{key}]")]


# ---------------------------------------------------------------------------
# Matrices and vectors
# ---------------------------------------------------------------------------

def as_vector(ring: Ring, entries) -> np.ndarray:
    """1-D object array of normalized scalars."""
    return _object_rows(ring, [entries], ring.normalize)[0]


def zero_vector(ring: Ring, n: int) -> np.ndarray:
    return np.zeros(n, dtype=object)


def vec_is_zero(v: np.ndarray) -> bool:
    return not np.count_nonzero(v)


# A product of fewer multiply-adds stays on objects: there, converting the
# operands and the result costs more than the word arithmetic saves (over
# 200 random shapes on a 2-core Xeon, numpy 2.4.6, the summed time was
# least with this gate)
WORD_MIN_MADDS = 1000


def as_words(ring: Ring, terms: int, *arrays):
    """int64 copies of the object arrays for a product in which each result
    is a sum of at most `terms` products of one entry from each array, or
    None where the product must stay on objects.

    Words are exact when terms * (the product of the arrays' largest
    absolute entries) < 2**63, computed in Python ints: no partial sum can
    leave int64 (the a-priori bound of Dumas, Giorgi and Pernet,
    FFLAS-FFPACK, ACM TOMS 35(3), 2008).  None over Q, on an entry that is
    not a word (astype raises OverflowError) and past the bound.  A result
    w comes back as ring.reduce_array(w).astype(object): Python ints,
    reduced mod p over F_p.
    """
    if ring.tag == "Q":
        return None
    words, bound = [], terms
    for a in arrays:
        try:
            w = a.astype(np.int64)
        except OverflowError:
            return None
        bound *= max(int(w.max(initial=0)), -int(w.min(initial=0)))
        words.append(w)
    return words if bound < 2 ** 63 else None


class ExactMatrix:
    """Matrix over a Ring; entries are exact scalars.

    Storage is one of two forms, exactly one of them authoritative: a
    dense 2-D object array `data`, which every constructor but
    from_nonzeros makes, or the rows {col: value} of the nonzeros, kept
    by from_nonzeros for a matrix born sparse (a coboundary matrix).
    The readers of nonzeros (nonzero_lines) take the kept rows as they
    are; everything else reads `.data`.  Reading `.data` builds the dense
    array once and drops the rows for good, so writes through `.data`
    are seen by every later reader.  A product may run in int64 words
    (as_words)."""

    __slots__ = ("ring", "data")
    _kept = None  # (shape, rows) while a _KeptRows matrix keeps its rows

    def __init__(self, ring: Ring, data: np.ndarray):
        if data.dtype != object or data.ndim != 2:
            raise ValueError("ExactMatrix wants a 2-D object array")
        self.ring = ring
        self.data = data

    # -- constructors

    @staticmethod
    def from_rows(ring: Ring, rows) -> "ExactMatrix":
        return ExactMatrix(ring, _object_rows(ring, rows, ring.normalize))

    @staticmethod
    def from_nonzeros(ring: Ring, shape: tuple, rows: list) -> "ExactMatrix":
        """The matrix of the given shape whose row i holds rows[i], a dict
        {col: value} of normalized nonzeros in ascending columns, kept as
        it is until `.data` is read."""
        m = _KeptRows.__new__(_KeptRows)
        m.ring, m._kept = ring, (shape, rows)
        return m

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(ring, np.zeros((rows, cols), dtype=object))

    @staticmethod
    def identity(ring: Ring, n: int) -> "ExactMatrix":
        return ExactMatrix(ring, np.identity(n, dtype=object))

    # -- shape

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    # -- arithmetic

    def __matmul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise DimensionMismatchError(
                    f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
            ring = self.ring
            (m, k), n = self.data.shape, other.cols
            big = m * k * n >= WORD_MIN_MADDS
            # a zero right factor (a vanishing cochain, say) gives zero
            # without the pass over the left that either path makes; a
            # test on B costs less than a conversion of B
            if k == 0 or big and not np.count_nonzero(other.data):
                return ExactMatrix.zeros(ring, m, n)
            words = as_words(ring, k, self.data, other.data) if big else None
            A, B = words or (self.data, other.data)
            # one rule for words and objects, in object costs: numpy's
            # dense product costs about 1 per multiply-add; a row built
            # from the nonzeros of the left costs about 2 per multiply-add
            # with a nonzero and 256 more, after a scan of A at about 1 per
            # entry; skip the scan when it cannot pay.  In words a scan and
            # a row weigh more against a multiply-add, but constants fitted
            # to words changed neither the seeded T^3 nor the T^4 pipeline
            out = None
            if k * (n - 1) > 256:
                r, c = (A != 0).nonzero()
                if 2 * len(r) * n + 256 * m < A.size * n:
                    out = np.zeros((m, n), dtype=A.dtype)
                    starts = np.flatnonzero(np.diff(r, prepend=-1)).tolist()
                    for lo, hi in zip(starts, starts[1:] + [len(r)]):
                        nz = c[lo:hi]
                        out[r[lo]] = A[r[lo], nz] @ B[nz]
            out = ring.reduce_array(A @ B if out is None else out)
            return ExactMatrix(ring, out if words is None else out.astype(object))
        raise TypeError("use matvec for vectors")

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return shaped_like(v, self @ as_columns(self.ring, v))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(self.ring, self.ring.reduce_array(self.data + other.data))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(self.ring, self.ring.reduce_array(self.data - other.data))

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.ring, self.ring.reduce_array(-self.data))

    def scale(self, c) -> "ExactMatrix":
        c = self.ring.normalize(c)
        return ExactMatrix(self.ring, self.ring.reduce_array(c * self.data))

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack row mismatch")
        return ExactMatrix(self.ring, np.hstack([self.data, other.data]))

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.cols:
            raise DimensionMismatchError("vstack column mismatch")
        return ExactMatrix(self.ring, np.vstack([self.data, other.data]))

    def column(self, j: int) -> np.ndarray:
        return self.data[:, j].copy()

    def take_columns(self, idx) -> "ExactMatrix":
        return ExactMatrix(self.ring, self.data[:, list(idx)].copy())

    def take_rows(self, idx) -> "ExactMatrix":
        return ExactMatrix(self.ring, self.data[list(idx), :].copy())

    # -- predicates

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.data)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.ring == other.ring
                and self.data.shape == other.data.shape
                and not np.count_nonzero(self.data != other.data))

    def __repr__(self):
        return f"ExactMatrix({self.ring.name}, {self.rows}x{self.cols})"

    # -- serialization

    def to_lists(self):
        # only over Q can an entry be a Fraction, which needs a "p/q" string
        if self.ring.tag != "Q":
            return self.ring.reduce_array(self.data).tolist()
        return [[self.ring.scalar_to_json(x) for x in row] for row in self.data]

    @staticmethod
    def from_lists(ring: Ring, rows, shape=None) -> "ExactMatrix":
        if shape is not None and not rows:
            return ExactMatrix.zeros(ring, shape[0], shape[1])
        return ExactMatrix(ring, _object_rows(ring, rows, ring.scalar_from_json))


class _KeptRows(ExactMatrix):
    """A matrix born sparse (ExactMatrix.from_nonzeros).  Its `data` stays
    unset while it keeps its rows, so a read of it falls through to
    __getattr__, which densifies; a class of its own spares every dense
    matrix that hook on each attribute read."""

    __slots__ = ("_kept",)

    def __getattr__(self, name):
        if name != "data" or self._kept is None:
            raise AttributeError(name)
        (rows, cols), kept = self._kept
        self.data = _dense(kept, rows, cols)
        self._kept = None
        return self.data

    @property
    def rows(self) -> int:
        return self.data.shape[0] if self._kept is None else self._kept[0][0]

    @property
    def cols(self) -> int:
        return self.data.shape[1] if self._kept is None else self._kept[0][1]


def _dense(lines: list, rows: int, cols: int) -> np.ndarray:
    """The rows x cols object array whose row i holds lines[i] {col: value}."""
    out = np.zeros((rows, cols), dtype=object)
    for i, line in enumerate(lines):
        if line:
            out[i, list(line)] = list(line.values())
    return out


def nonzero_lines(M: ExactMatrix, transposed: bool = False) -> list:
    """The rows of M (transposed: its columns) as fresh dicts {index: value}
    of their nonzeros, each in ascending index order: a scan of the dense
    array, or copies of kept rows.  Apart from the product, every reader
    of a matrix's nonzeros calls this."""
    if M._kept is not None:
        rows = M._kept[1]
        return _transposed(rows, M.cols) if transposed else [dict(row) for row in rows]
    data = M.data.T if transposed else M.data
    out = [{} for _ in range(data.shape[0])]
    r, c = (data != 0).nonzero()
    for i, j, x in zip(r.tolist(), c.tolist(), data[r, c]):
        out[i][j] = x
    return out


def _transposed(lines: list, n: int) -> list:
    """The n lines {index: value} of the transpose of lines, each in
    ascending index order."""
    out = [{} for _ in range(n)]
    for i, line in enumerate(lines):
        for j, x in line.items():
            out[j][i] = x
    return out


def _object_rows(ring: Ring, rows, scalar) -> np.ndarray:
    """2-D object array of scalar(x) for the entries x of the rows; scalar
    takes an int to its normalized value, so rows of ints, all of one
    length, convert as a whole."""
    rows = list(rows)
    if set(map(type, chain.from_iterable(rows))) <= {int} and len(set(map(len, rows))) == 1:
        return ring.reduce_array(np.array(rows, dtype=object))
    m = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != m.shape[1]:
            raise ValueError("ragged rows")
        m[i] = [scalar(x) for x in row]
    return m


def as_columns(ring: Ring, V) -> "ExactMatrix":
    """V itself when it is a matrix of columns; a vector as its one column."""
    if isinstance(V, ExactMatrix):
        return V
    return ExactMatrix(ring, np.asarray(V, dtype=object).reshape(len(V), 1))


def shaped_like(V, X: "ExactMatrix"):
    """X for a matrix V; for a vector V, the one column of X as a vector."""
    return X if isinstance(V, ExactMatrix) else X.data[:, 0]


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product, row/col indices flattened row-major."""
    return ExactMatrix(a.ring, a.ring.reduce_array(np.kron(a.data, b.data)))


def matmul_kron(M: ExactMatrix, X: ExactMatrix, k: int,
                identity_first: bool = False) -> ExactMatrix:
    """M @ kron(X, I_k), or M @ kron(I_k, X) when identity_first, without
    forming the Kronecker product: M's columns are pairs (row of X, index
    of I_k) or the reverse, so M reshapes to one block of rows per index
    of I_k, one product @ X contracts the rows of X, and the result
    reshapes back (Van Loan's (B (x) A) vec Y = vec(A Y B^T))."""
    (m, n), (a, b) = M.data.shape, X.data.shape
    if n != a * k:
        raise DimensionMismatchError(f"{m}x{n} @ kron of {a}x{b} and I_{k}")
    if identity_first:
        Y = ExactMatrix(M.ring, M.data.reshape(m * k, a)) @ X
        return ExactMatrix(M.ring, Y.data.reshape(m, k * b))
    Y = ExactMatrix(M.ring, M.data.reshape(m, a, k).transpose(0, 2, 1).reshape(m * k, a)) @ X
    return ExactMatrix(M.ring, Y.data.reshape(m, k, b).transpose(0, 2, 1).reshape(m, b * k))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

# The operations of a side, read as row operations R_1, ..., R_k (a column
# operation on A is a row operation on A.T), multiply to T = R_k ... R_1:
# U for the row side and V.T for the column side.  Each transform, acting
# from the left, is T, its inverse or a transpose of these:
# name -> (side, inverse, transposed)
_TRANSFORMS = {"U": ("row", False, False), "Uinv": ("row", True, False),
               "V": ("col", False, True), "Vinv": ("col", True, True)}


@dataclass
class SNFResult:
    """U @ M @ V == D with U, V invertible over the ring.

    shape = the shape of M.  D, of that shape, holds the divisors
    (d_i | d_{i+1}) on its diagonal and zeros elsewhere; it is not
    stored.  rank = len(divisors).
    The reduction records its line operations instead of maintaining the
    transforms: ops holds (side, kind, dst, src, q) in order, side "row"
    (U collects these) or "col" (V), kind "axpy" (line dst -= q * line
    src), "swap" (lines dst and src; q is None) or "scale" (line dst *= q,
    a unit; src == dst).  lmul, rmul, take_rows and take_columns replay
    them on an operand.  The solves, kernel, kernel_coords, image and
    image_coords read only the rows or columns of the transforms that
    they need.
    """

    ring: Ring
    shape: tuple
    rank: int
    divisors: list
    ops: list

    @cached_property
    def _side_ops(self) -> dict:
        """{side: its operations in order}, split once for every replay."""
        return {side: [op for op in self.ops if op[0] == side] for side in ("row", "col")}

    def _replay(self, Y: ExactMatrix, side: str, inverse: bool, transpose: bool,
                columns: bool = False) -> np.ndarray:
        """The rows of Y (columns: of Y.T) with the product of the side's
        operations applied (inverse: its inverse; transpose: its
        transpose), as a new dense array.  The rows are held as {col:
        value} of their nonzeros while the operations run, so each one
        walks only the nonzeros it reads; kept rows of Y are copied, not
        scanned.  A side that recorded no operation gives Y as it is."""
        ops = self._side_ops[side]
        if not ops and Y._kept is None:
            return (Y.data.T if columns else Y.data).copy()
        ring, p = self.ring, self.ring.p
        rows = nonzero_lines(Y, columns)
        for _, kind, dst, src, q in (ops if inverse == transpose else reversed(ops)):
            if kind == "swap":
                rows[dst], rows[src] = rows[src], rows[dst]
            elif kind == "scale":
                f = ring.inv(q) if inverse else q
                rows[dst] = {j: f * x if p is None else f * x % p
                             for j, x in rows[dst].items()}
            else:
                if transpose:
                    dst, src = src, dst
                row, f = rows[dst], (q if inverse else -q)
                for j, x in rows[src].items():
                    v = row.get(j, 0) + f * x
                    if p is not None:
                        v %= p
                    if v:
                        row[j] = v
                    else:
                        row.pop(j, None)
        return _dense(rows, len(rows), Y.rows if columns else Y.cols)

    def lmul(self, name: str, Y: ExactMatrix) -> ExactMatrix:
        """T @ Y for the transform T named U, Uinv, V or Vinv, without building T."""
        return ExactMatrix(self.ring, self._replay(Y, *_TRANSFORMS[name]))

    def rmul(self, X: ExactMatrix, name: str) -> ExactMatrix:
        """X @ T for the transform T named U, Uinv, V or Vinv, without building T."""
        side, inverse, transpose = _TRANSFORMS[name]
        return ExactMatrix(self.ring, self._replay(X, side, inverse, not transpose, True).T)

    def _units(self, name: str, idx) -> ExactMatrix:
        """The columns idx of the identity the size of the transform name."""
        size = self.shape[0] if name in ("U", "Uinv") else self.shape[1]
        m = ExactMatrix.zeros(self.ring, size, len(idx))
        for k, i in enumerate(idx):
            m.data[i, k] = 1
        return m

    def take_rows(self, name: str, idx) -> ExactMatrix:
        """The rows idx of the transform name."""
        units = self._units(name, idx)
        return self.rmul(ExactMatrix(self.ring, units.data.T), name)

    def take_columns(self, name: str, idx) -> ExactMatrix:
        """The columns idx of the transform name."""
        return self.lmul(name, self._units(name, idx))

    def solve_with_certificate(self, B):
        """(X, None) with M X = B, or (None, NoSolutionCertificate) for the
        first column of B without a solution, at its first failing row; B is
        a matrix of right-hand sides, or one vector as its one-column case,
        and X comes back in that form."""
        C = self.lmul("U", as_columns(self.ring, B))
        Y, bad = divide_rows(C, self.divisors)
        if bad.any():
            j = bad.any(axis=0).argmax()
            i = bad[:, j].argmax()
            divisor = self.divisors[i] if i < self.rank else 0
            row = self.take_rows("U", [i]).data[0]
            return None, NoSolutionCertificate(row, divisor, C.data[i, j])
        # V[:, :rank] @ Y is V @ (Y over zero rows)
        X = Y.vstack(ExactMatrix.zeros(self.ring, self.shape[1] - self.rank, Y.cols))
        return shaped_like(B, self.lmul("V", X)), None

    def solve(self, B):
        """X with M X = B, or None when a column of B has no solution."""
        return self.solve_with_certificate(B)[0]

    def kernel(self) -> ExactMatrix:
        """Columns forming a basis of Ker(M) (over Z: of the full lattice):
        the last columns of V."""
        return self.take_columns("V", range(self.rank, self.shape[1]))

    def kernel_coords(self, B: ExactMatrix) -> ExactMatrix:
        """The coordinates on kernel() of the columns of B: the rows rank..
        of Vinv @ B.  NotInSpanError when one of the rows ..rank is not
        zero, that is when some column of B is not in Ker(M): M B is
        Uinv D (Vinv B), and D's first rank diagonal entries are nonzero."""
        full = self.lmul("Vinv", B).data
        if np.count_nonzero(full[:self.rank]):
            raise NotInSpanError("a column is not in the kernel")
        return ExactMatrix(self.ring, full[self.rank:].copy())

    def image(self) -> ExactMatrix:
        """Columns forming a basis of Im(M): the leading columns of Uinv
        scaled by the divisors."""
        scale = np.array(self.divisors, dtype=object)
        return ExactMatrix(self.ring, self.take_columns("Uinv", range(self.rank)).data * scale)

    def image_coords(self, W: ExactMatrix):
        """(Y, bad) for the columns of W on the basis image(): see divide_rows."""
        return divide_rows(self.lmul("U", W), self.divisors)


class _Lines:
    """One side of a matrix held over its nonzeros: the lines {k: value} and
    their transposed index, index[k][i] == lines[i][k], kept in step.  Each
    line operation appends (side, kind, dst, src, q) to ops, as SNFResult
    reads them."""

    def __init__(self, ring: Ring, lines: list, index: list, side: str, ops: list):
        self.ring, self.p = ring, ring.p
        self.lines, self.index, self.side, self.ops = lines, index, side, ops

    def axpy(self, dst: int, src: int, q):
        """line dst -= q * line src."""
        index, p = self.index, self.p
        line = self.lines[dst]
        for k, x in self.lines[src].items():
            v = line.get(k, 0) - q * x
            if p is not None:
                v %= p
            if v:
                line[k] = index[k][dst] = v
            else:
                line.pop(k, None)
                index[k].pop(dst, None)
        self.ops.append((self.side, "axpy", dst, src, q))

    def swap(self, i: int, j: int):
        if i != j:
            lines, index = self.lines, self.index
            for a in (i, j):
                for k in lines[a]:
                    del index[k][a]
            lines[i], lines[j] = lines[j], lines[i]
            for a in (i, j):
                for k, x in lines[a].items():
                    index[k][a] = x
            self.ops.append((self.side, "swap", i, j, None))

    def scale(self, i: int, u):
        """line i *= u, a unit."""
        line = self.lines[i]
        for k, x in line.items():
            line[k] = self.index[k][i] = self.ring.normalize(u * x)
        self.ops.append((self.side, "scale", i, i, u))

    def reduce(self, i: int, t: int, k: int, inv=None) -> bool:
        """line i -= q * line t, q the Euclidean quotient of their entries
        at index k; True when a remainder is left there.  Over F_p, inv
        may be the inverse of line t's entry, and then q = x * inv % p."""
        x = self.lines[i][k]
        q = self.ring.quo(x, self.lines[t][k]) if inv is None else x * inv % self.p
        if q:
            self.axpy(i, t, q)
        return k in self.lines[i]

    def clear(self, t: int, k: int) -> bool:
        """Reduce index k of the lines past t against line t, swapping each
        remainder into line t as it appears; True when one was, which
        restarts the reduction.  Over F_p no remainder is left, so line t
        stays and its entry is inverted once."""
        moved = False
        below = sorted(j for j in self.index[k] if j > t)
        inv = self.ring.inv(self.lines[t][k]) if below and self.p is not None else None
        for i in below:
            if self.reduce(i, t, k, inv):
                self.swap(t, i)
                moved = True
        return moved


def smith_normal_form(M: ExactMatrix) -> SNFResult:
    """Diagonalize M by invertible row/column operations, recording them."""
    ring = M.ring
    rows, cols = M.rows, M.cols
    R = nonzero_lines(M)
    C = _transposed(R, cols)
    ops = []
    row_side, col_side = _Lines(ring, R, C, "row", ops), _Lines(ring, C, R, "col", ops)
    # dead[i]: row i is zero on the trailing block, and stays zero (row
    # operations combine live rows, column operations trailing columns);
    # the flag moves with its row, and dead[rows], always False, ends scans
    dead = [False] * (rows + 1)

    def find_pivot(t):
        # the smallest pivot on the trailing block (by abs over Z; over a
        # field the first), ties by lowest (row, col); a live row i >= t
        # holds only columns >= t
        best = None
        i = dead.index(False, t)
        while i < rows:
            row = R[i]
            if not row:
                dead[i] = True
            elif ring.is_field:
                return i, min(row)
            else:
                j = min(row, key=lambda k: (abs(row[k]), k))
                if best is None or abs(row[j]) < best[0]:
                    best = (abs(row[j]), i, j)
                    if best[0] == 1:
                        break  # nothing beats a unit, except an earlier one
            i = dead.index(False, i + 1)
        return None if best is None else best[1:]

    def fold(t):
        # the pivot must divide the trailing block: fold the first row it
        # does not divide into row t, which restarts the reduction
        piv = R[t][t]
        if ring.is_unit(piv):
            return False
        bad = next((i for i in range(t + 1, rows)
                    if any(x % piv for x in R[i].values())), None)
        if bad is not None:
            row_side.axpy(t, bad, -1)
        return bad is not None

    t = 0
    while (piv := find_pivot(t)) is not None:
        # only this swap can move a dead row: the rows that clear swaps
        # both hold an entry in column t
        row_side.swap(t, piv[0])
        dead[t], dead[piv[0]] = dead[piv[0]], dead[t]
        col_side.swap(t, piv[1])
        while row_side.clear(t, t) or col_side.clear(t, t) or fold(t):
            pass
        # row and column t now hold only the pivot
        u = ring.canonical_unit(R[t][t])
        if u != 1:
            row_side.scale(t, u)
        t += 1

    return SNFResult(ring, (rows, cols), t, [R[i][i] for i in range(t)], ops)


# ---------------------------------------------------------------------------
# Column Hermite form (independent span oracle), solve, kernel, image
# ---------------------------------------------------------------------------

def column_hermite(M: ExactMatrix) -> ExactMatrix:
    """Canonical column echelon form of M (column operations only).

    Over Z: pivots positive, entries left of a pivot in its row reduced to
    [0, pivot); over a field: pivots 1, other entries in pivot rows 0.
    Zero columns are dropped.  Two matrices have equal column span iff
    their forms are equal, which is the independent oracle behind solve().
    The form is unique, so it does not depend on the order of the
    reduction, which runs on the SNF's line kernel, on the columns.
    """
    ring = M.ring
    R = nonzero_lines(M)
    C = _transposed(R, M.cols)
    cols = _Lines(ring, C, R, "col", [])
    t = 0
    for r in range(M.rows):
        if t >= M.cols:
            break
        live = [j for j in R[r] if j >= t]
        if not live:
            continue
        # Euclid in rounds against the smallest entry (over a field the
        # first): clear's swap of each remainder into the pivot as it comes
        # compounds the growth in the other rows, as the pinned SNF must
        while live:
            cols.swap(t, min(live, key=lambda j: (abs(C[j][r]), j))
                      if ring.tag == "Z" else min(live))
            live = [i for i in sorted(j for j in R[r] if j > t) if cols.reduce(i, t, r)]
        u = ring.canonical_unit(C[t][r])
        if u != 1:
            cols.scale(t, u)
        # reduce earlier columns against this pivot for canonicity; over Z
        # this leaves their entries in [0, pivot)
        for j in sorted(j for j in R[r] if j < t):
            cols.reduce(j, t, r)
        t += 1
    # Fraction arithmetic can leave an integral Fraction; return it as an int
    out = ExactMatrix.zeros(ring, M.rows, t)
    for j in range(t):
        out.data[list(C[j]), j] = [ring.normalize(x) for x in C[j].values()]
    return out


@dataclass
class NoSolutionCertificate:
    """Witness that M x = b has no solution over the ring.

    row @ M is divisible by `divisor` entrywise-in-the-lattice sense
    (row @ M == divisor * integral row), while row @ b is not divisible
    by `divisor` (divisor == 0 encodes: row @ M == 0 but row @ b != 0).
    """

    row: np.ndarray
    divisor: object
    value: object

    def check(self, M: ExactMatrix, b: np.ndarray) -> bool:
        ring = M.ring
        lhs = ring.reduce_array(self.row @ M.data) if M.cols else zero_vector(ring, 0)
        val = ring.normalize(sum(self.row * b))
        if self.divisor == 0:
            return all(x == 0 for x in lhs) and val != 0
        return (all(ring.divides(self.divisor, x) for x in lhs)
                and not ring.divides(self.divisor, val))


def divide_rows(C: ExactMatrix, divisors):
    """(Y, bad) for diag(divisors) Y = C: Y is the leading rows of C divided
    by the divisors, bad marks the entries without a quotient (indivisible,
    or nonzero past the divisors).  Over a field every SNF divisor is 1, so
    Y is those rows: over F_p as they are, already reduced, and over Q in
    canonical form (integral Fractions become ints)."""
    r = len(divisors)
    head = C.data[:r]
    bad = C.data != 0
    bad[:r] = False
    if C.ring.tag == "Z":
        d = np.array(divisors, dtype=object).reshape(r, 1)
        bad[:r] = head % d != 0
        head = head // d
    elif C.ring.tag == "Q":
        head = np.frompyfunc(C.ring.normalize, 1, 1)(head)
    return ExactMatrix(C.ring, head), bad


def solve(M: ExactMatrix, b: np.ndarray):
    """One exact solution of M x = b, or None.  Deterministic."""
    return smith_normal_form(M).solve(b)


def solve_with_certificate(M: ExactMatrix, B):
    """(solution, None) or (None, NoSolutionCertificate); see SNFResult."""
    return smith_normal_form(M).solve_with_certificate(B)


def solve_matrix(M: ExactMatrix, B: ExactMatrix):
    """X with M @ X == B, or None when a column of B has no solution."""
    return smith_normal_form(M).solve(B)


# ---------------------------------------------------------------------------
# Subquotients
# ---------------------------------------------------------------------------

@dataclass
class Subquotient:
    """A subquotient span(generators)/span(relations) of a free ambient module.

    reduced_gens / orders give a normalized presentation: the class group is
    the direct sum of cyclic groups of the listed orders (0 = free summand);
    order-1 generators are dropped.  classify() writes the class of an
    ambient vector in these coordinates, canonically.
    """

    ring: Ring
    generators: ExactMatrix
    relations: ExactMatrix
    invariant_factors: list = field(default_factory=list)
    reduced_gens: ExactMatrix = None
    orders: list = field(default_factory=list)
    _basis: ExactMatrix = None      # canonical basis of span(generators)
    _gen_snf: SNFResult = None      # of _basis
    _coord_map: ExactMatrix = None  # basis-coords -> reduced coords (kept rows of U)

    @staticmethod
    def from_gens_rels(ring: Ring, generators: ExactMatrix,
                       relations: ExactMatrix | None = None) -> "Subquotient":
        if relations is None:
            relations = ExactMatrix.zeros(ring, generators.rows, 0)
        sq = Subquotient(ring, generators, relations)
        sq._build()
        return sq

    def _build(self):
        # generators may be dependent; present the module on a basis of
        # their span so the invariant factors describe the actual group
        self._basis = column_hermite(self.generators)
        g = self._basis.cols
        self._gen_snf = smith_normal_form(self._basis)
        Xm = self._gen_snf.solve(self.relations)
        if Xm is None:
            raise NotInSpanError("relations not contained in span(generators)")
        s = smith_normal_form(Xm)
        # presentation matrix diag: the invariant factors of gens/rels
        facs = list(s.divisors) + [0] * (g - s.rank)
        self.invariant_factors = facs
        # new generator basis: basis @ Uinv; relations become d_i * (new gen i)
        kept = [i for i in range(g)
                if facs[i] == 0 or not self.ring.is_unit(facs[i])]
        self.reduced_gens = s.rmul(self._basis, "Uinv").take_columns(kept)
        self.orders = [facs[i] for i in kept]
        self._coord_map = s.take_rows("U", kept)

    # -- queries

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.orders if d == 0)

    @property
    def torsion(self) -> list:
        return [d for d in self.orders if d != 0]

    def is_member(self, v: np.ndarray) -> bool:
        return self._gen_snf.solve(v) is not None

    def classify(self, V):
        """Coordinates on reduced_gens of the classes of the columns of V (or
        of one vector), torsion ones reduced mod their orders; NotInSpanError
        when a column is not in span(generators)."""
        X = self._gen_snf.solve(as_columns(self.ring, V))
        if X is None:
            raise NotInSpanError("vector not in span(generators)")
        return shaped_like(V, self.reduce(self._coord_map @ X))

    def reduce(self, Y: ExactMatrix) -> ExactMatrix:
        """Class coordinates Y (one row per reduced generator) with each
        torsion row reduced modulo its order."""
        orders = np.array(self.orders, dtype=object).reshape(-1, 1)
        torsion = orders[:, 0] != 0
        out = Y.data.copy()
        out[torsion] = out[torsion] % orders[torsion]
        return ExactMatrix(self.ring, out)

    def describe(self) -> dict:
        return {"free_rank": self.free_rank,
                "torsion": [self.ring.scalar_to_json(d) for d in self.torsion]}


# ---------------------------------------------------------------------------
# Cohomology of a cochain complex
# ---------------------------------------------------------------------------

@dataclass
class CohomologyDegree:
    """Degree n of a cochain complex: Z^n is spanned by the last columns of
    V of SNF(d^n), B^n by the divisor-scaled leading columns of Uinv of
    SNF(d^{n-1})."""

    ring: Ring
    snf: SNFResult                 # of d^n : C^n -> C^{n+1}
    prev: SNFResult | None         # of d^{n-1}; None in the lowest degree

    @property
    def kernel(self) -> ExactMatrix:
        return self.snf.kernel()

    @property
    def image(self) -> ExactMatrix:
        if self.prev is None:
            return ExactMatrix.zeros(self.ring, self.snf.shape[1], 0)
        return self.prev.image()

    def group(self) -> Subquotient:
        """H^n = Z^n / B^n as a presented subquotient (torsion included)."""
        return Subquotient.from_gens_rels(self.ring, self.kernel, self.image)


def complex_cohomology(ring: Ring, degrees, d) -> dict:
    """{n: CohomologyDegree} for the complex with differentials d(n), n in
    the ascending, contiguous `degrees`; one SNF per degree."""
    out = {}
    prev = None
    for n in degrees:
        snf = smith_normal_form(d(n))
        out[n] = CohomologyDegree(ring, snf, prev)
        prev = snf
    return out
