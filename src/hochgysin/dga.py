"""Finite dg-algebras and right dg-modules: data model, axiom validation,
simplicial cochains.

A DgAlgebra is a graded module with per-degree bases, differential
matrices and a sparse multiplication tensor; a DgModule (the mapping
cone) has the same shape with a sparse action tensor.  The only
constructor of mathematical interest is ``cochain_algebra``: simplicial
cochains with the coboundary (d phi)(sigma) = sum_i (-1)^i
phi(face_i sigma) and the front-face/back-face cup product, which is
strictly associative.

Tensors are kept sparse as (i, j, k, coeff) entries per degree block.
One walk over those entries checks d^2 = 0, Leibniz, associativity and
the right unit of a right dg-module; an algebra is checked as a right
module over itself, plus its shapes, d(1) = 0 and the left unit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exactlin import (
    ExactMatrix, Ring, as_vector, int_from_json, ints_from_key, ring_from_name,
)
from .simplicial import SimplicialComplex


class DgaFormatError(Exception):
    pass


class DgaValidationError(Exception):
    def __init__(self, report):
        self.report = report
        super().__init__("; ".join(f"{c.name}: {c.witness}" for c in report.failures()))


@dataclass
class Check:
    name: str
    passed: bool
    witness: str | None = None


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "checks": [{"name": c.name, "passed": c.passed, "witness": c.witness}
                           for c in self.checks]}


@dataclass
class DgAlgebra:
    ring: Ring
    top_degree: int
    ranks: list                      # rank of C^n for 0 <= n <= top_degree
    diff: dict                       # n -> ExactMatrix C^n -> C^{n+1}
    product: dict                    # (p, q) -> tuple of (i, j, k, coeff)
    unit: np.ndarray                 # coordinates of 1 in C^0

    def rank(self, n: int) -> int:
        return self.ranks[n] if 0 <= n <= self.top_degree else 0

    def d(self, n: int) -> ExactMatrix:
        if n in self.diff:
            return self.diff[n]
        return ExactMatrix.zeros(self.ring, self.rank(n + 1), self.rank(n))

    def entries(self, p: int, q: int):
        return self.product.get((p, q), ())

    def bilinear_block(self, p: int, q: int, left: ExactMatrix,
                       right: ExactMatrix) -> ExactMatrix:
        """Matrix of (a, b) -> left_a * right_b, columns flattened row-major.

        left: C^p x A, right: C^q x B; result: C^{p+q} x (A*B).
        """
        return _bilinear_block(self.entries(p, q), self.rank(p + q), left, right)

    def __eq__(self, other):
        return (isinstance(other, DgAlgebra) and self.ring == other.ring
                and self.top_degree == other.top_degree and self.ranks == other.ranks
                and all(self.d(n) == other.d(n) for n in range(self.top_degree + 1))
                and self._norm_product() == other._norm_product()
                and list(self.unit) == list(other.unit))

    def as_module(self) -> "DgModule":
        """The algebra as a right dg-module over itself."""
        degrees = list(range(self.top_degree + 1))
        return DgModule(self, degrees, {n: self.rank(n) for n in degrees},
                        self.diff, self.product)

    def _norm_product(self):
        return {pq: sorted((i, j, k, self.ring.scalar_to_json(c)) for i, j, k, c in ent
                           if c != 0)
                for pq, ent in self.product.items()
                if any(c != 0 for _, _, _, c in ent)}


@dataclass
class DgModule:
    """Right dg-module over a DgAlgebra, graded over a contiguous degree range."""

    algebra: DgAlgebra
    degrees: list                    # ascending, contiguous
    ranks: dict                      # degree -> rank
    diff: dict                       # degree -> ExactMatrix M^n -> M^{n+1}
    action: dict                     # (n, q) -> tuple of (i, j, k, coeff)

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def d(self, n: int) -> ExactMatrix:
        if n in self.diff:
            return self.diff[n]
        return ExactMatrix.zeros(self.algebra.ring, self.rank(n + 1), self.rank(n))

    def entries(self, n: int, q: int):
        return self.action.get((n, q), ())

    def bilinear_block(self, n: int, q: int, left: ExactMatrix,
                       right: ExactMatrix) -> ExactMatrix:
        """Matrix of (a, b) -> left_a . right_b, columns flattened row-major.

        left: M^n x A, right: C^q x B; result: M^{n+q} x (A*B).
        """
        return _bilinear_block(self.entries(n, q), self.rank(n + q), left, right)


def _bilinear_block(entries, size: int, left: ExactMatrix,
                    right: ExactMatrix) -> ExactMatrix:
    """The bilinear map of a sparse (i, j, k, coeff) tensor on the column
    pairs of left and right, pair (a, b) in column a * right.cols + b."""
    ring = left.ring
    a, b = left.cols, right.cols
    out = np.zeros((size, a * b), dtype=object)
    for i, j, k, c in entries:
        out[k] += c * np.outer(left.data[i], right.data[j]).reshape(a * b)
    return ExactMatrix(ring, ring.reduce_array(out))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _sparse_cols(m: ExactMatrix):
    """column j -> list of (row, coeff) for the nonzero entries."""
    cols = [[] for _ in range(m.cols)]
    for i, j in zip(*np.nonzero(m.data)):
        cols[j].append((int(i), m.data[i, j]))
    return cols


def _first_mismatch(ring: Ring, lhs: dict, rhs: dict):
    for key in set(lhs) | set(rhs):
        if ring.normalize(lhs.get(key, 0)) != ring.normalize(rhs.get(key, 0)):
            return key
    return None


def _d_squared_defect(m: DgModule, cols):
    """(n, j, row) of the first nonzero entry of d(d(e_j^n)), or None."""
    ring = m.algebra.ring
    for n in m.degrees:
        dn1 = cols(n + 1)
        for j, col in enumerate(cols(n)):
            acc = {}
            for i, c in col:
                for i2, c2 in dn1[i]:
                    acc[i2] = acc.get(i2, 0) + c * c2
            bad = [k for k, v in acc.items() if ring.normalize(v) != 0]
            if bad:
                return n, j, bad[0]
    return None


def _leibniz_defect(m: DgModule, cols):
    """(n, q, (i, j)) where D(e_i e_j) != D(e_i) e_j + (-1)^n e_i d(e_j), or None.

    The right-hand side visits only the tensor entries present: `up` indexed
    by its first factor, `right` by its second, each sorted stably by the
    other factor, so rhs gets its keys in the order of a loop over every
    basis pair and the first mismatch reported does not depend on the index."""
    a = m.algebra
    ring = a.ring
    for (n, q), ent in sorted(m.action.items()):
        dnq = cols(n + q)
        dn = cols(n)
        dq = _sparse_cols(a.d(q))
        up = {}
        right = {}
        for i, j, k, c in sorted(m.entries(n + 1, q), key=lambda e: e[1]):
            up.setdefault(i, []).append((j, k, c))
        for i, j, k, c in sorted(m.entries(n, q + 1), key=lambda e: e[0]):
            right.setdefault(j, []).append((i, k, c))
        lhs = {}
        for i, j, k, c in ent:
            for t, c2 in dnq[k]:
                key = (i, j, t)
                lhs[key] = lhs.get(key, 0) + c * c2
        rhs = {}
        for i in range(m.rank(n)):
            for i2, c in dn[i]:
                for j, t, c2 in up.get(i2, ()):
                    key = (i, j, t)
                    rhs[key] = rhs.get(key, 0) + c * c2
        # n < 0 in a shifted module, where (-1) ** n would be a float
        sign = ring.normalize(-1 if n % 2 else 1)
        for j in range(a.rank(q)):
            for j2, c in dq[j]:
                for i, t, c2 in right.get(j2, ()):
                    key = (i, j, t)
                    rhs[key] = rhs.get(key, 0) + sign * c * c2
        key = _first_mismatch(ring, lhs, rhs)
        if key is not None:
            return n, q, key[:2]
    return None


def _associativity_defect(m: DgModule):
    """(n, p, q, (i, j, l)) where (e_i e_j) e_l != e_i (e_j e_l), or None."""
    a = m.algebra
    ring = a.ring
    top = a.top_degree
    hi = m.degrees[-1]
    for n in m.degrees:
        for p in range(top + 1):
            for q in range(top + 1 - p):
                if n + p + q > hi:
                    continue
                left = {}
                idx = {}
                for i, j, k, c in m.entries(n, p):
                    idx.setdefault(k, []).append((i, j, c))
                for k, l, t, c2 in m.entries(n + p, q):
                    for i, j, c1 in idx.get(k, ()):
                        key = (i, j, l, t)
                        left[key] = left.get(key, 0) + c1 * c2
                right = {}
                idx = {}
                for j, l, k, c in a.entries(p, q):
                    idx.setdefault(k, []).append((j, l, c))
                for i, k, t, c2 in m.entries(n, p + q):
                    for j, l, c1 in idx.get(k, ()):
                        key = (i, j, l, t)
                        right[key] = right.get(key, 0) + c1 * c2
                key = _first_mismatch(ring, left, right)
                if key is not None:
                    return n, p, q, key[:3]
    return None


def _unit_defect(ring: Ring, entries, unit, size: int):
    """First (i, k), row-major, where e_i * 1 misses e_i, from the (i, u, k, c)
    entries of the product with degree-0 basis vectors e_u; only the
    entries present are visited."""
    acc = {}
    for i, u, k, c in entries:
        if unit[u] != 0:
            acc[(i, k)] = acc.get((i, k), 0) + unit[u] * c
    bad = [(i, k) for (i, k), v in acc.items() if i < size and k < size
           and ring.normalize(v) != (1 if i == k else 0)]
    bad += [(i, i) for i in range(size) if (i, i) not in acc]
    return min(bad, default=None)


def _module_defects(m: DgModule) -> dict:
    """The first defect of each right dg-module axiom (None when it holds)."""
    cache = {}

    def cols(n):
        if n not in cache:
            cache[n] = _sparse_cols(m.d(n))
        return cache[n]

    a = m.algebra
    units = ((n, _unit_defect(a.ring, m.entries(n, 0), a.unit, m.rank(n)))
             for n in m.degrees)
    return {"d_squared": _d_squared_defect(m, cols),
            "leibniz": _leibniz_defect(m, cols),
            "associativity": _associativity_defect(m),
            "unit": next(((n, bad) for n, bad in units if bad is not None), None)}


def _check_shapes(a: DgAlgebra, checks):
    if len(a.ranks) != a.top_degree + 1 or any(r < 0 for r in a.ranks):
        # the shapes below are read off the ranks: stop at the first failure
        checks.append(Check("shapes", False, "ranks list does not match top_degree"))
        return
    ok, witness = True, None
    for n in range(a.top_degree + 1):
        d = a.d(n)
        if d.rows != a.rank(n + 1) or d.cols != a.rank(n):
            ok, witness = False, f"diff[{n}] has shape {d.rows}x{d.cols}"
    for (p, q), ent in a.product.items():
        if p < 0 or q < 0 or p + q > a.top_degree:
            if any(c != 0 for _, _, _, c in ent):
                ok, witness = False, f"product block ({p},{q}) outside degree range"
            continue
        for i, j, k, c in ent:
            if not (0 <= i < a.rank(p) and 0 <= j < a.rank(q) and 0 <= k < a.rank(p + q)):
                ok, witness = False, f"product entry ({p},{q},{i},{j},{k}) out of range"
    if len(a.unit) != a.rank(0):
        ok, witness = False, "unit vector has wrong length"
    checks.append(Check("shapes", ok, witness))


def _algebra_unit(a: DgAlgebra, right) -> Check:
    """d(1) = 0 and the two-sided unit; right is the module walk's defect."""
    if a.rank(0) == 0:
        return Check("unit", False, "C^0 = 0 cannot contain a unit")
    if any(x != 0 for x in a.d(0).matvec(a.unit)):
        return Check("unit", False, "d(1) != 0")
    for p in range(a.top_degree + 1):
        swapped = ((i, u, k, c) for u, i, k, c in a.entries(0, p))
        lbad = _unit_defect(a.ring, swapped, a.unit, a.rank(p))
        rbad = right[1] if right is not None and right[0] == p else None
        if lbad is not None and (rbad is None or lbad <= rbad):
            i = lbad[0]
            return Check("unit", False, f"1 * e_{i}^{p} != e_{i}^{p}")
        if rbad is not None:
            i = rbad[0]
            return Check("unit", False, f"e_{i}^{p} * 1 != e_{i}^{p}")
    return Check("unit", True)


def validate(a: DgAlgebra) -> ValidationReport:
    """Check every dg-algebra axiom; failures carry a witness."""
    checks = []
    _check_shapes(a, checks)
    if not checks[-1].passed:
        return ValidationReport(checks)
    bad = _module_defects(a.as_module())
    d2 = bad["d_squared"]
    leib = bad["leibniz"]
    assoc = bad["associativity"]
    checks.append(Check("d_squared", d2 is None, d2 and
                        f"d(d(e_{d2[1]}^{d2[0]})) has entry at {d2[2]}"))
    checks.append(Check("leibniz", leib is None, leib and
                        f"(p,q)=({leib[0]},{leib[1]}) basis pair {leib[2]}"))
    checks.append(Check("associativity", assoc is None, assoc and
                        f"degrees ({assoc[0]},{assoc[1]},{assoc[2]}) "
                        f"basis triple {assoc[3]}"))
    checks.append(_algebra_unit(a, bad["unit"]))
    return ValidationReport(checks)


def validate_module(m: DgModule) -> ValidationReport:
    """D^2 = 0, module Leibniz, action associativity and unit action."""
    bad = _module_defects(m)
    d2, leib, assoc, unit = (bad[k] for k in
                             ("d_squared", "leibniz", "associativity", "unit"))
    return ValidationReport([
        Check("module_d_squared", d2 is None, d2 and f"D^2 != 0 at degree {d2[0]}"),
        Check("module_leibniz", leib is None, leib and
              f"module Leibniz fails at ({leib[0]},{leib[1]}) pair {leib[2]}"),
        Check("module_associativity", assoc is None, assoc and
              f"action associativity fails at ({assoc[0]},{assoc[1]},{assoc[2]})"),
        Check("module_unit", unit is None, unit and
              f"unit action fails at degree {unit[0]} basis {unit[1][0]}"),
    ])


# ---------------------------------------------------------------------------
# Simplicial cochain algebras
# ---------------------------------------------------------------------------

def cochain_algebra(k: SimplicialComplex, ring: Ring) -> DgAlgebra:
    """Simplicial cochains of k with the front/back-face cup product.

    Basis of C^n: duals of the n-simplices in lexicographic order.
    """
    simplices = k.simplices()
    top = len(simplices) - 1
    if top < 0:
        raise ValueError("empty complex has no cochain algebra")
    index = [{s: i for i, s in enumerate(level)} for level in simplices]
    ranks = [len(level) for level in simplices]

    diff = {}
    for n in range(top):
        m = ExactMatrix.zeros(ring, ranks[n + 1], ranks[n])
        for row, s in enumerate(simplices[n + 1]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                col = index[n][face]
                m.data[row, col] = ring.normalize(m.data[row, col] + (-1) ** i)
        diff[n] = m

    product = {}
    for n, level in enumerate(simplices):
        for kidx, s in enumerate(level):
            for p in range(n + 1):
                q = n - p
                front = s[:p + 1]
                back = s[p:]
                product.setdefault((p, q), []).append(
                    (index[p][front], index[q][back], kidx, 1))
    product = {pq: tuple(ent) for pq, ent in product.items()}

    unit = as_vector(ring, [1] * ranks[0])
    return DgAlgebra(ring, top, ranks, diff, product, unit)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def dga_to_json(a: DgAlgebra) -> dict:
    return {
        "ring": a.ring.name,
        "top_degree": a.top_degree,
        "ranks": list(a.ranks),
        "diff": {str(n): a.d(n).to_lists() for n in range(a.top_degree)
                 if a.rank(n) and a.rank(n + 1)},
        "product": {f"{p},{q}": [[i, j, k, a.ring.scalar_to_json(c)]
                                 for i, j, k, c in ent if c != 0]
                    for (p, q), ent in sorted(a.product.items())},
        "unit": [a.ring.scalar_to_json(x) for x in a.unit],
    }


def dga_from_json(payload: dict) -> DgAlgebra:
    try:
        ring = ring_from_name(payload["ring"])
        top = int_from_json(payload["top_degree"])
        ranks = [int_from_json(r) for r in payload["ranks"]]
        diff = {}
        for key, rows in payload.get("diff", {}).items():
            (n,) = ints_from_key(key)
            shape = (ranks[n + 1] if n + 1 <= top else 0, ranks[n])
            diff[n] = ExactMatrix.from_lists(ring, rows, shape=shape)
        product = {}
        for key, ent in payload.get("product", {}).items():
            p, q = ints_from_key(key)
            product[(p, q)] = tuple((int_from_json(i), int_from_json(j), int_from_json(k),
                                     ring.scalar_from_json(c)) for i, j, k, c in ent)
        unit = as_vector(ring, [ring.scalar_from_json(x) for x in payload["unit"]])
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise DgaFormatError(f"malformed dg-algebra file: {exc}") from exc
    return DgAlgebra(ring, top, ranks, diff, product, unit)


def load_dga(path) -> DgAlgebra:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DgaFormatError(f"cannot read dg-algebra: {exc}") from exc
    a = dga_from_json(payload)
    report = validate(a)
    if not report.passed:
        raise DgaValidationError(report)
    return a
