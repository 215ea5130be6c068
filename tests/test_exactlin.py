import hashlib
import json
import random
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hochgysin.dga import cochain_algebra
from hochgysin.exactlin import (
    ZZ, QQ, GF, ExactMatrix, NotInSpanError, Solver, Subquotient, as_vector,
    column_hermite, kernel_basis, ring_from_name, smith_normal_form, solve, solve_matrix,
    solve_with_certificate, vec_is_zero, zero_vector,
)
from hochgysin.sections import build_sections
from hochgysin.simplicial import build_torus

RINGS = [ZZ, QQ, GF(2), GF(3), GF(5)]


def ring_seed(ring) -> int:
    """A per-ring seed that, unlike hash(), is the same in every process."""
    return zlib.crc32(ring.name.encode("ascii"))


def random_matrix(ring, rows, cols, rng, lo=-4, hi=4):
    if not rows:
        return ExactMatrix.zeros(ring, 0, cols)
    return ExactMatrix.from_rows(
        ring, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def is_identity(m):
    return m == ExactMatrix.identity(m.ring, m.rows)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_identity():
    s = smith_normal_form(ExactMatrix.identity(ZZ, 2))
    assert s.D == ExactMatrix.identity(ZZ, 2)
    assert is_identity(s.U @ s.Uinv)
    assert is_identity(s.V @ s.Vinv)


def test_snf_two_by_two_example():
    M = ExactMatrix.from_rows(ZZ, [[2, 4], [6, 8]])
    s = smith_normal_form(M)
    assert s.divisors == [2, 4]            # |det M| = 8 = 2*4
    assert (s.U @ M) @ s.V == s.D
    assert is_identity(s.U @ s.Uinv) and is_identity(s.V @ s.Vinv)


def test_snf_zero_matrix():
    M = ExactMatrix.zeros(ZZ, 3, 2)
    s = smith_normal_form(M)
    assert s.D.is_zero()
    assert is_identity(s.U) and is_identity(s.V)
    assert s.rank == 0


@pytest.mark.parametrize("ring", RINGS)
def test_snf_random_properties(ring):
    rng = random.Random(20240 + ring_seed(ring) % 97)
    for trial in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = random_matrix(ring, rows, cols, rng)
        s = smith_normal_form(M)
        assert (s.U @ M) @ s.V == s.D
        assert is_identity(s.U @ s.Uinv)
        assert is_identity(s.V @ s.Vinv)
        # diagonal, divisibility chain, canonical pivots
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s.D.data[i, j] == 0
        ds = s.divisors
        for a, b in zip(ds, ds[1:]):
            assert ring.divides(a, b)
        if ring.tag == "Z":
            assert all(d > 0 for d in ds)
        else:
            assert all(d == 1 for d in ds)


def test_snf_deterministic():
    rng = random.Random(7)
    M = random_matrix(ZZ, 5, 4, rng)
    s1, s2 = smith_normal_form(M), smith_normal_form(ExactMatrix(ZZ, M.data.copy()))
    assert s1.U == s2.U and s1.V == s2.V and s1.D == s2.D


def test_snf_matches_minor_gcd_oracle():
    # classical characterization: d_1 ... d_k = gcd of all k x k minors
    from itertools import combinations
    from math import gcd

    def minor_gcds(m):
        rows, cols = m.rows, m.cols
        out = []
        for k in range(1, min(rows, cols) + 1):
            g = 0
            for ri in combinations(range(rows), k):
                for ci in combinations(range(cols), k):
                    g = gcd(g, _det([[m.data[i, j] for j in ci] for i in ri]))
            out.append(g)
        return out

    def _det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            sub = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(sub)
        return total

    rng = random.Random(606)
    for trial in range(25):
        m = random_matrix(ZZ, rng.randint(1, 4), rng.randint(1, 4), rng, -6, 6)
        s = smith_normal_form(m)
        gcds = minor_gcds(m)
        prod = 1
        for i, d in enumerate(s.divisors):
            prod *= d
            assert prod == gcds[i], (trial, s.divisors, gcds)
        for i in range(len(s.divisors), len(gcds)):
            assert gcds[i] == 0


# The exact operation sequence of smith_normal_form is part of its contract:
# U, V and their inverses become witnesses, certificates and canonical bases
# downstream.  These digests were taken from the kernel before its row and
# column passes were merged; the Z batch reaches the Euclid remainder swap in
# the row pass and in the column pass, and the divisibility-offender fold.
SNF_PIN = {
    "Z": (ZZ, 1000, "a1af6b542565abf76407d3cb180f075569c48024ebc9eee2b89a58e57df4e934"),
    "Q": (QQ, 1001, "132942da831c7fe24de06094467c734cf33b55c9af62eaa83377feefd7998437"),
    "F2": (GF(2), 1002, "b45cab8a4b5c886ea7fae6585d14265c9255b7e944655d1132c41692ba108659"),
    "F5": (GF(5), 1003, "35968f5c4d2c66ac555c0b6c1f1431189f4a866afb5737a2ad48a6848793e4a4"),
}
NO_UNITS = [0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9]


def pin_matrix(ring, rng, kind):
    """kind 0: dense small; 1: sparse; 2: no unit entries (over Q: fractions)."""
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)

    def entry():
        if kind == 0:
            return rng.randint(-4, 4)
        if kind == 1:
            return 0 if rng.random() < 0.7 else rng.randint(-9, 9)
        if ring.tag == "Q":
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.choice(NO_UNITS)
    return ExactMatrix.from_rows(ring, [[entry() for _ in range(cols)] for _ in range(rows)])


def snf_digest(ring, matrices) -> str:
    """sha256 over U, D, V, Uinv, Vinv and the divisors of each SNF."""
    h = hashlib.sha256()
    for M in matrices:
        s = smith_normal_form(M)
        h.update(json.dumps([m.to_lists() for m in (s.U, s.D, s.V, s.Uinv, s.Vinv)]
                            + [[ring.scalar_to_json(d) for d in s.divisors]]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SNF_PIN))
def test_snf_operation_sequence_pinned(name):
    ring, seed, expected = SNF_PIN[name]
    rng = random.Random(seed)
    assert snf_digest(ring, (pin_matrix(ring, rng, k % 3) for k in range(60))) == expected


# Tall, sparse, rank-deficient inputs with many zero rows: the pivot search
# meets rows that are zero on the trailing block again and again, which the
# small inputs above barely reach.  Digests taken from the kernel that still
# rescanned every row and maintained all four transforms.
SNF_SPARSE_PIN = {
    "Z": (ZZ, 2000, "301b2411d50611d0d78741ae3136d95d357dc03c7c67add7b990d2b07a981f6f"),
    "Q": (QQ, 2001, "ddf86e7d81261f28968e6c4d00eea25bf6110e71dda54d47201ed02072067fce"),
    "F2": (GF(2), 2002, "d38cc8e804f0a21cc493c28076f5a1a00e9b5a492ccd603d62a7eebd2af8ba85"),
    "F5": (GF(5), 2003, "d296579cf0f6cda55b0a64a281a9961f37fe1dda1a73b95bdd0ff5b61245304a"),
}


def sparse_pin_matrix(ring, rng):
    """20-40 x 5-15, about 85 % zeros, each row zero with probability 0.4,
    and one to three columns the difference of two others."""
    rows, cols = rng.randint(20, 40), rng.randint(5, 15)

    def entry():
        if rng.random() < 0.75:
            return 0
        if ring.tag == "Q" and rng.random() < 0.3:
            return Fraction(rng.randint(-4, 4), rng.randint(2, 3))
        return rng.choice([1, -1, 2, -2, 3, -3, 4, 6])
    data = [[0] * cols if rng.random() < 0.4 else [entry() for _ in range(cols)]
            for _ in range(rows)]
    for j in rng.sample(range(cols), rng.randint(1, 3)):
        a, b = rng.sample([k for k in range(cols) if k != j], 2)
        for row in data:
            row[j] = row[a] - row[b]
    return ExactMatrix.from_rows(ring, data)


@pytest.mark.parametrize("name", sorted(SNF_SPARSE_PIN))
def test_snf_operation_sequence_pinned_sparse(name):
    ring, seed, expected = SNF_SPARSE_PIN[name]
    rng = random.Random(seed)
    assert snf_digest(ring, (sparse_pin_matrix(ring, rng) for _ in range(24))) == expected


TRANSFORMS = ("U", "Uinv", "V", "Vinv")


def replay_cases(ring, rng):
    """Seeded inputs: empty shapes, zero, identity, full rank and random."""
    yield ExactMatrix.zeros(ring, 0, 3)
    yield ExactMatrix.zeros(ring, 3, 0)
    yield ExactMatrix.zeros(ring, 4, 3)
    yield ExactMatrix.identity(ring, 3)
    yield ExactMatrix.from_rows(ring, [[2, 1, 0], [1, 1, 0], [0, 3, 1]])   # det 1
    for _ in range(12):
        yield random_matrix(ring, rng.randint(1, 6), rng.randint(1, 6), rng)
    for _ in range(3):
        yield sparse_pin_matrix(ring, rng)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)])
def test_snf_replay_matches_materialized_transforms(ring):
    rng = random.Random(31 + ring_seed(ring) % 83)
    for M in replay_cases(ring, rng):
        s = smith_normal_form(M)
        fresh = smith_normal_form(M)           # only replays: it builds no transform
        for name in TRANSFORMS:
            T = getattr(s, name)
            n = T.rows
            k = rng.randint(0, 3)
            Y, X = random_matrix(ring, n, k, rng), random_matrix(ring, k, n, rng)
            assert fresh.lmul(name, Y) == T @ Y
            assert fresh.rmul(X, name) == X @ T
            idx = sorted(rng.sample(range(n), rng.randint(0, n)))
            assert fresh.take_rows(name, idx) == T.take_rows(idx)
            assert fresh.take_columns(name, idx) == T.take_columns(idx)
        assert not set(TRANSFORMS) & set(vars(fresh))
        assert (s.U @ M) @ s.V == s.D
        assert is_identity(s.U @ s.Uinv) and is_identity(s.V @ s.Vinv)


# ---------------------------------------------------------------------------
# Sparse kernels against their dense references (tests/oracles.py)
# ---------------------------------------------------------------------------

ORACLE_RINGS = [ZZ, GF(5), QQ]


def assert_same_entries(got, ref):
    """Equal entry for entry; over Z and F_p with equal Python types, over Q
    with no Fraction where the reference holds an int."""
    assert got.ring == ref.ring and got.data.shape == ref.data.shape
    for x, y in zip(got.data.flat, ref.data.flat):
        assert x == y
        if got.ring.tag == "Q":
            assert not (type(x) is Fraction and type(y) is int), (x, y)
        else:
            assert type(x) is type(y) is int, (x, y)


def oracle_matrix(ring, rows, cols, rng, density):
    """Entries nonzero with probability density; over Q a third of them
    proper fractions; about one row in five zero."""
    def entry():
        if rng.random() >= density:
            return 0
        if ring.tag == "Q" and rng.random() < 0.3:
            return Fraction(rng.randint(-5, 5), rng.randint(2, 4))
        return rng.randint(-6, 6)
    if not rows:
        return ExactMatrix.zeros(ring, 0, cols)
    return ExactMatrix.from_rows(ring, [[0] * cols if rng.random() < 0.2
                                        else [entry() for _ in range(cols)]
                                        for _ in range(rows)])


def oracle_operands(ring, n, rng):
    """Operands with n rows: sparse, dense, all zero and without columns."""
    yield oracle_matrix(ring, n, rng.randint(1, 6), rng, 0.15)
    yield oracle_matrix(ring, n, rng.randint(1, 6), rng, 0.9)
    yield ExactMatrix.zeros(ring, n, 3)
    yield ExactMatrix.zeros(ring, n, 0)


def pin_29():
    """The 29th sparse pin input over Z: 37x12, 9,803 recorded operations."""
    rng = random.Random(2000)
    for _ in range(28):
        sparse_pin_matrix(ZZ, rng)
    return sparse_pin_matrix(ZZ, rng)


def check_replay_against_oracle(s, rng, operands=oracle_operands):
    for name in TRANSFORMS:
        n = s.D.rows if name in ("U", "Uinv") else s.D.cols
        for Y in operands(s.ring, n, rng):
            assert_same_entries(s.lmul(name, Y), oracles.dense_lmul(s, name, Y))
            X = ExactMatrix(s.ring, Y.data.T.copy())
            assert_same_entries(s.rmul(X, name), oracles.dense_rmul(s, X, name))
        ident = ExactMatrix.identity(s.ring, n)
        idx = sorted(rng.sample(range(n), rng.randint(0, n)))
        assert_same_entries(s.take_rows(name, idx),
                            oracles.dense_rmul(s, ident.take_rows(idx), name))
        assert_same_entries(s.take_columns(name, idx),
                            oracles.dense_lmul(s, name, ident.take_columns(idx)))


@pytest.mark.parametrize("ring", ORACLE_RINGS)
def test_replay_matches_dense_oracle(ring):
    rng = random.Random(53 + ring_seed(ring) % 71)
    inputs = list(replay_cases(ring, rng))
    inputs += [oracle_matrix(ring, rng.randint(1, 9), rng.randint(1, 9), rng, d)
               for d in (0.1, 0.3, 0.9) for _ in range(4)]
    for M in inputs:
        check_replay_against_oracle(smith_normal_form(M), rng)


def test_replay_matches_dense_oracle_on_long_operation_list():
    # its U has entries of 19,215 digits: one sparse operand per transform
    s = smith_normal_form(pin_29())
    assert len(s.ops) == 9803
    check_replay_against_oracle(s, random.Random(29), lambda ring, n, rng: [
        oracle_matrix(ring, n, 3, rng, 0.15)])


def assert_same_snf(s, ref):
    """Equal operation lists, divisors and D; over Z and F_p with equal
    Python types, over Q as assert_same_entries says."""
    assert s.ops == ref.ops and s.rank == ref.rank and s.divisors == ref.divisors
    if s.ring.tag != "Q":
        assert [type(op[4]) for op in s.ops] == [type(op[4]) for op in ref.ops]
        assert all(type(d) is int for d in s.divisors + ref.divisors)
    assert_same_entries(s.D, ref.D)


def snf_oracle_inputs():
    """The pin and sparse-pin batches, the 29th sparse pin input and
    d^0, d^1, d^2 of the 3-torus over Z and over Q."""
    for ring, seed, _ in SNF_PIN.values():
        rng = random.Random(seed)
        yield from (pin_matrix(ring, rng, k % 3) for k in range(60))
    for ring, seed, _ in SNF_SPARSE_PIN.values():
        rng = random.Random(seed)
        yield from (sparse_pin_matrix(ring, rng) for _ in range(24))
    yield pin_29()
    for ring in (ZZ, QQ):
        a = cochain_algebra(build_torus(3), ring)
        yield from (a.d(n) for n in range(3))


def test_snf_matches_dense_oracle():
    for M in snf_oracle_inputs():
        assert_same_snf(smith_normal_form(M), oracles.dense_smith_normal_form(M))


def test_snf_matches_dense_oracle_on_the_monomorphism_probe(monkeypatch):
    # every SNF input of the probe over F5, the 1365x495 coboundary among them
    from hochgysin import exactlin
    from hochgysin.torus import verify_monomorphism
    inputs, snf = [], exactlin.smith_normal_form
    monkeypatch.setattr(exactlin, "smith_normal_form", lambda M: inputs.append(M) or snf(M))
    verify_monomorphism(3, ring=GF(5))
    assert (1365, 495) in [(M.rows, M.cols) for M in inputs]
    for M in inputs:
        assert_same_snf(snf(M), oracles.dense_smith_normal_form(M))


def hermite_oracle_inputs():
    """The SNF oracle inputs, a pin batch over F3 and the kernel bases of
    d^0, ..., d^3 of the 3-torus over Z and over Q (Subquotient's inputs)."""
    yield from snf_oracle_inputs()
    rng = random.Random(1004)
    yield from (pin_matrix(GF(3), rng, k % 3) for k in range(60))
    for ring in (ZZ, QQ):
        a = cochain_algebra(build_torus(3), ring)
        yield from (kernel_basis(a.d(n)) for n in range(4))


def test_column_hermite_matches_dense_oracle():
    for M in hermite_oracle_inputs():
        H = column_hermite(M)
        assert_same_entries(H, oracles.dense_column_hermite(M))
        assert all(type(x) is int for x in H.data.flat if x == int(x)), M


@pytest.mark.parametrize("ring", ORACLE_RINGS)
def test_matmul_matches_dense_oracle(ring):
    # shapes below the scan threshold, sparse lefts past it and dense lefts
    # past it, so every branch of the product meets the reference
    rng = random.Random(61 + ring_seed(ring) % 67)
    shapes = [(0, 4, 3), (3, 0, 4), (4, 3, 0), (1, 1, 1), (5, 7, 3), (18, 27, 4),
              (40, 60, 12), (20, 40, 20), (30, 30, 12)]
    for rows, inner, cols in shapes:
        for density in (0.02, 0.15, 0.6, 1.0):
            A = oracle_matrix(ring, rows, inner, rng, density)
            B = oracle_matrix(ring, inner, cols, rng, 0.5)
            assert_same_entries(A @ B, oracles.dense_matmul(A, B))


def recorded_snfs(monkeypatch) -> list:
    """Make smith_normal_form append its results to the returned list."""
    from hochgysin import exactlin
    made, snf = [], exactlin.smith_normal_form

    def recording(M):
        made.append(snf(M))
        return made[-1]
    monkeypatch.setattr(exactlin, "smith_normal_form", recording)
    return made


def built(snfs) -> set:
    """The names of the transforms that some of the SNF results has built."""
    return {name for s in snfs for name in TRANSFORMS if name in vars(s)}


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)])
def test_solve_kernel_classify_leave_transforms_unbuilt(ring, monkeypatch):
    rng = random.Random(47 + ring_seed(ring) % 79)
    M = random_matrix(ring, 6, 4, rng)
    M.data[:, 3] = M.data[:, 0]                 # rank deficient
    M.data[5] = 0                               # e_5 is not in the image
    B = M @ random_matrix(ring, 4, 3, rng)
    made = recorded_snfs(monkeypatch)
    assert Solver(M).solve(B) is not None
    assert made and built(made) == set()
    made.clear()
    kernel_basis(M)
    assert made and built(made) == set()
    made.clear()
    Subquotient.from_gens_rels(ring, M, M.take_columns([0])).classify(B)
    assert made and built(made) == set()
    # a refusal replays the one certificate row of U, and builds nothing
    made.clear()
    assert Solver(M).solve(as_vector(ring, [0, 0, 0, 0, 0, 1])) is None
    assert made and built(made) == set()
    # the sections read rows of Vinv of each SNF(d^n), never the whole of it
    made.clear()
    build_sections(cochain_algebra(build_torus(2), ring), seed=1)
    assert made and "Vinv" not in built(made)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_identity():
    b = as_vector(ZZ, [3, -1, 7])
    x = solve(ExactMatrix.identity(ZZ, 3), b)
    assert list(x) == [3, -1, 7]


def test_solve_divisibility_forced():
    M = ExactMatrix.from_rows(ZZ, [[2]])
    assert solve(M, as_vector(ZZ, [3])) is None
    Mq = ExactMatrix.from_rows(QQ, [[2]])
    x = solve(Mq, as_vector(QQ, [3]))
    assert list(x) == [Fraction(3, 2)]


def check_matrix_rhs(M, B):
    """solve_matrix and the 2-D certificate against column-by-column solves."""
    X = solve_matrix(M, B)
    singles = [solve_with_certificate(M, B.column(j)) for j in range(B.cols)]
    unsolvable = [j for j, (x, _) in enumerate(singles) if x is None]
    assert (X is None) == bool(unsolvable)
    X2, cert = solve_with_certificate(M, B)
    if X is None:
        # the certificate of the first unsolvable column, at its first failing row
        j, single = unsolvable[0], singles[unsolvable[0]][1]
        assert X2 is None and cert.check(M, B.column(j))
        assert (list(cert.row), cert.divisor, cert.value) == \
            (list(single.row), single.divisor, single.value)
    else:
        assert M @ X == B and M @ X2 == B and cert is None
    return len(unsolvable)


@pytest.mark.parametrize("ring", RINGS)
def test_solve_roundtrip_and_certificates(ring):
    rng = random.Random(99 + ring_seed(ring) % 89)
    rng_b = random.Random(7 + ring_seed(ring) % 89)    # the matrix right-hand sides
    refused = 0
    for trial in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = random_matrix(ring, rows, cols, rng)
        x0 = as_vector(ring, [rng.randint(-3, 3) for _ in range(cols)])
        b = M.matvec(x0)
        x = solve(M, b)
        assert x is not None
        assert all(a == c for a, c in zip(M.matvec(x), b))
        # random rhs: either solvable (verified) or certified unsolvable
        b2 = as_vector(ring, [rng.randint(-4, 4) for _ in range(rows)])
        x2, cert = solve_with_certificate(M, b2)
        if x2 is not None:
            assert all(a == c for a, c in zip(M.matvec(x2), b2))
        else:
            assert cert is not None and cert.check(M, b2)
        # 2-D right-hand sides: images of M, with random columns mixed in
        k = rng_b.randint(0, 4)
        B = M @ random_matrix(ring, cols, k, rng_b, -3, 3)
        for j in range(k):
            if rng_b.random() < 0.3:
                B.data[:, j] = as_vector(ring, [rng_b.randint(-4, 4) for _ in range(rows)])
        refused += check_matrix_rhs(M, B) > 0
    assert refused > 0


def test_unsolvable_changes_hermite_span():
    # independent oracle: solve(M, b) is None iff appending b to the
    # column Hermite form changes the span
    rng = random.Random(4242)
    for trial in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(ZZ, rows, cols, rng, -3, 3)
        b = as_vector(ZZ, [rng.randint(-4, 4) for _ in range(rows)])
        h_before = column_hermite(M)
        h_after = column_hermite(M.hstack(oracles.from_columns(ZZ, [b], rows)))
        solvable = solve(M, b) is not None
        assert solvable == (h_before == h_after)


# ---------------------------------------------------------------------------
# kernel / image / quotient
# ---------------------------------------------------------------------------

def test_kernel_image_of_zero_matrix():
    M = ExactMatrix.zeros(ZZ, 3, 3)
    assert kernel_basis(M) == ExactMatrix.identity(ZZ, 3)
    assert column_hermite(M).cols == 0


def test_quotient_z_mod_k():
    gens = ExactMatrix.identity(ZZ, 1)
    for k in (1, 2, 5, 12):
        rels = ExactMatrix.from_rows(ZZ, [[k]])
        sq = Subquotient.from_gens_rels(ZZ, gens, rels)
        assert sq.invariant_factors == [k]
        if k == 1:
            assert sq.free_rank == 0 and sq.torsion == []
        else:
            assert sq.torsion == [k]


def test_quotient_rejects_rels_outside_span():
    gens = ExactMatrix.from_rows(ZZ, [[2], [0]])
    rels = ExactMatrix.from_rows(ZZ, [[1], [0]])
    with pytest.raises(NotInSpanError):
        Subquotient.from_gens_rels(ZZ, gens, rels)


def test_circle_boundary_kernel_image():
    # 3-vertex circle, edges 01, 02, 12; boundary d1: C1 -> C0
    d1 = ExactMatrix.from_rows(ZZ, [[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    k = kernel_basis(d1)
    im = column_hermite(d1)
    assert k.cols == 1 and im.cols == 2
    assert (d1 @ k).is_zero()


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)])
def test_kernel_members_and_image_span(ring):
    rng = random.Random(5150)
    for trial in range(20):
        M = random_matrix(ring, rng.randint(1, 5), rng.randint(1, 5), rng)
        K = kernel_basis(M)
        assert (M @ K).is_zero()
        # every column_hermite column is an actual column combination and back
        B = column_hermite(M)
        assert solve_matrix(M, B) is not None
        assert solve_matrix(B, M) is not None or B.cols == 0 and M.is_zero()


def test_subquotient_classify_coset_arithmetic():
    # Z^2 / <(2,0)> = Z/2 + Z
    gens = ExactMatrix.identity(ZZ, 2)
    rels = oracles.from_columns(ZZ, [as_vector(ZZ, [2, 0])], 2)
    sq = Subquotient.from_gens_rels(ZZ, gens, rels)
    assert sorted(sq.orders, key=lambda d: (d == 0, d)) == [2, 0]
    v = as_vector(ZZ, [3, 4])
    w = as_vector(ZZ, [1, 4])             # differs by (2, 0)
    assert list(sq.classify(v)) == list(sq.classify(w))
    assert not vec_is_zero(sq.classify(v))
    assert vec_is_zero(sq.classify(as_vector(ZZ, [2, 0])))
    # a matrix of columns is classified at once, column j as column j alone
    V = ExactMatrix.from_rows(ZZ, [[3, 1, 2, -5, 0], [4, 4, 0, 7, 0]])
    C = sq.classify(V)
    assert (C.rows, C.cols) == (2, 5)
    for j in range(V.cols):
        assert list(C.column(j)) == list(sq.classify(V.column(j)))
    assert sq.classify(ExactMatrix.zeros(ZZ, 2, 0)).cols == 0
    # one column outside span(generators) fails the whole matrix
    even = Subquotient.from_gens_rels(ZZ, ExactMatrix.from_rows(ZZ, [[2], [0]]))
    assert list(even.classify(as_vector(ZZ, [4, 0]))) == [2]
    with pytest.raises(NotInSpanError):
        even.classify(ExactMatrix.from_rows(ZZ, [[4, 1], [0, 0]]))


# ---------------------------------------------------------------------------
# sections of surjections: right inverses f @ s = target, via solve_matrix
# ---------------------------------------------------------------------------

def test_section_identity():
    s = solve_matrix(ExactMatrix.identity(ZZ, 2), ExactMatrix.identity(ZZ, 2))
    assert is_identity(s)


def test_section_projection():
    f = ExactMatrix.from_rows(ZZ, [[1, 0]])
    s = solve_matrix(f, ExactMatrix.identity(ZZ, 1))
    assert f @ s == ExactMatrix.identity(ZZ, 1)


def test_section_of_coboundary_onto_image():
    # d0 of the 3-vertex circle (cochain side): C^0 -> C^1
    d0 = ExactMatrix.from_rows(ZZ, [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    im = column_hermite(d0)
    s = solve_matrix(d0, im)
    assert d0 @ s == im


def test_section_errors():
    # multiplication by 2 on Z is not onto: no right inverse
    f = ExactMatrix.from_rows(ZZ, [[2]])
    assert solve_matrix(f, ExactMatrix.identity(ZZ, 1)) is None


def test_vector_helpers():
    v = zero_vector(QQ, 3)
    assert vec_is_zero(v)
    w = as_vector(GF(5), [7, -1, 3])
    assert list(w) == [2, 4, 3]


# ---------------------------------------------------------------------------
# Scalars: integral rationals are ints, serialized scalars are strict
# ---------------------------------------------------------------------------

def test_integral_rationals_are_ints():
    assert type(QQ.normalize(Fraction(4, 2))) is int
    half = QQ.quo(1, 2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert type(QQ.inv(Fraction(1, 2))) is int
    assert type(QQ.quo(4, 2)) is int


def test_ring_names_are_strict():
    assert [ring_from_name(n) for n in ("Z", "Q", "F2", "F5", "F4294967291")] == \
        [ZZ, QQ, GF(2), GF(5), GF(4294967291)]
    start = time.perf_counter()
    for name in ("F1_1", "F 5", "F+5", "F05", "F5 ", "F5\n", "F", "F0", "F1", "F4", "f5",
                 "F1" + "0" * 400, "F100000000000000000039", "F4294967311", 5, None):
        with pytest.raises(ValueError):
            ring_from_name(name)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("ring", RINGS)
def test_matrix_lists_convert_like_their_scalars(ring):
    rows = [[0, 7, -3], [12, 0, 1]]
    m = ExactMatrix.from_lists(ring, rows)
    assert m == ExactMatrix.from_rows(ring, rows) and all(type(x) is int for x in m.data.flat)
    assert m.to_lists() == [[ring.scalar_to_json(x) for x in row] for row in m.data]
    half = ExactMatrix.from_lists(ring, [["-4/2", 3]])
    assert half.data.tolist() == [[ring.normalize(-2), ring.normalize(3)]]
    for bad in ([[1, True]], [[1, 1.0]], [[1, "1.0"]], [[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError):
            ExactMatrix.from_lists(ring, bad)
    q = ExactMatrix.from_lists(QQ, [["1/2", 4], ["6/3", 0]])
    assert q.to_lists() == [["1/2", 4], [2, 0]]


def test_scalar_from_json_accepts_only_ints_and_digit_strings():
    assert QQ.scalar_from_json("-3/6") == Fraction(-1, 2)
    assert type(QQ.scalar_from_json("4/2")) is int
    assert ZZ.scalar_from_json("-4/2") == -2 and GF(5).scalar_from_json(-1) == 4
    for ring in RINGS:
        for v in (True, False, 1.0, 1.5, -1.0, None, [1], "1_0", " 1", "1/ 2",
                  "+1", "1/0", "1/", "/2", "1.5", "١"):
            with pytest.raises(ValueError):
                ring.scalar_from_json(v)


# ---------------------------------------------------------------------------
# Independent oracle: sympy
# ---------------------------------------------------------------------------

def _sympy_matrix(sympy, data):
    """The sympy Matrix of an object array; a vector becomes a column."""
    data = data.reshape(len(data), -1)
    return sympy.Matrix(*data.shape, [sympy.Rational(x.numerator, x.denominator)
                                      for x in data.flat])


def _no_floats(*arrays):
    return not any(type(x) is float for a in arrays for x in np.asarray(a).flat)


def test_snf_divisors_match_sympy_over_z():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(2024)
    for trial in range(40):
        M = pin_matrix(ZZ, rng, trial % 3)
        s = smith_normal_form(M)
        full = s.divisors + [0] * (min(M.rows, M.cols) - s.rank)
        expected = invariant_factors(_sympy_matrix(sympy, M.data), domain=sympy.ZZ)
        assert full == [int(d) for d in expected], (trial, M.to_lists())
        assert _no_floats(*(m.data for m in (s.U, s.D, s.V, s.Uinv, s.Vinv)))


def test_rank_and_solutions_match_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2025)

    def entry():
        return rng.choice([0, 0, rng.randint(-3, 3),
                           Fraction(rng.randint(-5, 5), rng.randint(2, 4))])
    for trial in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = ExactMatrix.from_rows(QQ, [[entry() for _ in range(cols)] for _ in range(rows)])
        s = smith_normal_form(M)
        sM = _sympy_matrix(sympy, M.data)
        assert s.rank == sM.rank(), (trial, M.to_lists())
        assert _no_floats(*(m.data for m in (s.U, s.D, s.V, s.Uinv, s.Vinv)))
        solver = Solver(M)
        rhs = (M.matvec(as_vector(QQ, [entry() for _ in range(cols)])),
               as_vector(QQ, [entry() for _ in range(rows)]))
        for b in rhs:
            x, cert = solver.solve_with_certificate(b)
            sb = _sympy_matrix(sympy, b)
            if x is None:
                assert cert.check(M, b) and sM.row_join(sb).rank() > sM.rank()
            else:
                assert _no_floats(x) and sM * _sympy_matrix(sympy, x) == sb
        # the same right-hand sides as the columns of one matrix
        B = oracles.from_columns(QQ, [rhs[0], rhs[1], rhs[0]], rows)
        X, cert = solver.solve_with_certificate(B)
        sB = _sympy_matrix(sympy, B.data)
        if X is None:
            j = next(j for j in range(B.cols) if solve(M, B.column(j)) is None)
            assert cert.check(M, B.column(j)) and \
                sM.row_join(sB[:, j]).rank() > sM.rank()
        else:
            assert _no_floats(X.data) and sM * _sympy_matrix(sympy, X.data) == sB
        assert (X is None) == (sM.row_join(sB).rank() > sM.rank())
