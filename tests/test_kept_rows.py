"""A matrix born sparse (ExactMatrix.from_nonzeros) against its dense twin.

The coboundary matrices of the Hochschild solves keep their rows of
nonzeros, and the Smith normal form and the replay of its operations
read those rows instead of scanning a dense array; a product reads
`.data`.  Every result must equal the dense twin's, entry for entry
and types included, and a write through `.data` must be seen by every
later reader.  The spies check that the monomorphism probe never
densifies its arity-3 coboundary matrix and that a triviality solve
densifies none.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from hochgysin.dga import cochain_algebra
from hochgysin.exactlin import QQ, ZZ, GF, ExactMatrix, _KeptRows, smith_normal_form
from hochgysin.hochschild import TwistedBimodule, coboundary_matrix, theta, trivialize
from hochgysin.sections import build_sections
from hochgysin.simplicial import build_torus
from hochgysin.torus import exterior_algebra, verify_monomorphism
from test_exactlin import ring_seed, snf_digest

RINGS = [ZZ, QQ, GF(2), GF(5)]


def same_entries_and_types(x: ExactMatrix, y: ExactMatrix) -> bool:
    a, b = x.data.ravel().tolist(), y.data.ravel().tolist()
    return (x.data.shape == y.data.shape and a == b
            and list(map(type, a)) == list(map(type, b)))


def kept_copy(M: ExactMatrix) -> ExactMatrix:
    """M born sparse: its nonzeros as rows, in ascending columns."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in M.data]
    return ExactMatrix.from_nonzeros(M.ring, (M.rows, M.cols), rows)


def random_sparse(ring, rows, cols, rng, density=0.25) -> ExactMatrix:
    """About `density` of the entries nonzero; over Q a third of those
    proper fractions, so that products meet Fraction arithmetic."""
    def entry():
        if rng.random() > density:
            return 0
        x = rng.choice([-3, -2, -1, 1, 2, 3])
        return Fraction(x, 2) if ring == QQ and rng.random() < 1 / 3 else x
    return ExactMatrix.from_rows(ring, [[entry() for _ in range(cols)] for _ in range(rows)]) \
        if rows else ExactMatrix.zeros(ring, 0, cols)


def coboundary_case(make_algebra, arity):
    def make(ring):
        M = TwistedBimodule(build_sections(make_algebra(ring)).h())
        return lambda: coboundary_matrix(M, arity, -1)[0]
    return make


def random_case(rows, cols, seed):
    def make(ring):
        twin = random_sparse(ring, rows, cols, random.Random(seed + ring_seed(ring)))
        return lambda: kept_copy(twin)
    return make


# case -> ring -> a maker of fresh born-sparse copies of one matrix
CASES = {
    "0x4": random_case(0, 4, 1),
    "5x0": random_case(5, 0, 2),
    "sparse-7x5": random_case(7, 5, 3),
    "sparse-12x30": random_case(12, 30, 4),
    "sparse-40x9": random_case(40, 9, 5),
    **{f"{name}-arity{arity}": coboundary_case(algebra, arity)
       for name, algebra in (
           ("t2", lambda ring: cochain_algebra(build_torus(2), ring)),
           ("t3", lambda ring: cochain_algebra(build_torus(3), ring)),
           ("exterior3", lambda ring: exterior_algebra(3, ring)))
       for arity in (1, 2, 3)},
}


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("case", list(CASES))
def test_born_sparse_matches_dense_twin(case, ring):
    fresh = CASES[case](ring)
    twin = ExactMatrix(ring, fresh().data)
    m, n = twin.rows, twin.cols
    rng = random.Random(case)
    kept = fresh()
    assert (kept.rows, kept.cols) == (m, n) and kept._kept is not None
    # the same operations on the same values: the SNFResults compare ops,
    # and the digest reads every transform whole (on the smaller shapes,
    # where that takes milliseconds)
    s = smith_normal_form(twin)
    assert smith_normal_form(kept) == s
    if m <= 500:
        assert snf_digest(ring, [fresh()]) == snf_digest(ring, [twin])
    assert kept._kept is not None, "the Smith normal form densified its input"
    # replay with it as the operand, on every transform of a matching size
    t = smith_normal_form(ExactMatrix(ring, twin.data.T.copy()))
    for snf, name in iproduct((s, t), ("U", "Uinv", "V", "Vinv")):
        size = snf.shape[0] if name in ("U", "Uinv") else snf.shape[1]
        if size == m:
            assert same_entries_and_types(snf.lmul(name, kept), snf.lmul(name, twin))
        if size == n:
            assert same_entries_and_types(snf.rmul(kept, name), snf.rmul(twin, name))
    for name in ("U", "Uinv", "V", "Vinv"):
        size = m if name in ("U", "Uinv") else n
        idx = sorted(rng.sample(range(size), min(size, 3)))
        k = smith_normal_form(fresh())
        assert same_entries_and_types(k.take_rows(name, idx), s.take_rows(name, idx))
        assert same_entries_and_types(k.take_columns(name, idx), s.take_columns(name, idx))
    # products with it on either side, over words, objects and Fractions:
    # a right factor of 1 column takes the dense product, and 3 or 40
    # columns the product row by row; on the large shapes, where a dense
    # product over Q costs seconds, the other factor is sparser and the
    # dense product left out
    small = m * n <= 10_000
    for width in (1, 3, 40) if small else (3, 40):
        X = random_sparse(ring, n, width, rng)
        assert same_entries_and_types(fresh() @ X, twin @ X), width
        Y = random_sparse(ring, min(width, 3), m, rng, 0.25 if small else 0.01)
        assert same_entries_and_types(Y @ fresh(), Y @ twin), width
    # the elimination and the replays worked on copies of its rows
    assert kept._kept is not None and same_entries_and_types(kept, twin)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_a_write_through_data_reaches_later_readers(ring):
    rng = random.Random(ring_seed(ring))
    twin = random_sparse(ring, 9, 7, rng)
    kept = kept_copy(twin)
    kept.data[2, 3] = twin.data[2, 3] = ring.normalize(5)
    kept.data[4] = twin.data[4] = 0
    assert kept._kept is None
    assert smith_normal_form(kept) == smith_normal_form(twin)
    X = random_sparse(ring, 7, 40, rng)
    assert same_entries_and_types(kept @ X, twin @ X)
    assert same_entries_and_types(smith_normal_form(twin).lmul("U", kept),
                                  smith_normal_form(twin).lmul("U", twin))


def densified(monkeypatch) -> list:
    """Make every densification of a born-sparse matrix append its shape
    to the returned list."""
    seen, getattr_ = [], _KeptRows.__getattr__

    def spy(m, name):
        if name == "data" and m._kept is not None:
            seen.append(m._kept[0])
        return getattr_(m, name)
    monkeypatch.setattr(_KeptRows, "__getattr__", spy)
    return seen


@pytest.mark.parametrize("ring", [ZZ, GF(5)], ids=lambda r: r.name)
def test_monomorphism_probe_never_densifies_its_arity3_coboundary(ring, monkeypatch):
    seen = densified(monkeypatch)
    assert verify_monomorphism(3, ring=ring)["injective_on_classes"] is True
    assert seen == []


def test_trivialize_densifies_no_coboundary_matrix(monkeypatch):
    co = build_sections(cochain_algebra(build_torus(3), ZZ), seed=3)
    th = theta(co)
    seen = densified(monkeypatch)
    witness, cert = trivialize(th, TwistedBimodule(co.h()))
    assert cert is None and witness is not None
    assert seen == []
