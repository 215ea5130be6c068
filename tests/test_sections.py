import json
import random
from pathlib import Path

import numpy as np
import pytest

from hochgysin.dga import cochain_algebra, load_dga
from hochgysin.exactlin import GF, QQ, ZZ, ExactMatrix, as_vector, solve, vec_is_zero
from hochgysin.hochschild import cochain_to_json, theta
from hochgysin.sections import (
    NotACocycleError, SectionsFormatError, TorsionHomologyError, build_sections,
    compute_cohomology, sections_from_json, sections_to_json,
)
from hochgysin.simplicial import build_circle, build_sphere, build_torus, make_complex
from oracles import dga_multiply, h_multiply, homology_groups, q_pair

MASSEY_FIXTURE = Path(__file__).parent.parent / "src" / "hochgysin" / "fixtures" / \
    "massey_fixture.dga.json"

# minimal 6-vertex triangulation of the projective plane: H_1 = Z/2,
# so integral cochain cohomology has torsion in degree 2
RP2 = make_complex(6, [
    (0, 1, 2), (0, 1, 5), (0, 2, 3), (0, 3, 4), (0, 4, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
])


def fixture_algebras(ring=ZZ):
    return {
        "circle": cochain_algebra(build_circle(), ring),
        "sphere2": cochain_algebra(build_sphere(2), ring),
        "torus2": cochain_algebra(build_torus(2), ring),
    }


def test_compute_cohomology_circle():
    groups = compute_cohomology(cochain_algebra(build_circle(), ZZ))
    assert [(g.free_rank, g.torsion) for g in groups] == [(1, []), (1, [])]


def test_compute_cohomology_torus2():
    groups = compute_cohomology(cochain_algebra(build_torus(2), ZZ))
    assert [g.free_rank for g in groups] == [1, 2, 1]
    assert all(g.torsion == [] for g in groups)


def test_compute_cohomology_sphere2_f2():
    groups = compute_cohomology(cochain_algebra(build_sphere(2), GF(2)))
    assert [g.free_rank for g in groups] == [1, 0, 1]


def test_rp2_has_torsion_and_sections_refuse():
    assert homology_groups(RP2)[1] == (0, [2])
    a = cochain_algebra(RP2, ZZ)
    with pytest.raises(TorsionHomologyError) as err:
        build_sections(a)
    assert err.value.degree == 2 and err.value.factors == [2]
    # over a field the package exists
    assert build_sections(cochain_algebra(RP2, GF(2))).h_rank == [1, 1, 1]


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3)])
def test_technical_lemma_decomposition(ring):
    for name, a in fixture_algebras(ring).items():
        co = build_sections(a)
        for n in range(a.top_degree + 1):
            assert a.rank(n) == co.hr(n) + co.b_rank(n + 1) + co.b_rank(n), (name, n)
            # d s = 0, pi s = id, d q = id on the image basis
            assert (a.d(n) @ co.s_matrix(n)).is_zero()
            assert co.pi_matrix(n) @ co.s_matrix(n) == ExactMatrix.identity(ring, co.hr(n))
            if co.b_rank(n):
                assert a.d(n - 1) @ co.q[n] == co.image_basis[n]


def test_unit_normalization():
    for a in fixture_algebras().values():
        co = build_sections(a)
        assert list(co.s_matrix(0).column(0)) == list(a.unit)
        assert list(co.pi(0, a.unit)) == [1] + [0] * (co.hr(0) - 1)


def test_disconnected_complex_unit_rotation():
    # two points: H^0 = Z^2 and the unit class (1,1) becomes e_0
    a = cochain_algebra(build_sphere(0), ZZ)
    co = build_sections(a)
    assert co.h_rank == [2]
    assert list(co.pi(0, a.unit)) == [1, 0]
    assert list(co.s_matrix(0).column(0)) == list(a.unit)
    h = co.h()
    e0 = as_vector(ZZ, [1, 0])
    e1 = as_vector(ZZ, [0, 1])
    assert list(h_multiply(h, 0, 0, e0, e1)) == list(e1)   # unit acts as identity


def test_pi_of_section_and_coboundary():
    a = cochain_algebra(build_torus(2), ZZ)
    co = build_sections(a)
    rng = random.Random(11)
    for n in range(a.top_degree + 1):
        for _ in range(5):
            h = as_vector(ZZ, [rng.randint(-3, 3) for _ in range(co.hr(n))])
            assert list(co.pi(n, co.s_matrix(n).matvec(h))) == list(h)
        if n > 0:
            w = as_vector(ZZ, [rng.randint(-2, 2) for _ in range(a.rank(n - 1))])
            assert vec_is_zero(co.pi(n, a.d(n - 1).matvec(w)))


def test_pi_rejects_non_cocycle():
    a = cochain_algebra(build_torus(2), ZZ)
    co = build_sections(a)
    # a vertex dual is not a cocycle on the torus
    v = as_vector(ZZ, [1] + [0] * (a.rank(0) - 1))
    with pytest.raises(NotACocycleError):
        co.pi(0, v)


def test_random_cocycle_decomposes():
    a = cochain_algebra(build_torus(2), ZZ)
    co = build_sections(a)
    rng = random.Random(23)
    for n in (0, 1, 2):
        # random cocycle = kernel combination
        z = co.kernel_basis[n]
        v = z.matvec(as_vector(ZZ, [rng.randint(-3, 3) for _ in range(z.cols)]))
        resid = v - co.s_matrix(n).matvec(co.pi(n, v))
        if n == 0:
            assert vec_is_zero(resid)
        else:
            x = solve(a.d(n - 1), resid)
            assert x is not None


def test_seeded_sections_differ_by_coboundaries():
    a = cochain_algebra(build_torus(2), ZZ)
    co1 = build_sections(a, seed=1)
    co2 = build_sections(a, seed=2)
    for n in range(a.top_degree + 1):
        diff = co1.s_matrix(n) - co2.s_matrix(n)
        for j in range(diff.cols):
            col = diff.column(j)
            if n == 0:
                assert vec_is_zero(col)
            else:
                assert solve(a.d(n - 1), col) is not None


def test_seeded_package_still_satisfies_invariants():
    a = cochain_algebra(build_torus(2), ZZ)
    for seed in (3, 4, 5):
        co = build_sections(a, seed=seed)
        for n in range(a.top_degree + 1):
            assert (a.d(n) @ co.s_matrix(n)).is_zero()
            assert co.pi_matrix(n) @ co.s_matrix(n) == \
                ExactMatrix.identity(ZZ, co.hr(n))
            if co.b_rank(n):
                assert a.d(n - 1) @ co.q[n] == co.image_basis[n]
        assert list(co.s_matrix(0).column(0)) == list(a.unit)


def test_q_pair_unit_and_truncation():
    a = cochain_algebra(build_sphere(2), ZZ)
    co = build_sections(a)
    one = as_vector(ZZ, [1])
    h2 = as_vector(ZZ, [1])
    # q(1, y) = q(x, 1) = 0 under s(1) = 1
    assert vec_is_zero(q_pair(co, 0, one, 2, h2))
    assert vec_is_zero(q_pair(co, 2, h2, 0, one))
    # q(h2, h2) lands in C^3 = 0
    assert len(q_pair(co, 2, h2, 2, h2)) == 0


def test_q_pair_defining_property_on_torus():
    a = cochain_algebra(build_torus(2), ZZ)
    co = build_sections(a, seed=9)
    h = co.h()
    rng = random.Random(77)
    for _ in range(10):
        x = as_vector(ZZ, [rng.randint(-2, 2) for _ in range(co.hr(1))])
        y = as_vector(ZZ, [rng.randint(-2, 2) for _ in range(co.hr(1))])
        qxy = q_pair(co, 1, x, 1, y)
        assert list(qxy) == list(co.qpair_block(1, 1).matvec(np.outer(x, y).reshape(-1)))
        lhs = a.d(1).matvec(qxy)
        sx = co.s_matrix(1).matvec(x)
        sy = co.s_matrix(1).matvec(y)
        rhs = dga_multiply(a, 1, 1, sx, sy) - co.s_matrix(2).matvec(h_multiply(h, 1, 1, x, y))
        assert all(u == v for u, v in zip(lhs, rhs))


def test_h_ring_canonical_across_seeds():
    a = cochain_algebra(build_torus(2), ZZ)
    h0 = build_sections(a).h()
    for seed in (6, 7):
        h = build_sections(a, seed=seed).h()
        assert h.ranks == h0.ranks
        for key in h0.mult:
            assert h.mult_block(*key) == h0.mult_block(*key)


def test_torus2_ring_structure():
    co = build_sections(cochain_algebra(build_torus(2), ZZ))
    h = co.h()
    assert h.ranks == [1, 2, 1]
    e1 = as_vector(ZZ, [1, 0])
    e2 = as_vector(ZZ, [0, 1])
    # degree-1 generators square to zero, their product generates H^2
    assert vec_is_zero(h_multiply(h, 1, 1, e1, e1))
    assert vec_is_zero(h_multiply(h, 1, 1, e2, e2))
    prod = h_multiply(h, 1, 1, e1, e2)
    assert list(prod) in ([1], [-1])
    anti = h_multiply(h, 1, 1, e2, e1)
    assert list(anti) == [-prod[0]]


def test_sections_roundtrip():
    """A loaded package stores only (algebra, seed, s, q) and recomputes the
    rest; it must equal the package that wrote it."""
    packages = [build_sections(cochain_algebra(build_torus(2), ring), seed=42)
                for ring in (ZZ, QQ, GF(2))]
    packages.append(build_sections(load_dga(MASSEY_FIXTURE), seed=5))
    for co in packages:
        payload = json.loads(json.dumps(sections_to_json(co), sort_keys=True))
        assert set(payload) == {"algebra", "seed", "s", "q"}
        co2 = sections_from_json(payload)
        assert co2.seed == co.seed and co2.h_rank == co.h_rank
        for n in range(co.top + 1):
            assert co2.s_matrix(n) == co.s_matrix(n)
            assert co2.q[n] == co.q[n]
            assert co2.pi_matrix(n) == co.pi_matrix(n)
            assert co2.image_basis[n] == co.image_basis[n]
            assert co2.kernel_basis[n] == co.kernel_basis[n]
            assert co2._d_snf[n].ops == co._d_snf[n].ops
        assert co2.h().mult.keys() == co.h().mult.keys()
        assert all(co2.h().mult[k] == co.h().mult[k] for k in co.h().mult)
        assert cochain_to_json(theta(co2)) == cochain_to_json(theta(co))


def test_old_format_package_rejected_naming_its_extra_keys():
    payload = sections_to_json(build_sections(cochain_algebra(build_circle(), ZZ)))
    payload["coc_inv"] = {}
    with pytest.raises(SectionsFormatError, match=r"\['coc_inv'\]"):
        sections_from_json(payload)
