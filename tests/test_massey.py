import random
from pathlib import Path

import pytest

from hochgysin.dga import cochain_algebra, load_dga
from hochgysin.exactlin import ZZ, as_vector, vec_is_zero
from hochgysin.hochschild import (
    TwistedBimodule, admissible_tuples, theta, trivialize, zero_cochain,
)
from hochgysin.massey import (
    NotAMasseyTripleError, indeterminacy_submodule, massey_triple,
)
from hochgysin.sections import build_sections
from hochgysin.simplicial import build_sphere, build_torus

FIXTURE = Path(__file__).parent.parent / "src" / "hochgysin" / "fixtures" / \
    "massey_fixture.dga.json"


def fixture_sections(seed=None):
    return build_sections(load_dga(FIXTURE), seed=seed)


def test_fixture_loads_and_validates():
    a = load_dga(FIXTURE)              # load runs validation
    assert a.ring == ZZ
    assert a.ranks == [1, 3, 3, 1]
    co = build_sections(a)
    assert co.h_rank == [1, 2, 2, 1]


def test_sphere_triple_vanishes_by_degree():
    co = build_sections(cochain_algebra(build_sphere(2), ZZ))
    f = as_vector(ZZ, [1])             # fundamental class, degree 2
    r = massey_triple(co, 2, f, 2, f, 2, f)
    assert r.target_degree == 5 and len(r.representative) == 0
    assert r.is_zero_coset()


def test_unit_triple_with_zero_class():
    co = fixture_sections()
    one = as_vector(ZZ, [1])
    zero1 = as_vector(ZZ, [0, 0])
    r = massey_triple(co, 0, one, 1, zero1, 1, zero1)
    assert r.is_zero_coset()


def test_fixture_nonzero_coset_frozen():
    # canonical sections: H^1 basis ([e2], [e1]); H^2 basis ([e13], [e23]);
    # x = y = [e1], z = [e2] gives <x,y,z> = -[e13] with zero indeterminacy
    co = fixture_sections()
    x = as_vector(ZZ, [0, 1])
    z = as_vector(ZZ, [1, 0])
    r = massey_triple(co, 1, x, 1, x, 1, z)
    assert list(r.representative) == [-1, 0]          # frozen regression
    assert r.indeterminacy.free_rank == 0 and r.indeterminacy.torsion == []
    assert not r.is_zero_coset()


def test_fixture_rep_matches_theta_block():
    co = fixture_sections()
    th = theta(co)
    x = as_vector(ZZ, [0, 1])
    z = as_vector(ZZ, [1, 0])
    r = massey_triple(co, 1, x, 1, x, 1, z)
    assert r.same_coset(th.value((1, 1, 1), [x, x, z]))


def test_fixture_coset_stable_20_seeds():
    co0 = fixture_sections()
    x = as_vector(ZZ, [0, 1])
    z = as_vector(ZZ, [1, 0])
    base = massey_triple(co0, 1, x, 1, x, 1, z)
    for seed in range(1, 21):
        co = fixture_sections(seed=seed)
        r = massey_triple(co, 1, x, 1, x, 1, z)
        assert base.same_coset(r.representative)
        assert r.same_coset(base.representative)


def test_fixture_theta_class_nontrivial():
    co = fixture_sections()
    th = theta(co)
    M = TwistedBimodule(co.h())
    w, cert = trivialize(th, M)
    assert w is None and cert is not None


def test_fixture_theta_class_nontrivial_rationally():
    # the obstructing coset is torsion-free, so it survives over Q
    from hochgysin.dga import dga_from_json
    import json
    payload = json.loads(FIXTURE.read_text())
    payload["ring"] = "Q"
    co = build_sections(dga_from_json(payload))
    th = theta(co)
    w, cert = trivialize(th, TwistedBimodule(co.h()))
    assert w is None and cert is not None


def test_torus2_triple_zero_and_stable():
    a = cochain_algebra(build_torus(2), ZZ)
    co1 = build_sections(a, seed=100)
    co2 = build_sections(a, seed=200)
    h1 = as_vector(ZZ, [1, 0])
    # x = y = z = h1 is a Massey triple since h1^2 = 0
    r = massey_triple(co1, 1, h1, 1, h1, 1, h1)
    assert r.same_coset(massey_triple(co2, 1, h1, 1, h1, 1, h1).representative)
    # torus theta class is trivial, so the coset must be the zero coset
    assert r.is_zero_coset()


def test_not_a_massey_triple_rejected():
    a = cochain_algebra(build_torus(2), ZZ)
    co = build_sections(a)
    h1 = as_vector(ZZ, [1, 0])
    h2 = as_vector(ZZ, [0, 1])
    with pytest.raises(NotAMasseyTripleError) as err:
        massey_triple(co, 1, h1, 1, h2, 1, h1)   # h1 h2 generates H^2
    assert not vec_is_zero(as_vector(ZZ, err.value.value))


def test_coboundary_specialization_lands_in_indeterminacy():
    # delta a (x, y, z) = x * a(y,z) - a(x,y) z on Massey triples: 100 probes
    rng = random.Random(1234)
    co_f = fixture_sections()
    co_t = build_sections(cochain_algebra(build_torus(2), ZZ))
    probes = 0
    cases = [(co_f, (1, 1, 1), ([0, 1], [0, 1], [1, 0])),
             (co_t, (1, 1, 1), ([1, 0], [1, 0], [1, 0]))]
    while probes < 100:
        co, degs, coords = cases[probes % 2]
        h = co.h()
        M = TwistedBimodule(h)
        px, py, pz = degs
        x, y, z = (as_vector(ZZ, c) for c in coords)
        a = zero_cochain(h, 2, -1)
        from hochgysin.exactlin import ExactMatrix
        for tup in admissible_tuples(h, 2, -1):
            rows, cols = a.shape(tup)
            a.set_block(tup, ExactMatrix.from_rows(
                ZZ, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]))
        from hochgysin.hochschild import coboundary
        da = coboundary(a, M)
        value = da.value((px, py, pz), [x, y, z])
        ind = indeterminacy_submodule(co, px, x, py, y, pz, z)
        assert ind.is_member(value)
        probes += 1
