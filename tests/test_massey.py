import random
from itertools import product as iproduct
from pathlib import Path

import pytest

from hochgysin.dga import cochain_algebra, load_dga
from hochgysin.exactlin import GF, QQ, ZZ, ExactMatrix, as_vector, vec_is_zero
from hochgysin.hochschild import (
    TwistedBimodule, admissible_tuples, coboundary, theta, trivialize, zero_cochain,
)
from hochgysin.massey import (
    NotAMasseyTripleError, indeterminacy_submodule, massey_triple,
)
from hochgysin.sections import build_sections
from hochgysin.simplicial import build_sphere, build_torus
from oracles import cochain_value, theta_value

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
    assert r.same_coset(cochain_value(th, (1, 1, 1), [x, x, z]))


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


THETA_CASES = {
    "fixture-Z": lambda: fixture_sections(seed=11),
    "T2-Z": lambda: build_sections(cochain_algebra(build_torus(2), ZZ), seed=12),
    "T2-Q": lambda: build_sections(cochain_algebra(build_torus(2), QQ), seed=13),
    "T2-F3": lambda: build_sections(cochain_algebra(build_torus(2), GF(3)), seed=14),
    "T3-Z": lambda: build_sections(cochain_algebra(build_torus(3), ZZ), seed=15),
}


@pytest.mark.parametrize("case", list(THETA_CASES))
def test_massey_representative_is_the_theta_value(case):
    # theta restricts to the Massey product: on triples with xy = yz = 0 the
    # representative equals pi of the vector-level Theta(x, y, z) and the
    # value of the projected cocycle theta on (x, y, z), entry for entry
    co = THETA_CASES[case]()
    h = co.h()
    th = theta(co)
    rng = random.Random(2024)
    # every other draw has a target degree at most the top degree
    tuples = list(iproduct([p for p in range(1, co.top + 1) if co.hr(p)], repeat=3))
    low = [t for t in tuples if sum(t) - 1 <= co.top]
    kept = in_range = 0
    for i in range(120):
        px, py, pz = rng.choice(low if i % 2 else tuples)
        x, y, z = (as_vector(co.ring, [rng.randint(-1, 1) for _ in range(co.hr(p))])
                   for p in (px, py, pz))
        if not (vec_is_zero(h.multiply(px, py, x, y))
                and vec_is_zero(h.multiply(py, pz, y, z))):
            continue
        rep = list(massey_triple(co, px, x, py, y, pz, z).representative)
        n = px + py + pz - 1
        assert rep == list(co.pi(n, theta_value(co, px, x, py, y, pz, z)))
        assert rep == list(cochain_value(th, (px, py, pz), [x, y, z]))
        kept += 1
        in_range += n <= co.top and co.hr(n) > 0
    assert kept >= 20 and in_range >= 5, (kept, in_range)


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
        for tup in admissible_tuples(h, 2, -1):
            rows, cols = a.shape(tup)
            a.set_block(tup, ExactMatrix.from_rows(
                ZZ, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]))
        da = coboundary(a, M)
        value = cochain_value(da, (px, py, pz), [x, y, z])
        ind = indeterminacy_submodule(co, px, x, py, y, pz, z)
        assert ind.is_member(value)
        probes += 1
