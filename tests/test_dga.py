import dataclasses
import hashlib
import json
import random
import time

import pytest

from hochgysin.dga import (
    DgaFormatError, DgaValidationError, cochain_algebra, dga_from_json,
    dga_to_json, load_dga, validate,
)
from hochgysin.exactlin import GF, QQ, ZZ, as_vector
from hochgysin.simplicial import build_circle, build_sphere, build_torus, make_complex
from oracles import dga_multiply

RINGS = [ZZ, QQ, GF(2), GF(3)]
POINT = make_complex(1, [(0,)])


def fixtures():
    return {
        "point": POINT,
        "circle": build_circle(),
        "sphere2": build_sphere(2),
        "sphere3": build_sphere(3),
        "torus2": build_torus(2),
        "torus3": build_torus(3),
    }


def test_point_algebra():
    a = cochain_algebra(POINT, ZZ)
    assert a.top_degree == 0 and a.ranks == [1]
    assert list(a.unit) == [1]
    assert validate(a).passed


def test_axiom_suite_all_fixtures_all_rings():
    start = time.monotonic()
    for name, k in fixtures().items():
        for ring in RINGS:
            report = validate(cochain_algebra(k, ring))
            assert report.passed, (name, ring.name, report.failures())
    assert time.monotonic() - start < 10.0


def test_circle_vertex_dual_products():
    a = cochain_algebra(build_circle(), ZZ)
    # e0* . e0* = e0* (front=back=vertex)
    e0 = as_vector(ZZ, [1, 0, 0])
    assert list(dga_multiply(a, 0, 0, e0, e0)) == [1, 0, 0]
    e1 = as_vector(ZZ, [0, 1, 0])
    assert list(dga_multiply(a, 0, 0, e0, e1)) == [0, 0, 0]
    # vertex dual cup edge dual: nonzero only when the vertex is the front face
    edges = a.labels[1]
    assert edges == [[0, 1], [0, 2], [1, 2]]
    e01 = as_vector(ZZ, [1, 0, 0])
    assert list(dga_multiply(a, 0, 1, e0, e01)) == [1, 0, 0]   # front vertex of 01 is 0
    assert list(dga_multiply(a, 0, 1, e1, e01)) == [0, 0, 0]   # 1 is the back vertex
    assert list(dga_multiply(a, 1, 0, e01, e1)) == [1, 0, 0]


def test_flipped_product_sign_caught():
    a = cochain_algebra(build_circle(), ZZ)
    ent = list(a.product[(0, 1)])
    i, j, k, c = ent[0]
    ent[0] = (i, j, k, -c)
    a.product = dict(a.product)
    a.product[(0, 1)] = tuple(ent)
    report = validate(a)
    assert not report.passed
    names = {c.name for c in report.failures()}
    assert names & {"leibniz", "associativity", "unit"}


def exterior_square_z():
    """Lambda(e1, e2) with zero differential, hand-rolled."""
    from hochgysin.dga import DgAlgebra
    product = {
        (0, 0): ((0, 0, 0, 1),),
        (0, 1): ((0, 0, 0, 1), (0, 1, 1, 1)),
        (1, 0): ((0, 0, 0, 1), (1, 0, 1, 1)),
        (0, 2): ((0, 0, 0, 1),),
        (2, 0): ((0, 0, 0, 1),),
        (1, 1): ((0, 1, 0, 1), (1, 0, 0, -1)),
    }
    return DgAlgebra(ZZ, 2, [1, 2, 1], {}, product, as_vector(ZZ, [1]))


def test_exterior_algebra_validates():
    assert validate(exterior_square_z()).passed


def test_save_load_roundtrip():
    a = cochain_algebra(build_torus(2), ZZ)
    b = dga_from_json(json.loads(json.dumps(dga_to_json(a), sort_keys=True)))
    assert a == b


def test_load_rejects_broken_differential(tmp_path):
    a = cochain_algebra(build_circle(), ZZ)
    payload = dga_to_json(a)
    payload["diff"]["0"][0][0] = 99      # breaks d^2 = 0 / Leibniz
    path = tmp_path / "broken.dga.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DgaValidationError):
        load_dga(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "junk.dga.json"
    path.write_text("[1, 2")
    with pytest.raises(DgaFormatError):
        load_dga(path)
    with pytest.raises(DgaFormatError):
        dga_from_json({"ring": "Z"})


@pytest.mark.parametrize("ring", RINGS)
def test_rational_and_modular_coefficients(ring):
    a = cochain_algebra(build_sphere(2), ring)
    assert validate(a).passed
    assert a.ring == ring


def test_broken_right_unit_named():
    a = exterior_square_z()
    product = dict(a.product)
    product[(1, 0)] = ((0, 0, 0, 1), (1, 0, 1, 2))      # e_1 * 1 = 2 e_1
    report = validate(dataclasses.replace(a, product=product))
    failures = {c.name: c.witness for c in report.failures()}
    assert failures["unit"] == "e_1^1 * 1 != e_1^1"


def test_broken_left_unit_named_first():
    # both sides fail on e_1^1: the left unit is reported
    a = exterior_square_z()
    product = dict(a.product)
    product[(0, 1)] = ((0, 0, 0, 1), (0, 1, 1, 2))
    product[(1, 0)] = ((0, 0, 0, 1), (1, 0, 1, 2))
    report = validate(dataclasses.replace(a, product=product))
    failures = {c.name: c.witness for c in report.failures()}
    assert failures["unit"] == "1 * e_1^1 != e_1^1"


def corrupted(a, rng):
    """a with one product coefficient, drawn uniformly, shifted by -1, 1 or 2."""
    pq, k = rng.choice([(pq, k) for pq in sorted(a.product)
                        for k in range(len(a.product[pq]))])
    ent = list(a.product[pq])
    i, j, t, c = ent[k]
    ent[k] = (i, j, t, c + rng.choice((-1, 1, 2)))
    return dataclasses.replace(a, product={**a.product, pq: tuple(ent)})


def corruption_witnesses(a, seed, count):
    rng = random.Random(seed)
    return [[[c.name, c.witness] for c in validate(corrupted(a, rng)).failures()]
            for _ in range(count)]


def test_validate_witnesses_pinned():
    # 60 corruptions of T^2 and 6 of T^3; the digest was taken from the
    # checker that looped over every basis pair, so the walk over the
    # entries present must report the same first mismatch
    start = time.monotonic()
    w = (corruption_witnesses(cochain_algebra(build_torus(2), ZZ), 11, 60)
         + corruption_witnesses(cochain_algebra(build_torus(3), ZZ), 13, 6))
    assert all(x and x[0][0] == "leibniz" for x in w)
    assert hashlib.sha256(json.dumps(w).encode()).hexdigest() == \
        "2492c8f080511eba95f494dd061b7c042a632dcb60d30574ee12b87bd8970c1f"
    assert time.monotonic() - start < 3.0
