import json

import pytest

from hochgysin.simplicial import (
    MalformedComplexError, build_circle, build_sphere, build_torus,
    complex_from_json, complex_to_json, make_complex, product,
)
from oracles import euler_characteristic, homology_groups, homology_ranks

POINT = make_complex(1, [(0,)])


def test_circle_shape():
    c = build_circle()
    assert c.vertex_count == 3
    assert c.f_vector() == [3, 3]
    assert euler_characteristic(c) == 0


def test_circle_homology():
    assert homology_groups(build_circle()) == [(1, []), (1, [])]


def test_sphere_zero_is_two_points():
    s = build_sphere(0)
    assert s.f_vector() == [2]
    assert homology_ranks(s) == [2]


def test_sphere_two():
    s = build_sphere(2)
    assert s.vertex_count == 4
    assert s.f_vector() == [4, 6, 4]
    assert euler_characteristic(s) == 2
    assert homology_groups(s) == [(1, []), (0, []), (1, [])]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sphere_homology(m):
    groups = homology_groups(build_sphere(m))
    expected = [(1 if n in (0, m) else 0, []) for n in range(m + 1)]
    assert groups == expected


def test_product_with_point_is_identity():
    for k in (build_circle(), build_sphere(2)):
        assert product(POINT, k).f_vector() == k.f_vector()
        assert product(k, POINT).f_vector() == k.f_vector()


def test_torus_two():
    t = build_torus(2)
    assert t.vertex_count == 9
    assert t.f_vector() == [9, 27, 18]       # 3*3*2 staircase triangles
    assert euler_characteristic(t) == 0
    assert homology_groups(t) == [(1, []), (2, []), (1, [])]


def test_torus_three():
    t = build_torus(3)
    assert t.vertex_count == 27
    assert euler_characteristic(t) == 0
    assert homology_ranks(t) == [1, 3, 3, 1]
    assert all(tor == [] for _, tor in homology_groups(t))


def test_torus_one_is_circle():
    assert build_torus(1) == build_circle()
    with pytest.raises(ValueError):
        build_torus(0)


def test_product_associative_on_fixtures():
    c = build_circle()
    left = product(product(c, c), c)
    right = product(c, product(c, c))
    assert left.f_vector() == right.f_vector()
    assert homology_groups(left) == homology_groups(right)
    # lexicographic indexing makes the two bracketings agree on the nose
    assert left == right


def test_save_load_roundtrip():
    t = build_torus(2)
    text = json.dumps(complex_to_json(t), sort_keys=True)
    assert complex_from_json(json.loads(text)) == t


def test_load_rejects_bad_ordering():
    with pytest.raises(MalformedComplexError):
        complex_from_json({"vertex_count": 3, "facets": [[2, 1]]})


def test_load_rejects_vertex_out_of_range():
    with pytest.raises(MalformedComplexError):
        complex_from_json({"vertex_count": 3, "facets": [[0, 9]]})


def test_load_rejects_garbage():
    with pytest.raises(MalformedComplexError):
        complex_from_json("{not json")
    with pytest.raises(MalformedComplexError):
        complex_from_json({"vertices": 3})
    with pytest.raises(MalformedComplexError):
        complex_from_json({"vertex_count": 3, "facets": [["a", 1]]})


def test_euler_equals_alternating_homology_ranks():
    for k in (build_circle(), build_sphere(2), build_sphere(3),
              build_torus(2), POINT):
        ranks = homology_ranks(k)
        assert euler_characteristic(k) == sum((-1) ** i * r for i, r in enumerate(ranks))
