import json
from pathlib import Path

import pytest

from clirun import run_in_process as run_cli, run_subprocess

FIXTURE = Path(__file__).parent.parent / "src" / "hochgysin" / "fixtures" / \
    "massey_fixture.dga.json"


# the entry point `python -m hochgysin.cli` gives the report of the
# in-process run, for a pass, a failed property and an input error
@pytest.mark.parametrize("argv, stdin, code", [
    (["build", "torus", "--n", "2"], None, 0),
    (["theta-class", "--in", str(FIXTURE)], None, 1),
    (["cochains"], "{broken json", 2),
], ids=["pass", "failed_property", "input_error"])
def test_entry_point_matches_in_process_run(argv, stdin, code):
    res = run_subprocess(argv, stdin=stdin)
    assert res.returncode == code
    assert res.stdout == run_cli(argv, stdin=stdin).stdout
    assert "Traceback" not in res.stderr


def test_build_cochains_validate_pipeline():
    built = run_cli(["build", "torus", "--n", "2"])
    assert built.returncode == 0
    cochains = run_cli(["cochains", "--ring", "Z"], stdin=built.stdout)
    assert cochains.returncode == 0
    validated = run_cli(["validate"], stdin=cochains.stdout)
    assert validated.returncode == 0
    report = json.loads(validated.stdout)
    assert report["exit"] == 0
    assert all(c["pass"] for c in report["checks"])


def test_build_usage_errors():
    assert run_cli(["build", "sphere"]).returncode == 2
    assert run_cli(["build", "torus", "--n", "0"]).returncode == 2
    assert run_cli(["build", "nonsense"]).returncode == 2


def test_validate_rejects_broken_algebra(tmp_path):
    built = run_cli(["build", "circle"])
    cochains = run_cli(["cochains"], stdin=built.stdout)
    payload = json.loads(cochains.stdout)
    payload["diff"]["0"][0][0] = 7
    res = run_cli(["validate"], stdin=json.dumps(payload))
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert not all(c["pass"] for c in report["checks"])


def test_malformed_input_exit_2(tmp_path):
    res = run_cli(["cochains"], stdin="{broken json")
    assert res.returncode == 2
    bad = tmp_path / "bad.scx.json"
    bad.write_text(json.dumps({"vertex_count": 3, "facets": [[2, 1]]}))
    res2 = run_cli(["cochains", "--in", str(bad)])
    assert res2.returncode == 2
    assert "error" in json.loads(res2.stdout)


def test_cohomology_report():
    built = run_cli(["build", "torus", "--n", "2"])
    res = run_cli(["cohomology", "--ring", "Z"], stdin=built.stdout)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    ranks = [rep["cohomology"][str(n)]["free_rank"] for n in range(3)]
    assert ranks == [1, 2, 1]
    assert rep["cohomology"]["1"]["representatives"]


def test_sections_theta_pipeline_and_determinism():
    built = run_cli(["build", "torus", "--n", "2"])
    cochains = run_cli(["cochains"], stdin=built.stdout)
    s1 = run_cli(["sections", "--seed", "3"], stdin=cochains.stdout)
    s2 = run_cli(["sections", "--seed", "3"], stdin=cochains.stdout)
    assert s1.returncode == 0
    assert s1.stdout == s2.stdout           # byte-stable for fixed seed
    th1 = run_cli(["theta"], stdin=s1.stdout)
    th2 = run_cli(["theta"], stdin=s2.stdout)
    assert th1.returncode == 0
    assert th1.stdout == th2.stdout
    blocks = json.loads(th1.stdout)
    assert blocks["arity"] == 3 and blocks["internal_degree"] == -1


def test_theta_class_trivial_on_torus():
    built = run_cli(["build", "torus", "--n", "2"])
    cochains = run_cli(["cochains"], stdin=built.stdout)
    res = run_cli(["theta-class"], stdin=cochains.stdout)
    assert res.returncode == 0
    assert json.loads(res.stdout)["trivial"] is True


def test_theta_class_nontrivial_on_fixture():
    res = run_cli(["theta-class", "--in", str(FIXTURE)])
    assert res.returncode == 1
    rep = json.loads(res.stdout)
    assert rep["trivial"] is False
    assert "certificate" in rep


def test_massey_fixture_nonzero():
    res = run_cli(["massey", "--x", "1:[0,1]", "--y", "1:[0,1]", "--z", "1:[1,0]",
                   "--in", str(FIXTURE)])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["representative"] == [-1, 0]
    assert rep["zero_coset"] is False


def test_massey_rejects_non_triple():
    # [e1] * [e23] is the top class, so (x, y, z) = ([e1], [e23], anything)
    # is not a Massey triple
    res = run_cli(["massey", "--x", "1:[0,1]", "--y", "2:[0,1]", "--z", "1:[1,0]",
                   "--in", str(FIXTURE)])
    assert res.returncode == 2
    assert "NotAMasseyTriple" in json.loads(res.stdout)["error"]


def test_massey_bad_literal():
    res = run_cli(["massey", "--x", "banana", "--y", "1:[0,1]", "--z", "1:[1,0]",
                   "--in", str(FIXTURE)])
    assert res.returncode == 2


def test_gysin_check_th_and_split_on_torus():
    built = run_cli(["build", "torus", "--n", "2"])
    cochains = run_cli(["cochains"], stdin=built.stdout)
    res = run_cli(["gysin", "--c", "2:[1]", "--check-th", "--split"],
                  stdin=cochains.stdout)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert {c["name"]: c["pass"] for c in rep["checks"]} == {
        "extension_exact": True, "theorem_th": True, "split_found": True}
    assert rep["result"]["extension"]["cone_cohomology"]["2"] == \
        {"free_rank": 2, "torsion": []}


def test_gysin_split_fails_on_fixture():
    res = run_cli(["gysin", "--c", "1:[0,1]", "--split", "--in", str(FIXTURE)])
    assert res.returncode == 1
    rep = json.loads(res.stdout)
    verdicts = {c["name"]: c["pass"] for c in rep["checks"]}
    assert verdicts["extension_exact"] is True
    assert verdicts["split_found"] is False


def test_gysin_torsion_report():
    built = run_cli(["build", "torus", "--n", "2"])
    cochains = run_cli(["cochains"], stdin=built.stdout)
    res = run_cli(["gysin", "--c", "2:[2]"], stdin=cochains.stdout)
    rep = json.loads(res.stdout)
    assert rep["result"]["extension"]["cone_cohomology"]["2"] == \
        {"free_rank": 2, "torsion": [2]}


def test_torus_subcommand(tmp_path):
    out = tmp_path / "w.hcochain.json"
    res = run_cli(["torus", "--n", "2", "--ring", "Z",
                   "--emit-witness", str(out)])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert all(c["pass"] for c in rep["checks"])
    witness = json.loads(out.read_text())
    assert witness["arity"] == 2 and witness["internal_degree"] == -1


def test_monomorphism_subcommand():
    res = run_cli(["monomorphism", "--n", "2"])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["injective_on_classes"] is True


def test_env_seed_matches_explicit_seed():
    built = run_cli(["build", "circle"])
    cochains = run_cli(["cochains"], stdin=built.stdout)
    via_flag = run_cli(["sections", "--seed", "9"], stdin=cochains.stdout)
    via_env = run_cli(["sections"], stdin=cochains.stdout,
                      env_extra={"HOCHGYSIN_SEED": "9"})
    assert via_flag.stdout == via_env.stdout


@pytest.mark.parametrize("value", ["x", "1.5", "+3", "3_0"])
def test_env_seed_must_be_an_integer(tmp_path, value):
    dga = tmp_path / "t2.dga.json"
    dga.write_text(_t2_cochains())
    res = run_cli(["theta", "--in", str(dga)], env_extra={"HOCHGYSIN_SEED": value})
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert "HOCHGYSIN_SEED" in json.loads(res.stdout)["error"]
    assert "Traceback" not in res.stderr


def test_reports_byte_stable():
    built1 = run_cli(["build", "torus", "--n", "2"])
    built2 = run_cli(["build", "torus", "--n", "2"])
    assert built1.stdout == built2.stdout
    r1 = run_cli(["theta-class", "--in", str(FIXTURE)])
    r2 = run_cli(["theta-class", "--in", str(FIXTURE)])
    assert r1.stdout == r2.stdout


def _t2_cochains():
    from hochgysin.dga import cochain_algebra, dga_to_json
    from hochgysin.exactlin import ZZ
    from hochgysin.simplicial import build_torus
    return json.dumps(dga_to_json(cochain_algebra(build_torus(2), ZZ)))


def _circle():
    return run_cli(["build", "circle"]).stdout


def _circle_complex():
    from hochgysin.simplicial import build_circle, complex_to_json
    return json.dumps(complex_to_json(build_circle()))


def _circle_cochains():
    from hochgysin.dga import cochain_algebra, dga_to_json
    from hochgysin.exactlin import ZZ
    from hochgysin.simplicial import build_circle
    return json.dumps(dga_to_json(cochain_algebra(build_circle(), ZZ)))


def _circle_cochains_float_diff():
    payload = json.loads(_circle_cochains())
    payload["diff"]["0"][0][0] = float(payload["diff"]["0"][0][0])
    return json.dumps(payload)


def _with(make, *path, value):
    """The payload text of make() with the entry at path set to value."""
    def edited():
        payload = json.loads(make())
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return json.dumps(payload)
    return edited


def _package(k, seed, edit):
    from hochgysin.dga import cochain_algebra
    from hochgysin.exactlin import ZZ
    from hochgysin.sections import build_sections, sections_to_json
    payload = sections_to_json(build_sections(cochain_algebra(k, ZZ), seed=seed))
    edit(payload)
    return json.dumps(payload)


def _circle_sections(edit):
    from hochgysin.simplicial import build_circle
    return _package(build_circle(), None, edit)


def _t2_seed3_sections(edit):
    from hochgysin.simplicial import build_torus
    return _package(build_torus(2), 3, edit)


def _sections_intact():
    return _circle_sections(lambda payload: None)


def _sections_old_format():
    return _circle_sections(lambda payload: payload.update(im_div={"1": [1]}, coc_inv={}))


def _sections_without_q():
    return _circle_sections(lambda payload: payload.pop("q"))


def _sections_q_column_too_many():
    def edit(payload):
        for row in payload["q"]["1"]:
            row.append(0)
    return _circle_sections(edit)


def _t2_sections_flipped_product():
    def edit(payload):
        entry = payload["algebra"]["product"]["1,1"][0]
        entry[3] = -entry[3]
    return _t2_seed3_sections(edit)


def _t2_sections_d_squared_nonzero():
    def edit(payload):
        payload["algebra"]["diff"]["0"][0][0] = 7
    return _t2_seed3_sections(edit)


def _sections_s_missing_a_row():
    return _circle_sections(lambda payload: payload["s"]["1"].pop())


def _sections_fractional_s():
    def edit(payload):
        payload["s"]["1"][2][0] = 1.5  # was 1, so reading 1.5 as 1 passed
    return _circle_sections(edit)


MASSEY = ["massey", "--in", str(FIXTURE), "--y", "1:[0,1]"]

# each input once printed a traceback and exited 1 (or 0, reading 1.5, -1.0
# or "1_0" as an integer, or ignoring --ring on a dg-algebra or section input;
# or 0 reading an integer field 1.9, "3" or 0.0 through int(), and 1, a failed
# property, for a rank true; or 0 carrying a seed "x", running on the embedded
# algebra of a package unvalidated, or reading a class degree "0_1" or "+1"
# through int(); or a traceback for a JSON array); an old-format package,
# naming the fields that the fixed pivot rule derives, and a package without q
# are rejected likewise
USAGE_CASES = {
    "torus_n0": (["torus", "--n", "0"], None),
    "monomorphism_n0": (["monomorphism", "--n", "0"], None),
    "sections_old_format": (["theta"], _sections_old_format),
    "sections_missing_q": (["theta"], _sections_without_q),
    "sections_s_missing_a_row": (["theta"], _sections_s_missing_a_row),
    "massey_z_too_long": (MASSEY + ["--x", "1:[0,1]", "--z", "1:[0,1,2]"], None),
    "massey_x_not_a_number": (MASSEY + ["--x", '1:[0,"a"]', "--z", "1:[1,0]"], None),
    "massey_x_float": (MASSEY + ["--x", "1:[0,1.5]", "--z", "1:[1,0]"], None),
    "gysin_degree_out_of_range": (["gysin", "--c", "7:[1]"], _t2_cochains),
    "gysin_wrong_length": (["gysin", "--c", "2:[1,1]"], _t2_cochains),
    "cochains_ring_not_prime": (["cochains", "--ring", "F4"], _circle),
    # a ring name is Z, Q or F[1-9][0-9]* naming a prime below 2**32: "F1_1"
    # ran as F11 and "F 5", "F+5", "F05", "F5 " as F5; F1 with 400 zeros
    # printed an OverflowError traceback, and F(10^20 + 39) hung in trial
    # division; a payload's "ring" is read by the same rule
    "cochains_ring_underscore": (["cochains", "--ring", "F1_1"], _circle_complex),
    "cochains_ring_inner_space": (["cochains", "--ring", "F 5"], _circle_complex),
    "cochains_ring_plus": (["cochains", "--ring", "F+5"], _circle_complex),
    "cochains_ring_leading_zero": (["cochains", "--ring", "F05"], _circle_complex),
    "cochains_ring_trailing_space": (["cochains", "--ring", "F5 "], _circle_complex),
    "cochains_ring_401_digits": (["cochains", "--ring", "F1" + "0" * 400], _circle_complex),
    "cochains_ring_prime_too_large": (["cochains", "--ring", "F100000000000000000039"],
                                      _circle_complex),
    "validate_ring_key_leading_zero": (["validate"], _with(_circle_cochains, "ring",
                                                           value="F05")),
    "monomorphism_unknown_ring": (["monomorphism", "--n", "1", "--ring", "X"], None),
    "cochains_ring_garbled": (["cochains", "--ring", "Z7x"], _circle),
    "build_sphere_negative": (["build", "sphere", "--m", "-1"], None),
    "cohomology_unknown_ring_on_dga": (["cohomology", "--ring", "X"], _circle_cochains),
    "cohomology_other_ring_on_dga": (["cohomology", "--ring", "Q"], _circle_cochains),
    "theta_unknown_ring_on_sections": (["theta", "--ring", "X"], _sections_intact),
    "theta_other_ring_on_sections": (["theta", "--ring", "F3"], _sections_intact),
    "validate_float_in_diff": (["validate"], _circle_cochains_float_diff),
    "theta_float_in_sections": (["theta"], _sections_fractional_s),
    "gysin_underscore_digit": (["gysin", "--c", '2:["1_0"]'], _t2_cochains),
    "validate_float_top_degree": (["validate"], _with(_circle_cochains, "top_degree",
                                                       value=1.9)),
    "validate_string_rank": (["validate"], _with(_circle_cochains, "ranks", 0, value="3")),
    "validate_bool_rank": (["validate"], _with(_circle_cochains, "ranks", 0, value=True)),
    "validate_float_product_index": (["validate"], _with(_circle_cochains, "product", "0,0",
                                                          0, 0, value=0.0)),
    "theta_q_column_too_many": (["theta"], _sections_q_column_too_many),
    "theta_string_seed": (["theta"], _with(_sections_intact, "seed", value="x")),
    "theta_flipped_product_in_sections": (["theta"], _t2_sections_flipped_product),
    "theta_d_squared_nonzero_in_sections": (["theta"], _t2_sections_d_squared_nonzero),
    "gysin_underscore_degree": (["gysin", "--c", "0_1:[1,0]"], _t2_cochains),
    "gysin_plus_degree": (["gysin", "--c", "+1:[1,0]"], _t2_cochains),
    "theta_json_array": (["theta"], lambda: '["s", "algebra"]'),
    # --seed is read as a JSON integer, as HOCHGYSIN_SEED is: argparse's
    # int() ran "3_0" as seed 30 and "+3" as seed 3 (sections, theta,
    # theta-class, massey and gysin share one --seed; torus has its own)
    "sections_seed_underscore": (["sections", "--seed", "3_0"], _circle_cochains),
    # --m and --n are read by the same rule: argparse's int() built S^2 from
    # "0_2", S^1 from "+1", T^1 from an Arabic-Indic one, and ran the
    # monomorphism probe at n = 1 from "0_1"
    "build_sphere_m_underscore": (["build", "sphere", "--m", "0_2"], None),
    "build_sphere_m_plus": (["build", "sphere", "--m", "+1"], None),
    "monomorphism_n_underscore": (["monomorphism", "--n", "0_1"], None),
    "build_torus_n_arabic_indic_digit": (["build", "torus", "--n", "\u0661"], None),
    "sections_seed_plus": (["sections", "--seed", "+3"], _circle_cochains),
    "sections_seed_float": (["sections", "--seed", "1.5"], _circle_cochains),
    "sections_seed_word": (["sections", "--seed", "x"], _circle_cochains),
    "gysin_seed_word": (["gysin", "--c", "2:[1]", "--seed", "x"], _t2_cochains),
    "torus_seed_underscore": (["torus", "--n", "2", "--seed", "3_0"], None),
}
# T^2 cochains whose ranks do not fit top_degree: the shapes check failed
# but went on to read the differentials by those ranks, and every reader
# printed a traceback (np.empty of a negative size, or an IndexError);
# validate reports the failed check with exit 1, the others exit 2
BAD_RANKS = {
    "negative_rank": _with(_t2_cochains, "ranks", value=[9, 27, -18]),
    "top_degree_past_the_ranks": _with(_t2_cochains, "top_degree", value=3),
}
USAGE_CASES.update({f"{cmd}_{name}": ([cmd], make)
                    for cmd in ("cohomology", "theta") for name, make in BAD_RANKS.items()})
# a complex without facets printed a ValueError traceback and exited 1
# (empty complex); a bool vertex_count was read as 1 and a vertex 1.5
# passed, both with exit 0
BAD_COMPLEXES = {
    "no_vertices": {"vertex_count": 0, "facets": []},
    "no_facets": {"vertex_count": 3, "facets": []},
    "bool_vertex_count": {"vertex_count": True, "facets": [[0]]},
    "float_vertex": {"vertex_count": 2, "facets": [[0, 1.5]]},
}
USAGE_CASES.update({f"{cmd}_complex_{name}": ([cmd], lambda k=k: json.dumps(k))
                    for cmd in ("cochains", "cohomology")
                    for name, k in BAD_COMPLEXES.items()})


@pytest.mark.parametrize("name", sorted(BAD_RANKS))
def test_validate_reports_ranks_that_do_not_fit(name):
    res = run_cli(["validate"], stdin=BAD_RANKS[name]())
    assert res.returncode == 1 and "Traceback" not in res.stderr
    assert json.loads(res.stdout)["checks"] == [{"name": "shapes", "pass": False}]


@pytest.mark.parametrize("case", list(USAGE_CASES))
def test_usage_errors_exit_2_without_traceback(case):
    argv, stdin = USAGE_CASES[case]
    res = run_cli(argv, stdin=stdin() if stdin else None)
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert "error" in json.loads(res.stdout)
    assert "Traceback" not in res.stderr


def test_ring_of_the_input_is_accepted():
    assert run_cli(["cohomology", "--ring", "Z"], stdin=_circle_cochains()).returncode == 0
    assert run_cli(["theta", "--ring", "Z"], stdin=_sections_intact()).returncode == 0
