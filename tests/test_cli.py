import json
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURE = Path(__file__).parent.parent / "src" / "hochgysin" / "fixtures" / \
    "massey_fixture.dga.json"


def run_cli(args, stdin=None, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "hochgysin.cli", *args],
        input=stdin, capture_output=True, text=True, env=env)
    return proc


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


def _circle_sections(edit):
    from hochgysin.dga import cochain_algebra
    from hochgysin.exactlin import ZZ
    from hochgysin.sections import build_sections, sections_to_json
    from hochgysin.simplicial import build_circle
    payload = sections_to_json(build_sections(cochain_algebra(build_circle(), ZZ)))
    edit(payload)
    return json.dumps(payload)


def _sections_intact():
    return _circle_sections(lambda payload: None)


def _sections_without_h_rank():
    return _circle_sections(lambda payload: payload.pop("h_rank"))


def _sections_short_h_rank():
    return _circle_sections(lambda payload: payload["h_rank"].pop())


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
# property, for a rank true; or a ZeroDivisionError traceback for an im_div 0,
# and 0 for a wrong im_div)
USAGE_CASES = {
    "torus_n0": (["torus", "--n", "0"], None),
    "monomorphism_n0": (["monomorphism", "--n", "0"], None),
    "sections_missing_h_rank": (["theta"], _sections_without_h_rank),
    "sections_short_h_rank": (["theta"], _sections_short_h_rank),
    "sections_s_missing_a_row": (["theta"], _sections_s_missing_a_row),
    "massey_z_too_long": (MASSEY + ["--x", "1:[0,1]", "--z", "1:[0,1,2]"], None),
    "massey_x_not_a_number": (MASSEY + ["--x", '1:[0,"a"]', "--z", "1:[1,0]"], None),
    "massey_x_float": (MASSEY + ["--x", "1:[0,1.5]", "--z", "1:[1,0]"], None),
    "gysin_degree_out_of_range": (["gysin", "--c", "7:[1]"], _t2_cochains),
    "gysin_wrong_length": (["gysin", "--c", "2:[1,1]"], _t2_cochains),
    "cochains_ring_not_prime": (["cochains", "--ring", "F4"], _circle),
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
    "theta_float_h_rank": (["theta"], _with(_sections_intact, "h_rank", 0, value=1.9)),
    "theta_string_coc_rank": (["theta"], _with(_sections_intact, "coc_rank", "0", value="2")),
    "theta_zero_im_div": (["theta"], _with(_sections_intact, "im_div", "1", 0, value=0)),
    "theta_wrong_im_div": (["theta"], _with(_sections_intact, "im_div", "1", 0, value=2)),
}


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
