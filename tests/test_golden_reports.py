"""Byte-for-byte regression of the CLI reports on the fixture pipelines.

The expected stdout and exit code of every case live in
`golden_reports.json`; refactors of the library must leave them
unchanged.  Large outputs are pinned by their sha256 instead of their
text.  The cases run in process through cli.main (see clirun.py).
"""

import hashlib
import json
from pathlib import Path

import pytest

from clirun import run_in_process

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
# relative to the repo root, the working directory of every run: reports
# name their input
FIXTURE = "src/hochgysin/fixtures/massey_fixture.dga.json"


def _broken(text, edit):
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload, sort_keys=True)


def _bad_diff(payload):
    payload["diff"]["0"][0][0] = 7


def _flip_product_sign(payload):
    entry = payload["product"]["1,1"][0]
    entry[3] = -entry[3]


# name -> (argv, stdin: None | name of an earlier case | (case, edit), pin)
CASES = {
    "build_t2": (["build", "torus", "--n", "2"], None, "text"),
    "cochains_t2": (["cochains"], "build_t2", "text"),
    "validate_t2": (["validate"], "cochains_t2", "text"),
    "validate_bad_diff": (["validate"], ("cochains_t2", _bad_diff), "text"),
    "validate_flipped_product": (["validate"], ("cochains_t2", _flip_product_sign),
                                 "text"),
    "cohomology_t2": (["cohomology"], "cochains_t2", "text"),
    "sections_t2_seed3": (["sections", "--seed", "3"], "cochains_t2", "sha256"),
    "theta_class_t2_seed3": (["theta-class"], "sections_t2_seed3", "text"),
    "theta_class_t2": (["theta-class"], "cochains_t2", "text"),
    "theta_class_fixture": (["theta-class", "--in", FIXTURE], None, "text"),
    "massey_fixture": (["massey", "--x", "1:[0,1]", "--y", "1:[0,1]", "--z", "1:[1,0]",
                        "--in", FIXTURE], None, "text"),
    "gysin_t2_z": (["gysin", "--c", "2:[2]", "--check-th", "--split"],
                   "cochains_t2", "text"),
    "gysin_t2_f3": (["gysin", "--c", "2:[2]", "--check-th", "--split",
                     "--ring", "F3"], "build_t2", "text"),
    "gysin_fixture": (["gysin", "--c", "1:[0,1]", "--check-th", "--split",
                       "--in", FIXTURE], None, "text"),
    "gysin_t2_q": (["gysin", "--c", "2:[2]", "--check-th", "--split",
                    "--ring", "Q"], "build_t2", "text"),
    "gysin_t2_c1_z": (["gysin", "--c", "1:[1,0]", "--check-th", "--split"],
                      "build_t2", "text"),
    "gysin_t2_q_half": (["gysin", "--c", '2:["1/2"]', "--check-th", "--split",
                         "--ring", "Q"], "build_t2", "text"),
    "torus_2": (["torus", "--n", "2"], None, "text"),
    "monomorphism_2": (["monomorphism", "--n", "2"], None, "text"),
    # inputs at the int64 edges: products over a prime whose squares pass
    # 2**63 and over one whose squares sit just below it, and classes whose
    # coefficient is not a word or is 2**62
    "torus_2_f4294967291_seed3": (["torus", "--n", "2", "--ring", "F4294967291",
                                   "--seed", "3"], None, "text"),
    "torus_3_f2147483647_seed5": (["torus", "--n", "3", "--ring", "F2147483647",
                                   "--seed", "5"], None, "text"),
    "gysin_t2_z_c_23_digits": (["gysin", "--c", "2:[99999999999999999999999]",
                                "--check-th", "--split"], "cochains_t2", "text"),
    "gysin_t2_z_c_2_pow_62": (["gysin", "--c", "2:[4611686018427387904]",
                               "--check-th", "--split"], "cochains_t2", "text"),
}


def _stdin_of(source, outputs):
    if source is None:
        return None
    if isinstance(source, tuple):
        name, edit = source
        return _broken(outputs[name], edit)
    return outputs[source]


def _pinned(name, stdout):
    if CASES[name][2] == "sha256":
        return {"sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    return {"stdout": stdout}


@pytest.fixture(scope="module")
def actual():
    """{case: (exit code, stdout)}, run in CASES order."""
    outputs, results = {}, {}
    for name, (argv, source, _) in CASES.items():
        res = run_in_process(argv, _stdin_of(source, outputs))
        outputs[name] = res.stdout
        results[name] = (res.returncode, res.stdout)
    return results


@pytest.mark.parametrize("name", list(CASES))
def test_report_unchanged(actual, name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    code, stdout = actual[name]
    assert code == expected["exit"]
    assert _pinned(name, stdout) == {k: v for k, v in expected.items() if k != "exit"}
