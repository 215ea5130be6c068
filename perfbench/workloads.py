"""The benchmark workloads: inputs from a seed, one job, its checks.

`BENCHMARK.json` lists the four that are measured.  `hh3-exterior-3`, the
monomorphism probe over Z, is kept for runs by hand only: its one job of
about 30 s per run leaves no median to take, and its time swings with the
load the shared host puts on memory; `hh3-exterior-3-f5` runs the same
probe, on the same 1365x495 matrix, over F5 in about 7 s.

A job is one pipeline invocation on one generated input.  Each workload
gives

- `setup()`: builds the fixtures every job needs (complexes, cochain
  algebras); this is what `setup_s` times, together with the import;
- `jobs(seed)`: the endless, seed-determined sequence of job inputs;
- `run(ctx, spec, tr)`: the timed pipeline, calling hochgysin only
  through module attributes so the tracer's wrappers see every call;
- `check(ctx, spec, out, expected)`: the untimed output checks, which
  return a list of problems (empty when the job is correct).  They use
  paths independent of the timed code where one exists.

`EXPECTED` holds the values the checks compare against; `WRONG` holds
one deliberately false value per workload for the negative self-test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# seven classes of torus(2), as in acceptance criterion 09
T2_CLASSES = ((0, (1,)), (1, (1, 0)), (1, (0, 1)), (1, (1, 1)),
              (2, (1,)), (2, (2,)), (2, (3,)))

# cone cohomology {degree: (free rank, torsion)} of c = k * [T^2] in H^2
_CONE_UNIT = {0: (1, []), 1: (2, []), 2: (2, []), 3: (1, [])}
_CONE_ZERO = {0: (1, []), 1: (3, []), 2: (3, []), 3: (1, [])}   # c = 0
_CHECK_FLAGS = {"extension_exact": True, "theorem_th": True, "split_found": True}

EXPECTED = {
    "theta-seeded-t3": {"h_rank": [1, 3, 3, 1]},
    "hh3-exterior-3": {"verdict": (30, [], True, True)},
    # over F5 the probe gives the same verdict as over Z: no torsion, and 5
    # does not divide the order of S_3
    "hh3-exterior-3-f5": {"verdict": (30, [], True, True)},
    "gysin-t2": {
        "flags": _CHECK_FLAGS,
        "fixture_flags": {**_CHECK_FLAGS, "split_found": False},
        "massey_rep": [-1, 0],
        # acceptance criterion 08 over Z; over F3, c = 3 [T^2] is zero
        "cone": {("Z", 1): _CONE_UNIT,
                 ("Z", 2): {**_CONE_UNIT, 2: (2, [2])},
                 ("Z", 3): {**_CONE_UNIT, 2: (2, [3])},
                 ("F3", 1): _CONE_UNIT, ("F3", 2): _CONE_UNIT,
                 ("F3", 3): _CONE_ZERO},
    },
    "rational-t2": {
        "flags": _CHECK_FLAGS,
        "cone": {("Q", 1): _CONE_UNIT, ("Q", 2): _CONE_UNIT, ("Q", 3): _CONE_UNIT},
    },
}

# one false expectation per workload, each consulted by every job
WRONG = {
    "theta-seeded-t3": {"h_rank": [1, 3, 3, 2]},
    "hh3-exterior-3": {"verdict": (31, [], True, True)},
    "hh3-exterior-3-f5": {"verdict": (31, [], True, True)},
    "gysin-t2": {"flags": {**_CHECK_FLAGS, "theorem_th": False},
                 "fixture_flags": {**_CHECK_FLAGS, "theorem_th": False,
                                   "split_found": False}},
    "rational-t2": {"flags": {**_CHECK_FLAGS, "theorem_th": False}},
}


def expectations(name: str, wrong: bool = False) -> dict:
    return {**EXPECTED[name], **(WRONG[name] if wrong else {})}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    jobs: Callable
    run: Callable
    check: Callable
    trace_jobs: int          # fixed job count of a traced run
    uses_seed: bool = True


def _passes(pool, rng):
    """Shuffled passes over the pool, so every run sees the same mix."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


# ---------------------------------------------------------------------------
# theta-seeded-t3: cochains | sections --seed s | theta-class, plus symmetrize
# ---------------------------------------------------------------------------

def _theta_setup():
    from hochgysin import dga, exactlin, simplicial
    return {"algebra": dga.cochain_algebra(simplicial.build_torus(3), exactlin.ZZ)}


def _theta_jobs(seed):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2 ** 31)


def _theta_run(ctx, section_seed, tr):
    from hochgysin import dga, hochschild, sections, torus
    with tr.span("dga.io"):
        text = json.dumps(dga.dga_to_json(ctx["algebra"]), sort_keys=True)
        algebra = dga.dga_from_json(json.loads(text))
    tr.count("dga.io.bytes", len(text))
    report = dga.validate(algebra)
    co = sections.build_sections(algebra, seed=section_seed)
    with tr.span("sections.io"):
        text = json.dumps(sections.sections_to_json(co), sort_keys=True)
        co = sections.sections_from_json(json.loads(text))
    tr.count("sections.io.bytes", len(text))
    th = hochschild.theta(co)
    witness, _ = hochschild.trivialize(th, hochschild.TwistedBimodule(co.h()))
    sym = torus.symmetrize(th)
    return {"valid": report.passed, "sections": co, "theta": th,
            "witness": witness, "sym": sym}


def _theta_check(ctx, section_seed, out, expected):
    from hochgysin import exactlin, hochschild, torus
    problems = []
    co, th, witness = out["sections"], out["theta"], out["witness"]
    if not out["valid"]:
        problems.append("validate failed on the round-tripped algebra")
    if co.h_rank != expected["h_rank"]:
        problems.append(f"h_rank {co.h_rank} != {expected['h_rank']}")
    h = co.h()
    if witness is None:
        problems.append("theta not trivialized")
    elif hochschild.coboundary(witness, hochschild.TwistedBimodule(h)) != th:
        problems.append("evaluator: coboundary(witness) != theta")
    # the symmetrized image, once from the timed result and once through
    # the matrix of the symmetrization on flat cochain coordinates
    layout = hochschild.CochainLayout.build(h, 3, -1)
    flat = torus.symmetrize_matrix(h, layout).matvec(layout.pack(th))
    if not out["sym"].is_zero() or not exactlin.vec_is_zero(flat):
        problems.append("symmetrized image of theta is not zero")
    return problems


# ---------------------------------------------------------------------------
# hh3-exterior-3(-f5): the monomorphism probe on Lambda(Z^3); fixed input
# ---------------------------------------------------------------------------

def _hh3_setup():
    import hochgysin  # noqa: F401  (the probe builds its own algebra)
    return {}


def _hh3_jobs(seed, ring):
    while True:
        yield 3, ring


def _hh3_run(ctx, spec, tr):
    from hochgysin import exactlin, torus
    n, ring = spec
    return torus.verify_monomorphism(n, ring=exactlin.ring_from_name(ring))


def _hh3_check(ctx, spec, out, expected):
    got = (out["hh3_free_rank"], out["hh3_torsion"],
           out["descends_to_classes"], out["injective_on_classes"])
    return [] if got == expected["verdict"] else [f"verdict {got} != {expected['verdict']}"]


# ---------------------------------------------------------------------------
# gysin-t2 and rational-t2: `gysin --check-th --split` from a cochain algebra
# ---------------------------------------------------------------------------

FIXTURE = "fixture"
MASSEY_X, MASSEY_Z = (0, 1), (1, 0)


def _t2_setup(rings):
    from hochgysin import dga, exactlin, simplicial
    ctx = {}
    for name in rings:
        ctx[name] = dga.cochain_algebra(simplicial.build_torus(2),
                                        exactlin.ring_from_name(name))
    return ctx


def _gysin_setup():
    import hochgysin
    from hochgysin import dga
    ctx = _t2_setup(("Z", "F3"))
    path = Path(hochgysin.__file__).parent / "fixtures" / "massey_fixture.dga.json"
    ctx[FIXTURE] = dga.load_dga(path)
    return ctx


def _t2_jobs(seed, rings, with_fixture):
    rng = random.Random(seed)
    pool = [(ring, deg, c) for ring in rings for deg, c in T2_CLASSES]
    if with_fixture:
        pool.append((FIXTURE, 1, MASSEY_X))
    for ring, deg, c in _passes(pool, rng):
        # torus jobs use the canonical sections; the fixture is seeded
        section_seed = rng.randrange(1, 2 ** 31) if ring == FIXTURE else None
        yield ring, deg, c, section_seed


def _gysin_pipeline(algebra, c_degree, c, co):
    from hochgysin import gysin, hochschild
    ext = gysin.gysin_extension(algebra, c_degree, c, co)
    exactness = gysin.check_extension_exactness(ext)
    th_ok, _ = gysin.verify_theorem_th(algebra, c_degree, c, co, ext=ext)
    th = hochschild.theta(co)
    witness, cert = hochschild.trivialize(th, hochschild.TwistedBimodule(co.h()))
    section, _ = gysin.split_extension(ext, theta_witness=witness)
    flags = {"extension_exact": all(all(e.values()) for e in exactness.values()),
             "theorem_th": th_ok, "split_found": section is not None}
    return {"ext": ext, "theta": th, "witness": witness, "cert": cert,
            "flags": flags}


def _t2_run(ctx, spec, tr):
    from hochgysin import exactlin, massey, sections
    ring, c_degree, c, section_seed = spec
    algebra = ctx[ring]
    co = sections.build_sections(algebra, seed=section_seed)
    out = {"sections": co}
    if ring == FIXTURE:
        x = exactlin.as_vector(algebra.ring, MASSEY_X)
        z = exactlin.as_vector(algebra.ring, MASSEY_Z)
        out["massey"] = massey.massey_triple(co, 1, x, 1, x, 1, z)
    out.update(_gysin_pipeline(algebra, c_degree, c, co))
    return out


def _cone_oracle(cone_module, ring):
    """{degree: (free rank, torsion)} from SNFs of the cone differentials."""
    from hochgysin import exactlin
    out = {}
    for n in cone_module.degrees:
        s_n = exactlin.smith_normal_form(cone_module.d(n))
        s_prev = exactlin.smith_normal_form(cone_module.d(n - 1)) \
            if n - 1 in cone_module.degrees else None
        rank_prev = s_prev.rank if s_prev else 0
        torsion = [int(d) for d in (s_prev.divisors if s_prev else [])
                   if not ring.is_unit(d)]
        out[n] = (cone_module.rank(n) - s_n.rank - rank_prev, torsion)
    return out


def _t2_check(ctx, spec, out, expected):
    from hochgysin import hochschild
    ring, c_degree, c, _ = spec
    problems = []
    want = expected["fixture_flags" if ring == FIXTURE else "flags"]
    if out["flags"] != want:
        problems.append(f"check flags {out['flags']} != {want}")
    ext = out["ext"]
    if ring == FIXTURE:
        rep = [int(v) for v in out["massey"].representative]
        if rep != expected["massey_rep"]:
            problems.append(f"massey representative {rep} != {expected['massey_rep']}")
        cert = out["cert"]
        if out["witness"] is not None or cert is None:
            problems.append("fixture theta was not refuted with a certificate")
        else:
            M = hochschild.TwistedBimodule(out["sections"].h())
            mat, _, dst = hochschild.coboundary_matrix(M, 2, -1)
            if not cert.check(mat, dst.pack(out["theta"])):
                problems.append("certificate fails against the full coboundary matrix")
    elif c_degree == 2:
        want_cone = expected["cone"][(ring, c[0])]
        oracle = _cone_oracle(ext.cone.module, ext.algebra.ring)
        timed = {n: (g.free_rank, [int(d) for d in g.torsion])
                 for n, g in ext.cone_h.groups.items()}
        if oracle != want_cone:
            problems.append(f"SNF oracle cone cohomology {oracle} != {want_cone}")
        if timed != want_cone:
            problems.append(f"cone_cohomology {timed} != {want_cone}")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload("theta-seeded-t3", _theta_setup, _theta_jobs, _theta_run,
                 _theta_check, trace_jobs=3),
        Workload("hh3-exterior-3", _hh3_setup, lambda seed: _hh3_jobs(seed, "Z"),
                 _hh3_run, _hh3_check, trace_jobs=1, uses_seed=False),
        Workload("hh3-exterior-3-f5", _hh3_setup, lambda seed: _hh3_jobs(seed, "F5"),
                 _hh3_run, _hh3_check, trace_jobs=2, uses_seed=False),
        Workload("gysin-t2", _gysin_setup,
                 lambda seed: _t2_jobs(seed, ("Z", "F3"), with_fixture=True),
                 _t2_run, _t2_check, trace_jobs=150),
        Workload("rational-t2", lambda: _t2_setup(("Q",)),
                 lambda seed: _t2_jobs(seed, ("Q",), with_fixture=False),
                 _t2_run, _t2_check, trace_jobs=7),
    )
}
