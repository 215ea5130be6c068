"""Command-line interface.

Subcommands compose through files or pipes: each stage reads a JSON
payload (complex, dg-algebra, section package, or cochain) from --in or
stdin, recognizes what it was given, upgrades it as needed, and emits a
machine-readable run report on stdout with a human summary on stderr.

Exit codes: 0 all requested checks pass; 1 a mathematical property
failed; 2 input or usage error, or an input too large for the memory.
Reports are byte-stable for fixed inputs and seeds: no timestamps,
sorted keys.  HOCHGYSIN_SEED sets the default section seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import dga as dgamod
from . import sections as secmod
from .exactlin import as_vector, int_from_json, ring_from_name
from .gysin import (
    check_extension_exactness, gysin_extension, split_extension, verify_theorem_th,
)
from .hochschild import (
    TwistedBimodule, cochain_to_json, save_cochain, theta, trivialize,
)
from .massey import NotAMasseyTripleError, massey_triple
from .sections import TorsionHomologyError, build_sections, compute_cohomology
from .simplicial import (
    MalformedComplexError, build_circle, build_sphere, build_torus,
    complex_from_json, complex_to_json,
)
from .torus import symmetrize, torus_theta_trivial, verify_monomorphism


class UsageError(Exception):
    pass


def _read_payload(args):
    if getattr(args, "infile", None):
        try:
            with open(args.infile, "rb") as f:
                raw = f.read()
        except OSError as exc:
            raise UsageError(f"cannot read --in {args.infile!r}: {exc.strerror}") from exc
        source = args.infile
    else:
        raw = sys.stdin.buffer.read()
        source = "stdin"
    if not raw.strip():
        raise UsageError("no input supplied (use --in FILE or a pipe)")
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: nested deeper than the decoder's recursion limit
        raise UsageError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError("input is not a JSON object")
    digest = hashlib.sha256(raw).hexdigest()
    return payload, {source: digest}


def _ring(name):
    """The coefficient ring named by --ring; an unknown name is a usage error."""
    try:
        return ring_from_name(name)
    except ValueError as exc:
        raise UsageError(f"bad --ring {name!r}: {exc}") from exc


def _same_ring(ring_name, ring):
    """A dg-algebra or section input fixes its ring; --ring may only name it."""
    if ring_name is not None and _ring(ring_name) != ring:
        raise UsageError(f"--ring {ring_name} differs from the input's ring {ring.name}")


def _validated(payload):
    """(dg-algebra, validation report) of a dg-algebra or section payload."""
    a = dgamod.dga_from_json(payload["algebra"] if "algebra" in payload else payload)
    return a, dgamod.validate(a)


def _as_dga(payload, ring_name):
    """Accept a complex (building cochains) or a dg-algebra payload."""
    if "facets" in payload:
        k = complex_from_json(payload)
        ring = _ring(ring_name or "Z")
        return dgamod.cochain_algebra(k, ring)
    a, report = _validated(payload)
    if not report.passed:
        raise UsageError(
            "input dg-algebra violates the axioms: "
            + "; ".join(f"{c.name}: {c.witness}" for c in report.failures()))
    _same_ring(ring_name, a.ring)
    return a


def _as_sections(payload, ring_name, seed):
    """Accept a section package (its algebra validated as by _as_dga) or an _as_dga input."""
    a = _as_dga(payload, ring_name)
    if "algebra" in payload:
        return secmod.sections_from_json(payload)
    return build_sections(a, seed=seed)


def _json_int(name, text):
    """A flag or variable read as a JSON integer ("0_2", "+1" are errors)."""
    try:
        return int_from_json(json.loads(text))
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{name}={text!r} is not an integer") from exc


def _default_seed(args):
    """--seed, else HOCHGYSIN_SEED, else None."""
    if getattr(args, "seed", None) is not None:
        return _json_int("--seed", args.seed)
    text = os.environ.get("HOCHGYSIN_SEED")
    return _json_int("HOCHGYSIN_SEED", text) if text else None


def _parse_class(co, token):
    """deg:[c0,c1,...] -> (degree, coordinate vector) of a class of co, on
    the basis of H^deg whose representatives are the columns of co.s[deg]
    (not the representatives that `cohomology` reports).  The degree is a
    JSON integer in 0..top, the list must have length co.hr(deg) and each
    entry is a JSON integer or a "p/q" string the ring accepts.
    """
    deg, sep, coords = token.partition(":")
    if not sep:
        raise UsageError(f"class literal {token!r} is not of the form deg:[c0,...]")
    try:
        degree = int_from_json(json.loads(deg))
        values = json.loads(coords)
        if not isinstance(values, list):
            raise ValueError("coordinates must be a JSON list")
        if not 0 <= degree <= co.top:
            raise ValueError(f"degree {degree} is outside 0..{co.top}")
        if len(values) != co.hr(degree):
            raise ValueError(f"H^{degree} has rank {co.hr(degree)}, "
                             f"got {len(values)} coordinates")
        vector = as_vector(co.ring, [co.ring.scalar_from_json(v) for v in values])
    except (ValueError, ZeroDivisionError, RecursionError) as exc:
        raise UsageError(f"bad class literal {token!r}: {exc}") from exc
    return degree, vector


def _emit(report, exit_code):
    report["exit"] = exit_code
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return exit_code


def _summary(line):
    sys.stderr.write(line + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_build(args):
    if args.what == "circle":
        k = build_circle()
    elif args.what == "sphere":
        if args.m is None:
            raise UsageError("build sphere requires --m")
        m = _json_int("--m", args.m)
        if m < 0:
            raise UsageError("sphere dimension --m must be >= 0")
        k = build_sphere(m)
    elif args.what == "torus":
        if args.n is None:
            raise UsageError("build torus requires --n")
        n = _json_int("--n", args.n)
        if n < 1:
            raise UsageError("torus rank must be >= 1")
        k = build_torus(n)
    else:
        raise UsageError(f"unknown builder {args.what!r}")
    sys.stdout.write(json.dumps(complex_to_json(k), sort_keys=True) + "\n")
    _summary(f"built {args.what}: f-vector {k.f_vector()}")
    return 0


def cmd_cochains(args):
    payload, digests = _read_payload(args)
    if "facets" not in payload:
        raise UsageError("cochains expects a simplicial complex payload")
    k = complex_from_json(payload)
    a = dgamod.cochain_algebra(k, _ring(args.ring))
    sys.stdout.write(json.dumps(dgamod.dga_to_json(a), sort_keys=True) + "\n")
    _summary(f"cochain algebra over {args.ring}: ranks {a.ranks}")
    return 0


def cmd_validate(args):
    payload, digests = _read_payload(args)
    if "facets" in payload:
        raise UsageError("validate expects a dg-algebra (pipe through cochains)")
    a, report = _validated(payload)
    out = {"command": "validate", "inputs": digests, "report": report.to_json(),
           "checks": [{"name": c.name, "pass": c.passed} for c in report.checks]}
    _summary("validate: " + ("PASS" if report.passed else "FAIL"))
    return _emit(out, 0 if report.passed else 1)


def cmd_cohomology(args):
    payload, digests = _read_payload(args)
    a = _as_dga(payload, args.ring)
    groups = compute_cohomology(a)
    result = {}
    for n, g in enumerate(groups):
        result[str(n)] = {
            "free_rank": g.free_rank,
            "torsion": [a.ring.scalar_to_json(d) for d in g.torsion],
            "representatives": g.reduced_gens.to_lists(),
        }
    out = {"command": "cohomology", "inputs": digests, "ring": a.ring.name,
           "cohomology": result}
    _summary("cohomology ranks: " + str([g.free_rank for g in groups]))
    return _emit(out, 0)


def cmd_sections(args):
    payload, digests = _read_payload(args)
    a = _as_dga(payload, args.ring)
    seed = _default_seed(args)
    co = build_sections(a, seed=seed)
    sys.stdout.write(json.dumps(secmod.sections_to_json(co), sort_keys=True) + "\n")
    _summary(f"sections built (seed={seed}): h_rank {co.h_rank}")
    return 0


def cmd_theta(args):
    payload, digests = _read_payload(args)
    co = _as_sections(payload, args.ring, _default_seed(args))
    th = theta(co)
    sys.stdout.write(json.dumps(cochain_to_json(th), sort_keys=True) + "\n")
    _summary(f"theta computed: {len(th.blocks)} nonzero blocks")
    return 0


def cmd_theta_class(args):
    payload, digests = _read_payload(args)
    co = _as_sections(payload, args.ring, _default_seed(args))
    th = theta(co)
    witness, cert = trivialize(th, TwistedBimodule(co.h()))
    trivial = witness is not None
    out = {"command": "theta-class", "inputs": digests,
           "checks": [{"name": "theta_class_trivial", "pass": trivial}],
           "trivial": trivial}
    if trivial:
        out["witness"] = cochain_to_json(witness)
    else:
        out["certificate"] = {
            "row": [co.ring.scalar_to_json(x) for x in cert.row],
            "divisor": co.ring.scalar_to_json(cert.divisor),
            "value": co.ring.scalar_to_json(cert.value),
        }
    _summary("theta class: " + ("trivial" if trivial else "NONTRIVIAL"))
    return _emit(out, 0 if trivial else 1)


def cmd_massey(args):
    payload, digests = _read_payload(args)
    co = _as_sections(payload, args.ring, _default_seed(args))
    px, x = _parse_class(co, args.x)
    py, y = _parse_class(co, args.y)
    pz, z = _parse_class(co, args.z)
    ring = co.ring
    try:
        r = massey_triple(co, px, x, py, y, pz, z)
    except NotAMasseyTripleError as exc:
        raise UsageError(f"NotAMasseyTriple: {exc}") from exc
    out = {"command": "massey", "inputs": digests,
           "degrees": list(r.degrees), "target_degree": r.target_degree,
           "representative": [ring.scalar_to_json(v) for v in r.representative],
           "indeterminacy": {
               "generators": r.indeterminacy.generators.to_lists(),
               "free_rank": r.indeterminacy.free_rank,
           },
           "zero_coset": r.is_zero_coset()}
    _summary(f"massey product in degree {r.target_degree}: "
             + ("zero coset" if r.is_zero_coset() else "NONZERO coset"))
    return _emit(out, 0)


def cmd_gysin(args):
    payload, digests = _read_payload(args)
    co = _as_sections(payload, args.ring, _default_seed(args))
    cdeg, ccoords = _parse_class(co, args.c)
    a = co.algebra
    ext = gysin_extension(a, cdeg, ccoords, co)
    checks = []
    result = {"extension": ext.describe()}
    exact = check_extension_exactness(ext)
    exact_ok = all(all(entry.values()) for entry in exact.values())
    checks.append({"name": "extension_exact", "pass": exact_ok})
    th = theta(co) if args.check_th or args.split else None
    if args.check_th:
        ok, witness = verify_theorem_th(a, cdeg, ccoords, co, th=th, ext=ext)
        checks.append({"name": "theorem_th", "pass": ok})
        if ok:
            result["th_witness"] = {str(m): b.to_lists() for m, b in witness.items()}
    if args.split:
        tw, _ = trivialize(th, TwistedBimodule(co.h()))
        sec, cert = split_extension(ext, theta_witness=tw)
        checks.append({"name": "split_found", "pass": sec is not None})
        if sec is not None:
            result["section"] = {str(m): m2.to_lists()
                                 for m, m2 in sec.sigma_tilde_class.items()}
            result["section_b"] = {str(m): m2.to_lists() for m, m2 in sec.b.items()}
    out = {"command": "gysin", "inputs": digests, "checks": checks,
           "result": result}
    ok = all(c["pass"] for c in checks)
    _summary("gysin: " + ", ".join(f"{c['name']}={'ok' if c['pass'] else 'FAIL'}"
                                   for c in checks))
    return _emit(out, 0 if ok else 1)


def _positive_rank(args):
    n = _json_int("--n", args.n)
    if n < 1:
        raise UsageError(f"{args.command} rank --n must be >= 1")
    return n


def cmd_torus(args):
    n = _positive_rank(args)
    ring = _ring(args.ring)
    witness, th, co = torus_theta_trivial(n, ring, seed=_default_seed(args))
    sym_zero = symmetrize(th).is_zero()
    checks = [{"name": "theta_trivialized", "pass": True},
              {"name": "symmetrized_image_zero", "pass": bool(sym_zero)}]
    out = {"command": "torus", "n": n, "ring": ring.name, "checks": checks,
           "h_rank": co.h_rank}
    if args.emit_witness:
        try:
            save_cochain(witness, args.emit_witness)
        except OSError as exc:
            raise UsageError(f"cannot write --emit-witness {args.emit_witness!r}: "
                             f"{exc.strerror}") from exc
        out["witness_path"] = args.emit_witness
    else:
        out["witness"] = cochain_to_json(witness)
    _summary(f"torus {n} over {ring.name}: theta trivialized, "
             f"symmetrized image {'zero' if sym_zero else 'NONZERO'}")
    return _emit(out, 0 if all(c["pass"] for c in checks) else 1)


def cmd_monomorphism(args):
    n = _positive_rank(args)
    v = verify_monomorphism(n, signed=args.signed,
                            ring=_ring(args.ring))
    out = {"command": "monomorphism", **v}
    _summary(f"monomorphism probe n={n} signed={args.signed}: "
             f"descends={v['descends_to_classes']} injective={v['injective_on_classes']}")
    return _emit(out, 0)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hochgysin",
        description="Exact secondary-multiplication / Gysin-extension toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="emit a fixture complex as JSON")
    b.add_argument("what", choices=["circle", "sphere", "torus"])
    b.add_argument("--m", default=None, help="sphere dimension, a JSON integer")
    b.add_argument("--n", default=None, help="torus rank, a JSON integer")
    b.set_defaults(func=cmd_build)

    def add_io(sp, ring=True, seed=False):
        sp.add_argument("--in", dest="infile", default=None,
                        help="input file (default: stdin)")
        if ring:
            sp.add_argument("--ring", default=None,
                            help="coefficient ring (Z, Q, F2, ...); a dg-algebra or "
                                 "section input must already be over it")
        if seed:
            sp.add_argument("--seed", default=None,
                            help="section seed, a JSON integer (default: HOCHGYSIN_SEED)")

    c = sub.add_parser("cochains", help="simplicial cochain dg-algebra")
    c.add_argument("--in", dest="infile", default=None)
    c.add_argument("--ring", default="Z")
    c.set_defaults(func=cmd_cochains)

    v = sub.add_parser("validate", help="check the dg-algebra axioms")
    add_io(v, ring=False)
    v.set_defaults(func=cmd_validate)

    h = sub.add_parser("cohomology", help="ranks, torsion and basis per degree")
    add_io(h)
    h.set_defaults(func=cmd_cohomology)

    s = sub.add_parser("sections", help="build the splitting package")
    add_io(s, seed=True)
    s.set_defaults(func=cmd_sections)

    t = sub.add_parser("theta", help="the secondary-multiplication 3-cocycle")
    add_io(t, seed=True)
    t.set_defaults(func=cmd_theta)

    tc = sub.add_parser("theta-class", help="decide triviality of [theta]")
    add_io(tc, seed=True)
    tc.set_defaults(func=cmd_theta_class)

    m = sub.add_parser("massey", help="Massey triple product")
    add_io(m, seed=True)
    m.add_argument("--x", required=True, help="class literal deg:[c0,...]")
    m.add_argument("--y", required=True)
    m.add_argument("--z", required=True)
    m.set_defaults(func=cmd_massey)

    g = sub.add_parser("gysin", help="mapping-cone extension for a class c")
    add_io(g, seed=True)
    g.add_argument("--c", required=True, help="class literal deg:[c0,...]")
    g.add_argument("--check-th", action="store_true", dest="check_th")
    g.add_argument("--split", action="store_true")
    g.set_defaults(func=cmd_gysin)

    to = sub.add_parser("torus", help="end-to-end torus triviality run")
    to.add_argument("--n", required=True, help="torus rank, a JSON integer")
    to.add_argument("--ring", default="Z")
    to.add_argument("--seed", default=None)
    to.add_argument("--emit-witness", dest="emit_witness", default=None)
    to.set_defaults(func=cmd_torus)

    mo = sub.add_parser("monomorphism", help="symmetrization probe on HH^3")
    mo.add_argument("--n", required=True, help="torus rank, a JSON integer")
    mo.add_argument("--ring", default="Z")
    mo.add_argument("--signed", action="store_true")
    mo.set_defaults(func=cmd_monomorphism)
    return p


USAGE_ERRORS = (UsageError, MalformedComplexError, dgamod.DgaFormatError,
                dgamod.DgaValidationError, TorsionHomologyError,
                NotAMasseyTripleError, secmod.NotACocycleError,
                secmod.ProductNotACoboundaryError, secmod.SectionsFormatError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        message = str(exc)
    except MemoryError:   # numpy's _ArrayMemoryError too
        message = f"{args.command}: out of memory, the input is too large for the available memory"
    sys.stderr.write(f"error: {message}\n")
    sys.stdout.write(json.dumps(
        {"command": args.command, "error": message, "exit": 2}, sort_keys=True) + "\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
