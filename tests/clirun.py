"""Run the hochgysin command line in this process or as a subprocess.

run_in_process calls cli.main(argv) with stdin, stdout and stderr
swapped for in-memory streams, HOCHGYSIN_SEED unset (unless env_extra
sets it) and the repo root as the working directory.  An exception that
escapes main is written to the captured stderr as a traceback with exit
code 1, as the interpreter would.  run_subprocess runs
`python -m hochgysin.cli` under the same conditions, for the tests of
the entry point itself.
"""

import io
import os
import subprocess
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

from hochgysin import cli

ROOT = Path(__file__).resolve().parent.parent


def _env(env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "HOCHGYSIN_SEED"}
    env.update(env_extra or {})
    return env


@contextmanager
def _environ(env):
    saved = dict(os.environ)
    os.environ.clear()
    os.environ.update(env)
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


def run_in_process(args, stdin=None, env_extra=None) -> subprocess.CompletedProcess:
    fake_in = io.TextIOWrapper(io.BytesIO((stdin or "").encode("utf-8")), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    cwd = os.getcwd()
    with _environ(_env(env_extra)):
        sys.stdin, sys.stdout, sys.stderr = fake_in, out, err
        os.chdir(ROOT)
        try:
            code = cli.main(list(args))
        except Exception:
            traceback.print_exc(file=err)
            code = 1
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
            os.chdir(cwd)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_subprocess(args, stdin=None) -> subprocess.CompletedProcess:
    env = _env()
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, "-m", "hochgysin.cli", *args],
                          input=stdin or "", capture_output=True, text=True, env=env,
                          cwd=ROOT)
