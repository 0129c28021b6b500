import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import overcast


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-emit the acceptance gate's one-line verdicts after capture ends."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def blas_threads():
    """Run `script` in a child Python pinned to `threads` BLAS threads, with
    the JSON of `arg` as its argv[1]; return the JSON it prints.

    OpenBLAS rounds its LU (np.linalg.inv) and large matrix products
    differently with more than one thread, so pinned pivot counts and node
    counts hold for one thread (the benchmark's setting).
    """

    def run(script, arg, threads):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        src = str(Path(overcast.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(arg)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        return json.loads(proc.stdout)

    return run


@pytest.fixture
def one_blas_thread(blas_threads):
    """`blas_threads` at one thread."""
    return lambda script, arg: blas_threads(script, arg, 1)
