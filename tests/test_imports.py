"""The installed package needs numpy only: scipy is a test dependency."""

import os
import subprocess
import sys
import textwrap

import seqtest

SCRIPT = textwrap.dedent(
    """
    import importlib, pkgutil, sys
    import seqtest
    from seqtest import cli

    for info in pkgutil.iter_modules(seqtest.__path__):
        importlib.import_module("seqtest." + info.name)
    for argv in (
        ["gen", "gaussian-quadratic", "--d", "2", "--seed", "0", "--out", "quad2.json"],
        ["simulate", "--instance", "quad2.json", "--agent", "etc-gaussian",
         "--horizon", "64", "--seeds", "0", "--jobs", "1", "--out", "run"],
    ):
        assert cli.main(argv) == 0, argv
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """
)


def test_package_and_cli_run_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(seqtest.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "trace_seed0.csv").stat().st_size > 0


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a run with jobs > 1 uses the pool; gen, solve, report and serial
    # simulate calls should not pay for loading it
    src = os.path.dirname(os.path.dirname(seqtest.__file__))
    code = "import sys, seqtest.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
