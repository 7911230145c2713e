"""What the package loads: numpy only (scipy is a test dependency), and for
each command only the modules it runs."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import seqtest
from seqtest.generators import gen_discrete_pareto, gen_gaussian_lowrank, gen_gaussian_quadratic
from seqtest.harness import ExperimentConfig, run_replications
from seqtest.models import load_instance, save_instance

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


# runs ``seqtest.cli.main`` on the argv given as JSON in a fresh interpreter,
# then prints the exit code and the seqtest modules (and numpy.ma and
# traceback) it loaded
PROBE = textwrap.dedent(
    """
    import json, sys
    from seqtest import cli

    code = cli.main(json.loads(sys.argv[1]))
    modules = sorted(m for m in sys.modules if m in ("numpy.ma", "traceback") or m.startswith("seqtest"))
    print(json.dumps({"code": code, "modules": modules}))
    """
)
SOLVERS = {"seqtest.dp", "seqtest.envs", "seqtest.agents", "seqtest.elimination"}


def _fresh(args, cwd):
    src = os.path.dirname(os.path.dirname(seqtest.__file__))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def loaded_by(cwd, *argv) -> set:
    """The modules a command loads in a fresh interpreter; it must exit 0."""
    out = json.loads(_fresh(["-c", PROBE, json.dumps(argv)], cwd))
    assert out["code"] == 0, argv
    return set(out["modules"])


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("instances")
    save_instance(gen_gaussian_quadratic(d=2, seed=0), root / "quad2.json")
    save_instance(gen_discrete_pareto(d=3, seed=0), root / "pareto3.json")
    save_instance(gen_gaussian_lowrank(d=4, seed=0), root / "lowrank4.json")
    return root


class TestEachCommandLoadsItsModules:
    def test_gen_loads_no_solver(self, tmp_path):
        modules = loaded_by(tmp_path, "gen", "gaussian-quadratic", "--d", "2", "--out", "q.json")
        assert not modules & SOLVERS
        assert not modules & {"numpy.ma", "traceback"}  # only a failed seed formats a traceback

    @pytest.mark.parametrize("agent, instance", [("etc-gaussian", "quad2"), ("etc-discrete", "pareto3")])
    def test_etc_simulate_loads_no_elimination(self, tmp_path, instances, agent, instance):
        modules = loaded_by(
            tmp_path, "simulate", "--instance", str(instances / f"{instance}.json"),
            "--agent", agent, "--horizon", "64", "--seeds", "0", "--jobs", "1", "--out", "run",
        )
        assert "seqtest.agents" in modules
        assert not modules & {"seqtest.elimination", "seqtest.generators", "numpy.ma"}

    def test_ocmesp_simulate_loads_no_etc_agent(self, tmp_path, instances):
        modules = loaded_by(
            tmp_path, "simulate", "--instance", str(instances / "lowrank4.json"),
            "--agent", "ocmesp", "--horizon", "64", "--seeds", "0", "--jobs", "1",
            "--emit-dataset", "--out", "run",
        )
        assert "seqtest.elimination" in modules
        assert not modules & {"seqtest.agents", "seqtest.generators", "numpy.ma"}

    @pytest.mark.parametrize(
        "instance, unused",
        [("quad2", {"seqtest.envs", "seqtest.elimination"}),
         ("pareto3", {"seqtest.envs", "seqtest.elimination"}),  # with --dump-policy
         ("lowrank4", set())],
    )
    def test_solve_loads_only_its_solvers(self, tmp_path, instances, instance, unused):
        dump = ["--dump-policy", "policy.json"] if instance == "pareto3" else []
        modules = loaded_by(tmp_path, "solve", "--instance", str(instances / f"{instance}.json"), *dump)
        assert not modules & (unused | {"seqtest.agents", "seqtest.generators", "numpy.ma"})

    def test_report_loads_no_solver(self, tmp_path, instances):
        run_replications(ExperimentConfig(
            instance=load_instance(instances / "pareto3.json"), agent="etc-discrete",
            horizon=16, seeds=(0,), out_dir=tmp_path / "run",
        ))
        modules = loaded_by(tmp_path, "report", "--dir", str(tmp_path))
        assert not modules & (SOLVERS | {"seqtest.generators", "numpy.ma"})


def test_package_import_loads_no_submodule():
    code = "import sys, seqtest; print(sorted(m for m in sys.modules if m.startswith('seqtest')))"
    assert _fresh(["-c", code], None) == "['seqtest']"


def test_every_export_is_its_module_object():
    # each name resolves, on first access, to the object of that name in the
    # submodule that defines it; a submodule is an attribute of the package
    # without being imported first, as when the package imported them all
    code = textwrap.dedent(
        """
        import sys, seqtest

        for name in seqtest.__all__:
            obj = getattr(seqtest, name)
            module = sys.modules[obj.__module__]
            assert module.__name__.startswith("seqtest."), name
            assert getattr(module, name) is obj, name
            assert getattr(seqtest, name) is obj, name
        assert seqtest.dp.solve_dp_discrete is seqtest.solve_dp_discrete
        assert seqtest.generators is sys.modules["seqtest.generators"]
        print(len(seqtest.__all__), len(set(seqtest.__all__)))
        """
    )
    assert _fresh(["-c", code], None) == "61 61"
    with pytest.raises(AttributeError):
        seqtest.no_such_name
