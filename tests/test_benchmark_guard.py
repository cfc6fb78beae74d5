"""Guard of the benchmark's span tracer (perfbench/tracer.py), which wraps
package functions by name from outside the package.  A rename or deletion
in src that the tracer still names fails here, not only in the slower
perfbench/tests.  Also guards the benchmark's own copies of the fixture
configs (perfbench/workloads.py) against drift from fixtures/."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import BLOWUP_SMALL, fixture_config

from stringlab import parse_config, serialize_config

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("copy,name", [("HIERARCHY_SWEEP", "a3_sweep"),
                                       ("BLOWUP_REFINE", "a5_blowup"),
                                       ("TRACECHECK", "a7_tracecheck")])
def test_benchmark_config_copies_are_the_fixtures(copy, name):
    text = getattr(_load("perfbench_workloads", WORKLOADS), copy)
    assert parse_config(text).with_(mode="run") == fixture_config(name).with_(mode="run")


def test_every_benchmark_target_resolves():
    # install() looks each target up in its owner's own namespace
    for name, modname, attr_path in _load("perfbench_tracer", TRACER).TARGETS:
        owner = importlib.import_module(modname)
        *classes, attr = attr_path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert callable(vars(owner).get(attr)), name


# small `run` and `blowup` configs: the run_evolution return hook and the
# step call hook of the tracer both fire; `verify` runs the wrapped
# BalanceAccumulator methods and deformation_check
_CODE = """\
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
import stringlab.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[2])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
tracer.install(t)
rcs = [stringlab.cli.main([mode, "--config", cfg, "--out", out])
       for mode, cfg, out in zip(*[iter(sys.argv[3:])] * 3)]
print(json.dumps({"rcs": rcs, "counts": t.counts,
                  "called": sorted({t.names[k] for k in t.span_name})}))
"""

_RUN = "t_end = 2\nx0 = -20\ndx = 0.1\nn = 401\nreport_every = 20\nprobes_u = 0\nprobes_ub = 0\n"


def test_traced_cli_modes_exit_zero(tmp_path):
    args = []
    for mode, text in (("run", _RUN), ("blowup", serialize_config(BLOWUP_SMALL)),
                       ("verify", "seed = 17611\n")):
        cfg = tmp_path / f"{mode}.cfg"
        cfg.write_text(text)
        args += [mode, str(cfg), str(tmp_path / mode)]
    out = subprocess.run([sys.executable, "-c", _CODE, str(ROOT / "src"), str(TRACER), *args],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["rcs"] == [0, 0, 0]
    assert result["counts"]["evolve.history_mb"] == 0.0
    assert result["counts"]["evolve.point_steps"] > 0
    # the finest balance level runs in the traced process
    assert {"identities.BalanceAccumulator.on_step",
            "identities.BalanceAccumulator.finalize"} <= set(result["called"])
