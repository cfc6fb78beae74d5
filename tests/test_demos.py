"""Every demo runs as a script, with runtime and resource warnings as errors
as in tier-1, writes nothing to stderr, and prints the pinned bytes.

The pins are the sha256 of each demo's stdout, so that a refactor that
claims to keep a demo's output is checked, not compared by hand.  Like
test_golden.py's, they are those of numpy 2 on x86-64; another platform may
round differently.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_null_geometry_and_criterion.py":
        "2e0118bfa104ddb61ece427006969d57e7f7b9e73f289e1d3c5c5af28f16745a",
    "02_travelling_wave_convergence.py":
        "1e406048136167440f6aa2e8f03aa34643a18fcba9df2ce36778c19577f37e8f",
    "03_energy_hierarchy.py":
        "890b7d9a00c262caa8383ca43d5c5d12e35e42e556e02d983336e59c5e472077",
    "04_blowup_collision.py":
        "8f4a9d55f884b230f446d95f606e7d64b9b361e8665e42b8d3df6f61fb810d82",
    "05_identity_checks.py":
        "f905ae220e6bea5f83b8d77853f7860a2d6ee5a0e9288f34244722776d59c186",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-W", "error::ResourceWarning", str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo]
