"""Golden outputs: the sha256 of every CSV that each CLI mode writes for a
small, fast config.

Same config and seed give byte-identical CSV (cli.py), and a refactor must
keep them so.  A change that moves any number, even at roundoff, fails
here; if the change is intended, state and bound it in CHANGES.md and pin
the new hashes.  The configs are frozen here on purpose, apart from the
other CLI tests, so that editing those never moves a pin.  The hashes are
those of numpy 2 on x86-64; another platform may round differently.
"""

import hashlib
import os

import pytest

from stringlab.cli import main

SMALL_RUN = """
t_end = 4
x0 = -20
dx = 0.1
n = 401
report_every = 20
probes_u = 0
probes_ub = 0
"""

BLOWUP = """
delta = 1
f_amplitude = 2.4
f_center = 4
fb_amplitude = 2.4
fb_center = -4
f_width = 1
fb_width = 1
t_end = 5
x0 = -18
dx = 0.1
n = 361
"""

# the BLOWUP packets on a wider domain: the finest level (n = 3201) and at
# first the middle one step only their active window
BLOWUP_WINDOWED = BLOWUP.replace("x0 = -18", "x0 = -40").replace("n = 361", "n = 801")

CONVERGE = """
delta = 0
t_end = 4
x0 = -18
dx = 0.140625
n = 257
"""

# name -> (config text, extra CLI arguments, {CSV name: sha256}); the CLI
# mode is the name up to the first underscore
GOLDEN = {
    "run": (SMALL_RUN, [], {
        "criterion.csv": "d471a669e139d361e53ac0d0e3aa79d2a9f8888a2e103f5c6a32a77a38a13376",
        "criterion_summary.csv":
            "2435c8bd4ff9f9dcca2d32fa519f2f192f7d4b47d02182d2f0c67d849b8dd10c",
        "energy.csv": "c88cc8f5e7070a0454695c546bcadeedab9117ebc1c26ac170e1ad0db8bc2fb6",
        "monitor.csv": "7d4854e3734882ba2ceececa9ca69bdff71f91f0bc8d9678371174e87f2e9317",
    }),
    "sweep": (SMALL_RUN + "deltas = 0.2,0.1,0.05\n", [], {
        "hierarchy.csv": "dbb902eaa37848b2369f07433c3868f0f46883928b72b916066bab32d6faa010",
        "sweep.csv": "4b68f2b880eb5fe3bca1475138e0c42dc11dfffd6d2db7ccf7c58b489ea553c4",
    }),
    "converge": (CONVERGE, [], {
        "converge.csv": "9e1c1b70aa3149d24c2332e65bae93622fdd284db3a8c8190e73f5835b459a82",
    }),
    # the undamped branch of the stage right-hand side (no ko_dissipation)
    "converge_undamped": (CONVERGE + "eps_ko = 0\n", [], {
        "converge.csv": "d74159ceefb68a1aa59cb98736dfd9660ad719be9405c15543fad75a37a5d086",
    }),
    "blowup": (BLOWUP, [], {
        "blowup.csv": "f434279907c6c46a2496bcbb68d1183b0334c6c7420dda82c7d44302287e51c6",
        "blowup_summary.csv":
            "c5df2a4f3878cc215a125689c97618fb3cb892b23407e335e74cec844940d6af",
    }),
    "blowup_windowed": (BLOWUP_WINDOWED, [], {
        "blowup.csv": "5000b9a84464a1c365e8f82bb641c56074ef69e9d66ba5613b77542866d3f049",
        "blowup_summary.csv":
            "f2839dbd7dc6e63623e0a0acd31a57db0bd46d2bd21671d6588b1a249bec69fc",
    }),
    "verify": ("", ["--seed", "1"], {
        "identities.csv": "ea337b9b2e33828d584c5cc84447550947d79808421d690d85f49d0b858f0119",
    }),
    "tracecheck": (SMALL_RUN + "N = 3\n", [], {
        "tracecheck.csv": "12929b6c966695b9fa5e558ed6df0c4b7dc4bb5b85941a3a54b0b22ac2ed9907",
        "traces.csv": "01a64cc32c2a670cab50ce114444b92a9b9ec6579965c1a916fd4291c3bb6aa2",
    }),
}


def _assert_pinned(tmp_path, name):
    text, extra, pinned = GOLDEN[name]
    mode = name.partition("_")[0]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([mode, "--config", str(cfg), "--out", str(out), *extra]) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert written == pinned


@pytest.mark.parametrize("name", list(GOLDEN))
def test_cli_csv_outputs_are_pinned(tmp_path, name):
    _assert_pinned(tmp_path, name)


@pytest.mark.parametrize("name", ["run", "sweep", "converge", "blowup", "blowup_windowed",
                                  "verify"])
def test_pins_hold_without_fork(tmp_path, monkeypatch, name):
    # without os.fork the refinement levels, verify's closed-form checks and
    # the observers of run, sweep and blowup run inline in the calling
    # process (forking.forked, forking.streamed_run)
    monkeypatch.delattr(os, "fork")
    _assert_pinned(tmp_path, name)
