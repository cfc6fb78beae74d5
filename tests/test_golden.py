"""Golden outputs: the sha256 of every CSV that each CLI mode writes for a
small, fast config.

Same config and seed give byte-identical CSV (cli.py), and a refactor must
keep them so.  A change that moves any number, even at roundoff, fails
here; if the change is intended, state and bound it in CHANGES.md and pin
the new hashes.  The configs are frozen here on purpose, apart from the
other CLI tests, so that editing those never moves a pin.  The hashes are
those of numpy 2 on x86-64; another platform may round differently.

Each GOLDEN config runs once with fork, in test_numpy_footprint.py's fresh
interpreter (conftest.golden_fork_run), whose hashes
test_cli_csv_outputs_are_pinned checks, and once here without fork.  The
acceptance fixtures' pins read the session's one call of each fixture
(conftest.fixture_run), which the acceptance tests read too.
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


def _hashes(out):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_cli_csv_outputs_are_pinned(golden_fork_run, name):
    # the session's one run of the config with fork, in a fresh interpreter
    _, _, pinned = GOLDEN[name]
    assert golden_fork_run["codes"][name] == 0
    assert golden_fork_run["hashes"][name] == pinned


@pytest.mark.parametrize("name", ["run", "sweep", "converge", "blowup", "blowup_windowed",
                                  "verify"])
def test_pins_hold_without_fork(tmp_path, monkeypatch, name):
    # without os.fork the refinement levels, verify's closed-form checks and
    # the observers of run, sweep and blowup run inline in the calling
    # process (forking.forked, forking.streamed_run)
    monkeypatch.delattr(os, "fork")
    text, extra, pinned = GOLDEN[name]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([name.partition("_")[0], "--config", str(cfg), "--out", str(out), *extra]) == 0
    assert _hashes(out) == pinned


# name -> (CLI arguments, {CSV name or "stdout": sha256}): the verify seeds
# that the benchmark's identity workload draws from its seed 1, and the three
# acceptance fixtures at their own size, whose arguments are None: they are
# the session's calls of conftest.fixture_run.  Like the pins above, the
# hashes are those of numpy 2 on x86-64
PINNED_RUNS = {
    "verify_17611": (["verify", "--seed", "17611"], {
        "identities.csv": "772cc3e8cac56e77cd4abfc99464ec77db1a8061857d254619e83973e8f91bdb",
        "stdout": "01268a6c5eca80736fab1910fad95ac2130bc0e7cc16faf5cd67b3caab0aedc5",
    }),
    "verify_74606": (["verify", "--seed", "74606"], {
        "identities.csv": "359b5859ba9651d0f626cb4a48ae7d0636e73b4df58581f4b08ba310abe8210c",
        "stdout": "01268a6c5eca80736fab1910fad95ac2130bc0e7cc16faf5cd67b3caab0aedc5",
    }),
    "verify_8271": (["verify", "--seed", "8271"], {
        "identities.csv": "1a97d6b9229734c701f630b22da935377e67f17a31c031ec191f092806cb1ac3",
        "stdout": "01268a6c5eca80736fab1910fad95ac2130bc0e7cc16faf5cd67b3caab0aedc5",
    }),
    "a3_sweep": (None, {
        "hierarchy.csv": "17b03d5403366ae3742d9acf29d4ef53f44d59e03128bb6f14e8f298c560fe0e",
        "sweep.csv": "2fc132bad31d0067f036b8875ec510d3aac21849f60c20796013519dfc73f95a",
        "stdout": "e30e6ccbe4a835919a228f86e349658f1bfd97f2969b98f792ac90a032f01532",
    }),
    "a5_blowup": (None, {
        "blowup.csv": "8641e49b1f82e6e9a4bc2c7c258b9155a2df074dfcaa8530225d3e18de57c045",
        "blowup_summary.csv":
            "a55d5b7e2f794c97571d8f0e31c4a359a7ba70197e58027791e0f7ba940409ab",
        "stdout": "90e131f0396c96f3eaeadba501d536097825566e919de94e4281abeb6ce85088",
    }),
    "a7_tracecheck": (None, {
        "tracecheck.csv": "2fb594d8649a8db85d46cffa62dfbef268b3481bd0ff60dc3f61f230c2476304",
        "traces.csv": "b33bea61a50e6c12399c8f91e3976ca37d2be85bad1203cc2dbc05b272854fe3",
        "stdout": "ee15cface391c9a1c4e3597d6194bf95f2bfe39b4d217a9aa7b6cd0aaace4500",
    }),
}


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_benchmark_and_fixture_outputs_are_pinned(tmp_path, capsys, fixture_run, name):
    argv, pinned = PINNED_RUNS[name]
    if argv is None:
        run = fixture_run(name)
        code, stdout = run.code, run.stdout
        written = {csv: hashlib.sha256(data).hexdigest() for csv, data in run.csvs.items()}
    else:
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out)])
        stdout = capsys.readouterr().out
        written = _hashes(out)
    assert code == 0
    written["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    assert written == pinned
