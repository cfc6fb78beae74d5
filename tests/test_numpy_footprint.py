"""The package runs on numpy's array core alone.  No mode loads
numpy.polynomial or calls into LAPACK: each would raise the peak memory of
every run by about 1 MiB, and the science needs neither.  Only verify runs
the identity suite's code, which imports stringlab.manufactured.

The fresh interpreter that shows this runs every GOLDEN config with fork,
under tier-1's warning filters: it is the one run of each with fork in a
tier-1 session, and test_golden's pins read its outputs."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from test_golden import GOLDEN

ROOT = Path(__file__).resolve().parents[1]

FOOTPRINT_CHECK = textwrap.dedent(r"""
    import gc
    import hashlib
    import json
    import os
    import sys
    from pathlib import Path
    import numpy as np
    import stringlab.cli as cli

    unraisable = []
    sys.unraisablehook = lambda u: unraisable.append(f"{u.exc_type.__name__}: {u.exc_value}")

    def polynomial_modules():
        return sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "polynomial"])

    def suite_ran():
        return "stringlab.manufactured" in sys.modules

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    at_import = polynomial_modules(), suite_ran()
    np.polyfit = refuse
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            setattr(np.linalg, name, refuse)
    out = Path(sys.argv[1])
    codes, suite, hashes = {}, {}, {}
    for name, (text, extra) in json.loads(sys.argv[2]).items():
        cfg = out / (name + ".cfg")
        cfg.write_text(text)
        codes[name] = cli.main([name.partition("_")[0], "--config", str(cfg),
                                "--out", str(out / name), *extra])
        suite[name] = suite_ran()
        hashes[name] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                        for f in (out / name).iterdir()}
    try:
        os.waitpid(-1, os.WNOHANG)
        child_left = True
    except ChildProcessError:
        child_left = False
    gc.collect()
    print(json.dumps({"at_import": at_import, "codes": codes, "suite": suite,
                      "after": polynomial_modules(), "hashes": hashes,
                      "child_left": child_left, "unraisable": unraisable}))
""")


def fresh_golden_run(out):
    """Run FOOTPRINT_CHECK on every GOLDEN config in a fresh interpreter,
    writing under out, and return what it saw (conftest.golden_fork_run).

    The interpreter imports the CLI, makes numpy.polyfit and every
    numpy.linalg function raise, and runs each golden config: the forked
    children inherit the patches.  verify runs last, so that each other
    mode shows that it runs without the identity suite.  As in tier-1, a
    runtime or resource warning is an error, an exception that reaches
    sys.unraisablehook is recorded, and a child left after the calls is
    recorded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    configs = {name: (text, extra) for name, (text, extra, _)
               in sorted(GOLDEN.items(), key=lambda item: item[0] == "verify")}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-W", "error::ResourceWarning", "-c", FOOTPRINT_CHECK,
                           str(out), json.dumps(configs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_mode_loads_numpy_polynomial_or_calls_lapack(golden_fork_run):
    # the session's one run of each golden config with fork; its outputs'
    # pins are test_golden.test_cli_csv_outputs_are_pinned
    seen = golden_fork_run
    assert seen["at_import"] == [[], False]
    assert seen["codes"] == {name: 0 for name in GOLDEN}
    assert seen["suite"] == {name: name == "verify" for name in GOLDEN}
    assert seen["after"] == []
    assert not seen["child_left"]
    assert seen["unraisable"] == []
