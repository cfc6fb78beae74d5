"""The package runs on numpy's array core alone.  No mode loads
numpy.polynomial or calls into LAPACK: each would raise the peak memory of
every run by about 1 MiB, and the science needs neither."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from test_golden import GOLDEN

ROOT = Path(__file__).resolve().parents[1]

FOOTPRINT_CHECK = textwrap.dedent(r"""
    import json
    import sys
    from pathlib import Path
    import numpy as np
    import stringlab.cli as cli

    def polynomial_modules():
        return sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "polynomial"])

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    at_import = polynomial_modules()
    np.polyfit = refuse
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            setattr(np.linalg, name, refuse)
    out = Path(sys.argv[1])
    codes = {}
    for name, (text, extra) in json.loads(sys.argv[2]).items():
        cfg = out / (name + ".cfg")
        cfg.write_text(text)
        codes[name] = cli.main([name.partition("_")[0], "--config", str(cfg),
                                "--out", str(out / name), *extra])
    print(json.dumps({"at_import": at_import, "codes": codes, "after": polynomial_modules()}))
""")


def test_no_mode_loads_numpy_polynomial_or_calls_lapack(tmp_path):
    # A fresh interpreter imports the CLI, makes numpy.polyfit and every
    # numpy.linalg function raise, and runs each golden config: the forked
    # children inherit the patches
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    configs = {name: (text, extra) for name, (text, extra, _) in GOLDEN.items()}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_CHECK, str(tmp_path),
                           json.dumps(configs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["at_import"] == []
    assert seen["codes"] == {name: 0 for name in GOLDEN}
    assert seen["after"] == []
