"""One benchmark repetition in a fresh interpreter.

Usage: python3 child.py <spec.json>

The spec names the package source directory, the parent's monotonic clock
reading taken just before this process was started, whether to trace, and
the CLI calls to make.  With ``run_calls`` false the child only measures set-up.
Set-up runs from process start through ``import stringlab.cli`` and the
parse and validation of every call's config, up to the first mode call.
The result, with the captured stdout and exit code of each call, is
written as JSON to the spec's ``result`` path.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import stringlab.cli as cli
    from stringlab.config import parse_config

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"stringlab was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    for call in spec["calls"]:
        parse_config(Path(call["config"]).read_text())
    t_setup = time.monotonic()
    since = time.perf_counter()

    outputs = []
    for call in spec["calls"] if spec["run_calls"] else ():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main([call["mode"], "--config", call["config"], "--out", call["out"]])
        outputs.append({"rc": rc, "stdout": buf.getvalue()})
    t_end = time.monotonic()

    import numpy
    import scipy
    result = {
        "setup_s": t_setup - spec["t_spawn"],
        "experiment_s": t_end - t_setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": outputs,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["trace"] = tracer.summary(since)
        tracer.save(Path(spec["result"]).with_name("spans.npz"))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
