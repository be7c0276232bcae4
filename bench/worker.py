"""One benchmark process: builds the input sets (`setup`) or runs one
pipeline pass (`pass`), optionally traced, and writes its result as JSON.

    python3 bench/worker.py SPEC.json

SPEC holds mode, workload, seed, src, out, trace and result.  Set-up time
runs from the start of this module, so it includes importing fairmc.
"""

from time import perf_counter

T0 = perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import pipeline
    import layers
    from spans import Tracer

    tracer = Tracer(run_id=spec["run_id"]) if spec["trace"] else None
    out = Path(spec["out"])
    with tracer or contextlib.nullcontext():
        if tracer is not None:
            layers.install(tracer)
        if spec["mode"] == "setup":
            for index in range(pipeline.N_SETS):
                pipeline.build_set(spec["workload"], spec["seed"], index,
                                   out / f"set{index}")
            result = {"setup_s": perf_counter() - T0}
        else:
            result = pipeline.run_pass(spec["workload"], spec["seed"], out, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
