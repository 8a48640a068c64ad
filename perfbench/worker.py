"""One workload run in a fresh interpreter; prints one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``:

    python3 perfbench/worker.py --workload NAME --seed N --mode untraced|traced|import

``bitableaux`` is imported before anything else, so that ``import_done``
(a CLOCK_MONOTONIC reading, comparable with the parent's) marks the end of
set-up: interpreter start plus package import.  The host's pace is sampled
right after it, to pace the set-up time (pace.py).
"""

from time import perf_counter

import bitableaux

IMPORT_DONE = perf_counter()

import sys  # noqa: E402

PACKAGE_NUMPY = getattr(sys.modules.get("numpy"), "__version__", "not imported")

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import pace  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def environment() -> dict:
    """What must match before two results may be compared."""
    jit = getattr(bitableaux, "jit_enabled", None)
    return {
        "python": platform.python_version(),
        "numpy": PACKAGE_NUMPY,  # as the package's import left it; pace.py imports NumPy itself
        "nproc": len(os.sched_getaffinity(0)),
        "jit_active": jit() if callable(jit) else "absent",
        "BITABLEAUX_JIT": os.environ.get("BITABLEAUX_JIT", "unset"),
        "bitableaux_version": getattr(bitableaux, "__version__", "absent"),
    }


def character_table_cache():
    """character_table's lru_cache statistics, or None once it has no cache."""
    info = getattr(bitableaux.character_table, "cache_info", None)
    return info() if callable(info) else None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["import", "untraced", "traced"])
    args = parser.parse_args()

    report = {"mode": args.mode, "import_done": IMPORT_DONE, "setup_scale": pace.NOMINAL_S / pace.burst()}
    if args.mode != "import":
        workload = WORKLOADS[args.workload]
        ops = workload.inputs(random.Random(args.seed))
        traced = args.mode == "traced"
        rec = Recorder(traced)
        out, replayed = Outcome(), Outcome()
        if traced:  # time character_table from cold, before the entry calls use it
            with rec.group("cold_tables"):
                for k in workload.tables:
                    rec.call("symfunc.character_table", bitableaux.character_table, k)
        cold = character_table_cache()
        start = perf_counter()
        for op in ops:
            workload.entry(op, rec, out)
            if traced:
                with rec.group("replay"):
                    workload.replay(op, rec, replayed)
        wall = perf_counter() - start
        warm = character_table_cache()
        runs = [out, replayed] if traced else [out]
        report.update(
            wall=wall,
            latencies=[end - begin for begin, end in rec.top],
            paced_latencies=rec.paced_latencies(),
            scale=rec.meter.median_scale(),
            spans=rec.spans,
            attempted=sum(o.attempted for o in runs),
            failed={layer: sum(o.failed[layer] for o in runs) for layer in out.failed},
            errors=[e for o in runs for e in o.errors],
            exact=[o.exact() for o in runs],
            character_table_hits=warm.hits if warm else "absent",
            # tables built after the cold build: 0 when workload.tables covers every k read
            character_table_misses=warm.misses - cold.misses if warm else "absent",
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            env=environment(),
        )
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
