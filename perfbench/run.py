"""Layered benchmark for the bitableaux Theorem-2 checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Every workload run happens in a fresh interpreter (worker.py), one
at a time, so process-lifetime caches start cold and runs never share a
core.  The run repeats the workload until ``--seconds`` is spent; times are
paced: scaled by the host's speed, measured beside them (pace.py).  Times
are medians over the run's repeats; latency percentiles pool their calls.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs rounds of
an untraced run and a traced run, in which every entry call is followed by
its replay one layer down (see workloads.py), and reports the per-layer
metrics.  Both modes print every metric with its unit, then, as the last
line, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full record
(environment, exact counters, errors) goes to ``perfbench/results/``, and a
traced run's spans to ``perfbench/results/*.spans.json``.

Metric definitions, workload choices and known defects: NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("thm2-sweep", "oracle-sweep", "point-queries", "enum-crystal")
SETUP_SAMPLES = 5  # extra cold imports, besides the one every worker makes
MIN_UNTRACED_RUNS = 2  # two runs of one seed, so that the exact counters can be compared
WORKER_TIMEOUT_S = 170

# the counter that counts each workload's checked triples (lam, mu, nu)
TRIPLES = {
    "thm2-sweep": "triples",
    "oracle-sweep": "triples",
    "point-queries": "cli_calls",
    "enum-crystal": "coefficient_checks",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "triples_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernels.busy_s": "s",
    "kernels.calls": "count",
    "kernels.call_p90_ms": "ms",
    "kernels.entries": "count",
    "kernels.yamanouchi_total": "count",
    "symfunc.d_busy_s": "s",
    "symfunc.d_calls": "count",
    "symfunc.character_table_s": "s",
    "symfunc.g_busy_s": "s",
    "symfunc.kostka_busy_s": "s",
    "symfunc.character_table_hits": "count",
    "symfunc.character_table_misses": "count",
    "symfunc.coproduct_s": "s",
    "symfunc.expand_s": "s",
    "symfunc.terms": "count",
    "crystal.sweep_self_s": "s",
    "crystal.full_crystal_s": "s",
    "crystal.vertices": "count",
    "crystal.edges": "count",
    "bitableau.enumerate_s": "s",
    "bitableau.count": "count",
    "graphs.export_s": "s",
    "graphs.bytes": "bytes",
    "completion.skeleton_s": "s",
    "completion.census_s": "s",
    "completion.completions": "count",
    "kron_tableaux.count_s": "s",
    "kron_tableaux.tableaux": "count",
    "cli.self_s": "s",
    "cli.calls": "count",
    "cli.nonzero_exits": "count",
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run worker.py in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    start = perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["import_done"] - start
    report["elapsed"] = perf_counter() - start
    return report


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between samples, never beyond them."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload: str, runs: list[dict], setups: list[dict]) -> dict:
    """End-to-end metrics from the untraced runs of one seed, in paced time.

    Each run's times are its calls' paced durations (pace.py).  Times are
    medians over the runs; the latency percentiles are taken over the calls
    of all runs together.
    """
    wall = statistics.median(sum(r["paced_latencies"]) for r in runs)
    latencies = [t for r in runs for t in r["paced_latencies"]]
    return {
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in setups),
        "wall_s": wall,
        "triples_per_s": runs[0]["exact"][0].get(TRIPLES[workload], 0) / wall,
        "queries_per_s": len(runs[0]["paced_latencies"]) / wall,
        "query_p50_ms": statistics.median(latencies) * 1000,
        "query_p90_ms": p90(latencies) * 1000,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


GROUPS = ("replay", "cold_tables")  # spans around benchmark code, not calls into a layer


def per_layer(traced: dict, untraced: dict) -> dict:
    """Layer metrics from one traced run and the untraced run next to it."""
    spans = traced["spans"]
    selfs = self_times(spans)
    calls = [(s[0], t, s[2] - s[1]) for s, t in zip(spans, selfs) if s[0] not in GROUPS]
    in_replay = [s for s in spans if s[3] >= 0 and spans[s[3]][0] == "replay"]

    def busy(prefix: str) -> float:
        return sum(t for name, t, _ in calls if name.startswith(prefix))

    def count(prefix: str) -> int:
        return sum(1 for name, _, _ in calls if name.startswith(prefix))

    def below(prefix: str) -> float:
        """An entry layer's self time: its busy time minus the replay of what it calls."""
        own = busy(prefix)
        replayed = sum(e - s for name, s, e, _ in in_replay if name.startswith(("kernels.", "symfunc.")))
        return own - replayed if own else 0.0

    top_level = sum(s[2] - s[1] for s in spans if s[3] < 0 and s[0] != "cold_tables")
    # the untraced run builds its character tables inside its entry calls
    cold_s = sum(s[2] - s[1] for s in spans if s[0] == "cold_tables")
    entry_s = sum(traced["paced_latencies"]) + cold_s * traced["scale"]
    misses = traced["character_table_misses"]
    ex = traced["exact"][0]
    rx = traced["exact"][1]
    hits = untraced["character_table_hits"]
    return {
        "kernels.busy_s": busy("kernels."),
        "kernels.calls": count("kernels."),
        "kernels.call_p90_ms": p90([d * 1000 for name, _, d in calls if name.startswith("kernels.")]),
        "kernels.entries": rx.get("kernel_entries", 0),
        "kernels.yamanouchi_total": rx.get("yamanouchi_total", 0),
        "symfunc.d_busy_s": busy("symfunc.monomial_coefficient_d"),
        "symfunc.d_calls": count("symfunc.monomial_coefficient_d"),
        "symfunc.character_table_s": busy("symfunc.character_table"),
        "symfunc.g_busy_s": busy("symfunc.kronecker_coefficient"),
        "symfunc.kostka_busy_s": busy("symfunc.kostka"),
        "symfunc.character_table_hits": hits if isinstance(hits, int) else 0,
        "symfunc.coproduct_s": busy("symfunc.kron_coproduct_poly"),
        "symfunc.expand_s": busy("symfunc.expand_in_schur_schur"),
        "symfunc.terms": ex.get("terms", 0),
        "crystal.sweep_self_s": below("crystal.monomial_expansion_sweep"),
        "crystal.full_crystal_s": busy("crystal.full_crystal"),
        "crystal.vertices": ex.get("vertices", 0),
        "crystal.edges": ex.get("edges", 0),
        "bitableau.enumerate_s": busy("bitableau."),
        "bitableau.count": rx.get("bitableaux", 0),
        "graphs.export_s": busy("graphs."),
        "graphs.bytes": ex.get("dot_bytes", 0) + ex.get("json_bytes", 0),
        "completion.skeleton_s": busy("completion.skeleton"),
        "completion.census_s": busy("completion.enumerate_completions")
        + busy("completion.highest_weight_census"),
        "completion.completions": ex.get("completions", 0),
        "kron_tableaux.count_s": busy("kron_tableaux."),
        "kron_tableaux.tableaux": ex.get("tableaux", 0),
        "cli.self_s": below("cli.main"),
        "cli.calls": count("cli.main"),
        "cli.nonzero_exits": ex.get("cli_nonzero_exits", 0),
        "symfunc.character_table_misses": misses if isinstance(misses, int) else 0,
        "trace.overhead_frac": entry_s / sum(untraced["paced_latencies"]) - 1,
        "trace.covered_frac": top_level / traced["wall"],
    }


def counter_mismatches(reports: list[dict]) -> list[str]:
    """Exact counters that differ between runs of one seed.

    Entry calls and their replay share a counter name only where the two
    must agree (triples, checksum, answer digest).
    """
    seen: dict[str, set] = {}
    for r in reports:
        for exact in r["exact"]:
            for key, value in exact.items():
                seen.setdefault(key, set()).add(value)
    return [f"{key}: {sorted(map(str, vals))}" for key, vals in sorted(seen.items()) if len(vals) > 1]


def git_commit() -> str:
    """HEAD of the checkout, or "absent" when it is not a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return "absent"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "absent"
    return proc.stdout.strip() if proc.returncode == 0 else "absent"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bitableaux").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "bitableaux" / "__init__.py").is_file():
        print(f"error: no bitableaux package under {SRC}", file=sys.stderr)
        return 2

    deadline = perf_counter() + args.seconds
    run_id = f"{args.workload}-seed{args.seed}-{time.time_ns()}"

    def fits(cost: float) -> bool:
        return perf_counter() + cost <= deadline

    def worker(mode: str) -> dict:
        return spawn(args.workload, args.seed, mode)

    try:
        setups = [worker("import") for _ in range(SETUP_SAMPLES)]
        untraced, rounds = [], []
        if args.trace == 0:
            while len(untraced) < MIN_UNTRACED_RUNS or fits(max(r["elapsed"] for r in untraced)):
                untraced.append(worker("untraced"))
        else:
            while not rounds or fits(max(u["elapsed"] + t["elapsed"] for u, t in rounds)):
                rounds.append((worker("untraced"), worker("traced")))
                untraced.append(rounds[-1][0])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reports = untraced + [traced for _, traced in rounds]
    setups += reports
    mismatches = counter_mismatches(reports)
    if len({len(r["latencies"]) for r in untraced}) > 1:
        mismatches.append("number of calls differs between untraced runs")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(sum(r["failed"].values()) for r in reports) + len(mismatches)

    metrics = end_to_end(args.workload, untraced, setups)
    metrics["failed_frac"] = failed / max(attempted, 1)
    units = dict(END_TO_END, failed_frac="ratio")
    if rounds:
        layer_runs = [per_layer(traced, plain) for plain, traced in rounds]
        for name in PER_LAYER:
            if name in layer_runs[0]:
                metrics[name] = statistics.median(run[name] for run in layer_runs)
        for layer in LAYERS:
            metrics[f"{layer}.failed"] = sum(r["failed"][layer] for r in reports)
        units.update(PER_LAYER)
    reported = PER_LAYER if args.trace else END_TO_END

    exact: dict = {}
    for r in reports:
        for counters in r["exact"]:
            for key, value in counters.items():
                exact.setdefault(key, value)
    env = dict(untraced[0]["env"], seed=args.seed, git_commit=git_commit(),
               source_sha256=source_digest(), PYTHONHASHSEED="0")
    record = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "untraced_walls_s": [r["wall"] for r in untraced],
        "untraced_call_s": [sum(r["latencies"]) for r in untraced],
        "untraced_paced_call_s": [sum(r["paced_latencies"]) for r in untraced],
        "pace_scales": [r["scale"] for r in untraced],
        "samples": {
            "untraced_runs": len(untraced),
            "traced_rounds": len(rounds),
            "setup_samples": len(setups),
            "query_latencies": sum(len(r["latencies"]) for r in untraced),
        },
        "exact_counters": exact,
        "counter_mismatches": mismatches,
        "errors": [e for r in reports for e in r["errors"]][:50],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if rounds:
        spans = {"run_id": run_id, "fields": ["name", "start", "end", "parent"],
                 "spans": rounds[0][1]["spans"]}
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} run_id={run_id}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# samples " + json.dumps(record["samples"]))
    print("# exact " + json.dumps(exact, sort_keys=True))
    for line in mismatches:
        print(f"# COUNTER MISMATCH between runs of one seed: {line}")
    for line in record["errors"]:
        print(f"# FAILED {line}")
    for key in ("untraced_call_s", "untraced_paced_call_s", "pace_scales"):
        print(f"# {key} " + json.dumps([round(v, 4) for v in record[key]]))
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
