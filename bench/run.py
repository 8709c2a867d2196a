#!/usr/bin/env python3
"""Benchmark for catloop: four seeded workloads, untraced or traced.

    python3 bench/run.py --workload search_cu4o2 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

Run from the root of a source checkout; the program is imported from
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the per-layer split.
`--workload all` runs every workload untraced, then traced, and prints both
sets plus the tracing overhead.  See README.md beside this file.

Each workload runs in a fresh, single-threaded child process.  The
untraced pass starts the child's set-up SETUP_REPEATS times (the last one
goes on to the timed phase) and reports the median set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("search_cu4o2", "validate_small", "validate_large", "inspect_slabs")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 20
SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0  # a single-workload invocation must end within 180 s

# BLAS and OpenMP pools are pinned to one thread before numpy is imported.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END_UNITS = {"items_per_s": "items/s", "op_ms_p50": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics a workload counts from its own outputs; 0 where it has none
COUNTED_UNITS = {"search.admitted_per_op": "count", "cli.artifact_bytes_per_op": "bytes/op"}


# ---------------------------------------------------------------------------
# the workload process


def child(args: argparse.Namespace) -> int:
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(ROOT / "src"))
    import resource

    import probe
    import tracing
    import workloads

    # relative to the checkout root (the working directory), so the paths
    # the CLI echoes into its artifacts do not depend on where the checkout is
    workdir = OUT_DIR.relative_to(ROOT) / f"work-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        warm_arg = wl.round()[0]
        wl.run_op(warm_arg)
        setup_s = time.monotonic() - args.spawned_at
        probe.probe_ms()  # a process's first probe pays one-time costs
        setup_probe_ms = probe.probe_ms()
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_probe_ms": setup_probe_ms}))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        results, failures, distinct = [], [], {}
        raw_ms, scaled_ms, probe_ms = [], [], [setup_probe_ms]
        items = ops = 0
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            for arg in wl.round():
                if tracer:
                    tracer.op_id = ops
                ops += 1
                t0 = time.perf_counter()
                try:
                    n, output = wl.run_op(arg)
                except Exception as exc:  # an op that raises counts as failed
                    failures.append(f"op {ops}: {type(exc).__name__}: {exc}")
                    n = None
                t1 = time.perf_counter()
                probe_ms.append(probe.probe_ms())
                if n is None:
                    continue
                # scale by the probe runs that bracket the op
                raw_ms.append((t1 - t0) * 1e3)
                scaled_ms.append(probe.at_probe_speed(raw_ms[-1], probe_ms[-2], probe_ms[-1]))
                items += n
                if isinstance(output, (str, tuple)):  # keep one copy of a repeated output
                    output = distinct.setdefault(output, output)
                results.append((arg, output))
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # check each distinct output once; outputs repeat when inputs repeat
        problems: list[str] = []
        failed_checks = 0
        verdicts: dict = {}
        for arg, output in results:
            key = (repr(arg), output if isinstance(output, (str, tuple)) else id(output))
            if key not in verdicts:
                verdicts[key] = wl.check(arg, output)
                problems += verdicts[key]
            failed_checks += bool(verdicts[key])
        if results:
            problems += wl.check_run(results)
        else:
            problems.append("no op completed")

        summary = {
            "correct": not problems,
            "attempted": ops,
            "failed": len(failures) + failed_checks,
            "items": items,
            "raw_items_per_s": items / elapsed,
            "items_per_s": items / max(sum(scaled_ms) / 1e3, 1e-9),
            "op_ms": raw_ms,
            "scaled_op_ms": scaled_ms,
            "probe_ms_p50": statistics.median(probe_ms),
            "probe_ms": probe_ms,
            "setup_s": setup_s,
            "setup_probe_ms": setup_probe_ms,
            "problems": problems[:20],
            "failures": failures[:20],
        }
        if tracer:
            speed = probe.PROBE_MS / statistics.median(probe_ms)
            metrics, missing = tracing.per_layer_metrics(
                tracer, max(items, 1), max(ops, 1), speed)
            metrics.update({n: {"value": 0.0, "unit": u} for n, u in COUNTED_UNITS.items()})
            if results:
                metrics.update(wl.counters(results))
            summary.update(metrics=metrics, missing=missing)
            summary["trace_file"] = str(_write_trace(args, tracer, summary))
        else:
            summary["metrics"] = {
                "items_per_s": summary["items_per_s"],
                "op_ms_p50": statistics.median(scaled_ms) if scaled_ms else 0.0,
                "peak_rss_mb": peak_rss_mb,
            }
        print(json.dumps(summary))
        return 0
    finally:
        for p in sorted(workdir.glob("*")):
            p.unlink()
        workdir.rmdir()


def _write_trace(args, tracer, summary) -> Path:
    """Spans and per-name totals of the traced pass, as one JSON file."""
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "items": summary["items"],
        "ops": summary["attempted"],
        "items_per_s": summary["items_per_s"],
        "missing": tracer.missing,
        "totals": tracer.totals(),
        "span_fields": ["name", "parent", "start_ns", "end_ns", "op", "extra"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path


# ---------------------------------------------------------------------------
# the launcher


class BenchError(Exception):
    """A workload process failed or overran; no result is printed."""


def _spawn(args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    env = {**os.environ, **THREAD_PINS, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONHASHSEED": "0"}
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} {role} process overran its time") from None
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} {role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, deadline: float) -> dict:
    """One pass of one workload: the summary of its measuring process.

    Each set-up time is scaled by the probe runs just before its process
    starts and just after its set-up ends, as op times are.
    """
    import probe

    if args.trace:
        return _spawn(args, "measure", deadline)
    probe.probe_ms()  # a process's first probe pays one-time costs
    setups = []
    for k in range(SETUP_REPEATS):
        before = probe.probe_ms()
        summary = _spawn(args, "setup" if k < SETUP_REPEATS - 1 else "measure", deadline)
        setups.append(probe.at_probe_speed(summary["setup_s"], before,
                                           summary["setup_probe_ms"]))
    summary["setups_s"] = setups
    summary["metrics"]["setup_s"] = statistics.median(setups)
    summary["metrics"] = {name: {"value": summary["metrics"][name], "unit": unit}
                          for name, unit in END_TO_END_UNITS.items()}
    return summary


def _report_lines(name: str, summary: dict) -> list[str]:
    lines = [f"[{name}] ops={summary['attempted']} failed={summary['failed']} "
             f"items={summary['items']} correct={summary['correct']} "
             f"raw items/s={summary['raw_items_per_s']:.4g} "
             f"probe p50={summary['probe_ms_p50']:.3f} ms"]
    for label in ("op_ms", "scaled_op_ms"):
        ms = summary[label]
        if ms:
            lines.append(f"[{name}] {label} p50={statistics.median(ms):.2f} (n={len(ms)}): "
                         + " ".join(f"{v:.1f}" for v in ms))
    if "setups_s" in summary:
        lines.append(f"[{name}] set-ups (s): " + " ".join(f"{v:.3f}" for v in summary["setups_s"]))
    for metric, m in summary["metrics"].items():
        lines.append(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")
    for metric in summary.get("missing", []):
        lines.append(f"[{name}] {metric} = missing (wrapped name not found)")
    for problem in summary["problems"] + summary["failures"]:
        lines.append(f"[{name}] PROBLEM {problem}")
    return lines


def _save_run(args, summary: dict) -> None:
    """Keep the full record of a run (per-op and probe times) for reference."""
    path = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(summary))


def launcher(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "catloop" / "__init__.py").is_file():
        print(f"bench: no catloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before the probe imports numpy
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.workload != "all":
            summary = run_workload(args, time.monotonic() + RUN_BUDGET_S)
            _save_run(args, summary)
            for line in _report_lines(args.workload, summary):
                print(line)
            for missing in summary.get("missing", []):
                print(f"bench: missing metric {missing}", file=sys.stderr)
            print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed",
                                                      "metrics")}))
            return 0
        return run_all(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, with the tracing overhead."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    overhead = []
    for name in WORKLOAD_NAMES:
        rates = {}
        for trace in (0, 1):
            one = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
            summary = run_workload(one, time.monotonic() + RUN_BUDGET_S)
            _save_run(one, summary)
            for line in _report_lines(name if not trace else f"{name} traced", summary):
                print(line, flush=True)
            combined["correct"] &= summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            for metric, m in summary["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = m
            rates[trace] = summary["items_per_s"]
        overhead.append(f"{name}: untraced {rates[0]:.2f} items/s, traced {rates[1]:.2f} "
                        f"items/s ({100 * (rates[0] / rates[1] - 1):+.1f}% time)")
    print("tracing overhead:")
    for line in overhead:
        print("  " + line)
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.role:
        return child(args)
    return launcher(args)


if __name__ == "__main__":
    sys.exit(main())
