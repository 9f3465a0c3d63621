"""Closed-loop measurement, metrics and reporting for the survix benchmark.

One process, one caller: the next op is issued only after the previous one
returned and its output was checked. Set-up runs ``SETUP_REPEATS`` times and
reports the median; the timed loop then runs whole cycles of the workload's
op mix until ``seconds`` have passed.

Between ops, at most once per ``PROBE_INTERVAL_NS``, the untraced loop runs
the fixed kernel of ``reference.py``. Each op's time is divided by the mean of
the two kernel times that bracket it, so the end-to-end op metrics are in
multiples of the kernel (unit ``ref``) and do not follow the machine's speed
drift. The same figures in milliseconds are printed beside them.

An untraced run reports the end-to-end metrics and installs no wrapper. A
traced run runs every cycle once untraced and once with the tracer installed,
and reports the per-layer metrics of the traced cycles, including the tracing
overhead (traced over untraced op time, minus one).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

import numpy as np
import scipy

import layertrace
from reference import SpeedProbe
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
PROBE_INTERVAL_NS = 150_000_000
MAX_REPORTED_FAILURES = 5


@dataclass
class OpRecord:
    kind: str
    slot: int  # position in the cycle
    ns: int
    work: int
    problems: list
    extra: dict = field(default_factory=dict)
    probe_index: int = -1  # latest kernel sample before the op
    ref_ns: float = 0.0  # mean of the kernel samples that bracket the op

    @property
    def ref_units(self) -> float:
        return self.ns / self.ref_ns


def run_cycle(wl, state, cycle: int, tracer=None, probe=None) -> list[OpRecord]:
    """Issue the ops of one cycle back to back, checking each output."""
    records = []
    for slot, op in enumerate(wl.ops(state, cycle)):
        extra = {}
        probe_index = probe.before_op() if probe is not None else -1
        if tracer is not None:
            tracer.op += 1
        t0 = perf_counter_ns()
        try:
            if tracer is None:
                out = wl.run(state, op, None)
            else:
                out = tracer.call("bench.op", wl.run, (state, op, tracer))
        except Exception:
            ns = perf_counter_ns() - t0
            problems = [traceback.format_exc(limit=3)]
        else:
            ns = perf_counter_ns() - t0
            try:
                if tracer is None:
                    problems, extra = wl.check(state, op, out)
                else:
                    problems, extra = tracer.call("bench.check", wl.check, (state, op, out))
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        records.append(OpRecord(op.kind, slot, ns, op.work, problems, extra, probe_index))
    return records


def measure(wl, state, seconds: float):
    """Whole cycles until ``seconds`` have passed, with kernel samples between
    ops: (records, cycles run, kernel samples in ns)."""
    probe = SpeedProbe(PROBE_INTERVAL_NS)
    records = []
    started = perf_counter()
    cycle = 0
    while cycle == 0 or perf_counter() - started < seconds:
        records += run_cycle(wl, state, cycle, probe=probe)
        cycle += 1
    probe.close()
    for r in records:
        r.ref_ns = probe.around(r.probe_index)
    return records, cycle, probe.samples


def measure_traced(wl, state, seconds: float, tracer):
    """Each cycle twice, untraced and traced, alternating which runs first, so
    that a drift in machine speed cancels out of the tracing overhead.
    Returns (untraced records, traced records, cycles run)."""
    untraced, traced = [], []
    started = perf_counter()
    cycle = 0
    while cycle == 0 or perf_counter() - started < seconds:
        for with_trace in ((False, True) if cycle % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    traced += run_cycle(wl, state, cycle, tracer)
            else:
                untraced += run_cycle(wl, state, cycle)
        cycle += 1
    return untraced, traced, cycle


def slot_median(values, slots) -> float:
    """Median over the cycle's op slots of each slot's median value.

    With an even number of slots, the plain median of all ops falls in the
    gap between two op kinds and moves with the slowest op of the faster
    kind; the median of slot medians does not.
    """
    by_slot: dict[int, list[float]] = {}
    for value, slot in zip(values, slots):
        by_slot.setdefault(slot, []).append(value)
    return median(median(v) for v in by_slot.values())


def op_figures(wl, records, times):
    """Median, tail and throughput of per-op ``times`` (one per record)."""
    tail = float(np.percentile(times, wl.tail_pct))
    return (slot_median(times, [r.slot for r in records]), tail,
            sum(r.work for r in records) / sum(times),
            sum(t > tail for t in times))


def end_to_end(wl, records, setup_times, kernel_ns):
    p50, tail, work, beyond = op_figures(wl, records, [r.ref_units for r in records])
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "op_p50_ref": (p50, "ref"),
        "op_tail_ref": (tail, "ref"),
        "work_per_ref": (work, "1/ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "op_p50_ref": "op time / kernel time; median over cycle slots of the slot's median",
        "op_tail_ref": f"p{wl.tail_pct:g} of {len(records)} ops, {beyond} beyond",
        "work_per_ref": f"{wl.work_unit} per kernel time",
    }
    p50_ms, tail_ms, work_s, _ = op_figures(wl, records, [r.ns / 1e6 for r in records])
    wall = {
        "kernel_ms": (median(kernel_ns) / 1e6, "ms",
                      f"median of {len(kernel_ns)} kernel samples"),
        "op_p50_ms": (p50_ms, "ms", "the same figures in wall time"),
        "op_tail_ms": (tail_ms, "ms", None),
        wl.work_name: (work_s * 1e3, "1/s", f"{wl.work_unit}/s"),
    }
    return metrics, notes, wall


def per_layer(wl, tracer, traced, untraced):
    """Per-layer metrics of the traced phase, per op (counts and seconds)."""
    self_ns, calls, counts, root_ns, under_root = layertrace.span_totals(tracer.spans)
    n_ops = len(traced)

    def secs(*names):
        return sum(self_ns[n] for n in names) / 1e9 / n_ops

    def layer(prefix):
        return sum(v for k, v in self_ns.items() if k.startswith(prefix + ".")) / 1e9 / n_ops

    estimates = [r.extra for r in traced if "budget" in r.extra]
    summary = wl.summarize(traced + untraced)
    summary["span_ms_median"] = layertrace.inclusive_median_ms(tracer.spans)
    untraced_ns = sum(r.ns for r in untraced)
    op_ns = root_ns["bench.op"]
    m = {
        "models.predict_s.survival": (secs("models.predict.survival"), "s/op"),
        "models.predict_s.hazard": (secs("models.predict.hazard"), "s/op"),
        "models.predict_s.loghazard": (secs("models.predict.loghazard"), "s/op"),
        "models.predict_calls": (sum(calls[n] for n in calls
                                     if n.startswith("models.predict.")) / n_ops, "calls/op"),
        "models.predict_cells": (sum(counts[n] for n in counts
                                     if n.startswith("models.predict.")) / n_ops, "cells/op"),
        "models.fit_coxph_s": (secs("models.fit_coxph"), "s/op"),
        "models.cox_iterations": (counts["models.fit_coxph"] / n_ops, "iterations/op"),
        "models.self_s": (layer("models"), "s/op"),
        "simulate.dataset_s": (secs("simulate.dataset"), "s/op"),
        "games.imputation_s": (secs("games.imputation"), "s/op"),
        "games.imputed_rows": (counts["games.imputation"] / n_ops, "rows/op"),
        "games.values_self_s": (secs("games.values"), "s/op"),
        "games.values_calls": (calls["games.values"] / n_ops, "calls/op"),
        "games.masks_per_call": (counts["games.values"] / max(calls["games.values"], 1),
                                 "masks/call"),
        "games.table_self_s": (secs("games.table"), "s/op"),
        "games.self_s": (layer("games"), "s/op"),
        "interactions.moebius_s": (secs("interactions.moebius"), "s/op"),
        "interactions.ksii_self_s": (secs("interactions.ksii"), "s/op"),
        "interactions.aggregate_s": (secs("interactions.aggregate"), "s/op"),
        "interactions.explain_self_s": (secs("interactions.explain"), "s/op"),
        "interactions.self_s": (layer("interactions"), "s/op"),
        "approximators.self_s.mc": (secs("approximators.mc"), "s/op"),
        "approximators.self_s.permutation": (secs("approximators.permutation"), "s/op"),
        "approximators.self_s.regression": (secs("approximators.regression"), "s/op"),
        "approximators.self_s": (layer("approximators"), "s/op"),
        "approximators.budget_use": (
            sum(e["evaluations"] for e in estimates)
            / max(sum(e["budget"] for e in estimates), 1), "ratio"),
        "approximators.unstable_runs": (sum(e["unstable"] for e in estimates) / n_ops,
                                        "runs/op"),
        "metrics.concordance_s": (secs("metrics.concordance"), "s/op"),
        "metrics.integrated_brier_s": (secs("metrics.integrated_brier"), "s/op"),
        "metrics.local_accuracy_s": (secs("metrics.local_accuracy"), "s/op"),
        "metrics.approximation_error_s": (secs("metrics.approximation_error"), "s/op"),
        "metrics.self_s": (layer("metrics"), "s/op"),
        "mse_mc_b512": (summary.get("mse_mc_b512", 0.0), "mse"),
        "mse_permutation_b512": (summary.get("mse_permutation_b512", 0.0), "mse"),
        "mse_regression_b512": (summary.get("mse_regression_b512", 0.0), "mse"),
        "trace.op_wall_s": (op_ns / 1e9 / n_ops, "s/op"),
        "trace.accounted_frac": (under_root["bench.op"] / op_ns, "ratio"),
        "trace.overhead_frac": (sum(r.ns for r in traced) / untraced_ns - 1.0, "ratio"),
    }
    notes = {
        "trace.accounted_frac": "layer self time / op wall time, traced ops",
        "trace.overhead_frac": f"traced vs untraced op time over {n_ops} ops each",
    }
    return m, notes, summary


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def environment(wl, seed: int) -> dict:
    src = sorted((ROOT / "src" / "survix").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "os_threads": _os_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", out_dir: Path | None = OUT_DIR) -> dict:
    wl = WORKLOADS[name](size)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        state = wl.setup(seed)
        wl.warm_up(state)
        setup_times.append(perf_counter() - t0)

    wall = {}
    if trace:
        tracer = layertrace.Tracer()
        untraced, traced, n_cycles = measure_traced(wl, state, seconds, tracer)
        records = untraced + traced
        metrics, notes, summary = per_layer(wl, tracer, traced, untraced)
    else:
        records, n_cycles, kernel_ns = measure(wl, state, seconds)
        metrics, notes, wall = end_to_end(wl, records, setup_times, kernel_ns)
        summary = wl.summarize(records)

    failed = [r for r in records if r.problems]
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "result": result,
        "notes": notes,
        "wall": wall,
        "cycles": n_cycles,
        "setup_s_each": setup_times,
        "error_rate": len(failed) / len(records),
        # untraced runs: (slot, op ns, kernel ns around the op) per op
        "ops": [(r.slot, r.ns, round(r.ref_ns)) for r in records if r.ref_ns],
        "summary": summary,
        "failures": [{"kind": r.kind, "problems": r.problems}
                     for r in failed[:MAX_REPORTED_FAILURES]],
        "environment": environment(wl, seed),
    }
    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        if trace:
            tracer.write_csv(out_dir / f"{stem}-spans.csv")
        (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str))
    return detail


def report(detail: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    env, result = detail["environment"], detail["result"]
    lines = [f"# {env['workload']} seed={env['seed']}: {result['attempted']} ops in "
             f"{detail['cycles']} cycles; why: {env['why']}",
             f"# blas={env['blas']} threads={env['blas_threads']['OPENBLAS_NUM_THREADS']} "
             f"os_threads={env['os_threads']} nproc={env['nproc']} "
             f"commit={env['commit']} src={env['src_sha256'][:12]}"]
    for name, m in result["metrics"].items():
        note = detail["notes"].get(name)
        lines.append(f"{name:34s} {m['value']:<14.6g} {m['unit']}"
                     + (f"   ({note})" if note else ""))
    for name, (value, unit, note) in detail["wall"].items():
        lines.append(f"{name:34s} {value:<14.6g} {unit}" + (f"   ({note})" if note else ""))
    for key in ("mse_mc_b512", "mse_permutation_b512", "mse_regression_b512"):
        if key in detail["summary"] and key not in result["metrics"]:
            lines.append(f"{key:34s} {detail['summary'][key]:<14.6g} mse   "
                         "(median approximation_error vs exact)")
    lines.append(f"{'error_rate':34s} {detail['error_rate']:<14.6g} ratio   "
                 f"({result['failed']} failed / {result['attempted']} attempted)")
    for failure in detail["failures"]:
        lines.append(f"! failed {failure['kind']}: {failure['problems'][0].strip()}")
    return lines


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report(detail):
        print(line)
    print(json.dumps(detail["result"]))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status
