"""Record the ROADMAP's "Net effect" baselines as this benchmark measures them.

Run from the repository root:

    python3 bench/baseline.py [--seed 0] [--seconds 20]

Runs every workload untraced and traced, times ``concordance_index`` once at
n = 20 000 (the size the ROADMAP quotes; the timed workload uses n = 2 000),
and writes bench/results/BENCH_seed_baseline.json.
"""

import run  # noqa: F401  pins BLAS threads before numpy is imported

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(run.SRC))

from survix import metrics, simulate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "results" / "BENCH_seed_baseline.json"
CINDEX_N = 20_000
CINDEX_REPEATS = 3


def run_benchmark(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600)
    path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def time_concordance(seed: int) -> float:
    """Median seconds of one C-index at n = 20 000 on the true risk score."""
    data, _ = simulate.simulate_dataset(1, n=CINDEX_N, seed=seed)
    risk = simulate.build_scenario(1).risk.term_products(data.features).sum(axis=1)
    times = []
    for _ in range(CINDEX_REPEATS):
        t0 = perf_counter()
        metrics.concordance_index(risk, data)
        times.append(perf_counter() - t0)
    return median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()

    runs = {}
    for workload in ("cohort_exact_p3", "wide_exact_p12", "budgeted_p10", "simulate_fit_score"):
        runs[workload] = {trace: run_benchmark(workload, args.seed, args.seconds, trace)
                          for trace in (0, 1)}
    cohort = runs["cohort_exact_p3"][0]["summary"]["ms_per_instance"]
    wide = runs["wide_exact_p12"]
    budgeted = runs["budgeted_p10"][0]["summary"]["op_ms_median"]
    net_effect = {
        "survival_ms_per_instance": {
            "measured": cohort["survival"],
            "time_dependent": cohort["survival_time_dependent"],
            "time_independent": cohort["survival_time_independent"],
            "roadmap": 11.5},
        "loghazard_ms_per_instance": {"measured": cohort["loghazard"], "roadmap": 1.4},
        "hazard_ms_per_instance": {"measured": cohort["hazard"]},
        "p12_table_s": {
            "measured": wide[1]["summary"]["span_ms_median"]["games.table"] / 1e3,
            "note": "median evaluate_all_coalitions span, traced, marginal and "
                    "conditional ops",
            "roadmap": 0.46},
        "p12_explain_ms_by_op": wide[0]["summary"]["op_ms_median"],
        "cindex_n20000_s": {"measured": time_concordance(args.seed), "roadmap": 4.8},
        "regression_p10_b512_ms": {
            "measured": budgeted["regression.b512"],
            "blas_threads": runs["budgeted_p10"][0]["environment"]["blas_threads"],
            "roadmap": "400 (default BLAS threads), 30 (OPENBLAS_NUM_THREADS=1)"},
    }
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": runs["budgeted_p10"][0]["environment"],
        "net_effect": net_effect,
        "runs": {w: {f"trace{t}": {"result": d["result"], "notes": d["notes"],
                                   "wall": d["wall"], "summary": d["summary"],
                                   "cycles": d["cycles"],
                                   "error_rate": d["error_rate"]}
                     for t, d in by_trace.items()}
                 for w, by_trace in runs.items()},
    }
    del record["environment"]["workload"], record["environment"]["why"]
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(net_effect, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
