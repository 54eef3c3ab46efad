"""Run each workload N times and report how steady its metrics are.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 10 [--first-seed N] [--workload W]

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread — the
distance between the quartiles as a share of the median — beside the
metric's bound from ``BENCHMARK.json``.  Each run lasts that file's
``run_seconds``.  The timing metrics are printed as reported
(drift-corrected, see ``REFERENCE_PROBE_S`` in ``run.py``) and in raw
seconds, with each run's drift factor.  It exits non-zero if a run
fails, if a reported percentile sat in the gap between two request
classes, if ``latency_tail_s`` < ``latency_p50_s`` in any run, if the
verdict shares differ between runs, or if a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import CLIFF_LIMIT  # noqa: E402

EXACT = ("decided_share", "within_limit_share", "error_free_share")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({completed.returncode}):\n{completed.stderr[-3000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, detail


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    problems = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in range(args.first_seed,
                                  args.first_seed + args.runs)]
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {spec['run_seconds']} s each")
        print(f"  {'metric':<20} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>8} {'bound':>6}")
        for name in bounds:
            values = [result["metrics"][name]["value"] for result, _ in runs]
            unit = runs[0][0]["metrics"][name]["unit"]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if spread > bounds[name]:
                flag = "  OVER BOUND"
                problems.append(f"{workload}/{name}: spread {spread:.3f} "
                                f"> bound {bounds[name]}")
            elif spread > bounds[name] / 3:
                flag = "  above a third of the bound"
            print(f"  {name:<20} {median:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>8.3f} {bounds[name]:>6} {unit}{flag}")
            if name in EXACT and len(set(values)) != 1:
                problems.append(f"{workload}/{name} differs between runs: "
                                f"{sorted(set(values))}")
        for name in runs[0][1]["raw"]:
            values = [detail["raw"][name] for _, detail in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"  {name + ' raw':<20} {median:>11.5g} {q1:>11.5g} "
                  f"{q3:>11.5g} {(q3 - q1) / median:>8.3f}")
        drifts = [detail["drift_factor"] for _, detail in runs]
        print("  drift factors " + " ".join(f"{d:.3f}" for d in drifts))
        for seed, (result, detail) in enumerate(runs, start=args.first_seed):
            metrics = result["metrics"]
            if metrics["latency_tail_s"]["value"] < metrics["latency_p50_s"]["value"]:
                problems.append(f"{workload} seed {seed}: tail < p50")
            for label in ("p50", "tail"):
                if detail[f"{label}_cliff"] > CLIFF_LIMIT:
                    problems.append(f"{workload} seed {seed}: {label} sits "
                                    "between two request classes (samples "
                                    f"around it span x{detail[f'{label}_cliff']:.2f})")
        tails = {(d["tail_percentile"], d["samples"]) for _, d in runs}
        print("  tail percentile / samples per run: "
              + ", ".join(f"p{p:g} of {n}" for p, n in sorted(tails)))
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
