"""Two sets of benchmark runs, and whether they agree within the bounds
of BENCHMARK.json.

    python3 perfbench/compare.py [--runs 10]

Set A runs every workload of BENCHMARK.json on seeds 1..N, then set B on
seeds N+1..2N, each run as BENCHMARK.json's command with its run_seconds
and --trace 0.  For every workload and end-to-end metric it prints each
set's median and quartiles and checks that
  - each set's spread, (Q3 - Q1) / median, is within the metric's bound
    (setup_s is exempt: its bound covers the shift of its median only);
  - the two medians differ by no more than the bound, as a share of set
    A's median, in either direction;
  - the share of failed operations is the same in both sets;
  - every run reported correct outputs.
The sampler figures printed before the result line are summarized too,
without a bound.  Exits 0 when everything agrees, 1 otherwise.  The raw
results are saved under perfbench/_runs/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int) -> dict:
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["sampler"] = next((json.loads(line.split(" ", 1)[1])
                              for line in lines if line.startswith("sampler: ")), {})
    result["elapsed_s"] = elapsed
    print(f"  {workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']}",
          file=sys.stderr, flush=True)
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def evaluate(sets: dict) -> bool:
    """sets: {"A": {workload: [result, ...]}, "B": {...}}."""
    ok = True
    rows = [("workload", "metric", "unit", "bound", "A median [Q1, Q3]", "A spread",
             "B median [Q1, Q3]", "B spread", "B worse by", "verdict")]
    for workload in sets["A"]:
        runs = {name: sets[name][workload] for name in ("A", "B")}
        for spec in SPEC["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            stats = {k: summary([r["metrics"][name]["value"] for r in v])
                     for k, v in runs.items()}
            (a1, a2, a3, a_spread), (b1, b2, b3, b_spread) = stats["A"], stats["B"]
            worse = (b2 - a2) / a2 if spec["better"] == "lower" else (a2 - b2) / a2
            problems = []
            if name != "setup_s" and max(a_spread, b_spread) > bound:
                problems.append("spread")
            if abs(b2 - a2) / a2 > bound:
                problems.append("median")
            ok &= not problems
            rows.append((workload, name, spec["unit"], f"{bound:g}",
                         f"{a2:.4g} [{a1:.4g}, {a3:.4g}]", f"{a_spread:.3f}",
                         f"{b2:.4g} [{b1:.4g}, {b3:.4g}]", f"{b_spread:.3f}",
                         f"{worse:+.3f}", "ok" if not problems else "FAIL " + ",".join(problems)))
        for key in runs["A"][0]["sampler"]:
            (a1, a2, a3, a_spread), (b1, b2, b3, b_spread) = (
                summary([r["sampler"][key] for r in v]) for v in runs.values())
            rows.append((workload, key, "", "-", f"{a2:.4g} [{a1:.4g}, {a3:.4g}]",
                         f"{a_spread:.3f}", f"{b2:.4g} [{b1:.4g}, {b3:.4g}]",
                         f"{b_spread:.3f}", "", "(no bound)"))
        shares = {k: [r["failed"] / r["attempted"] for r in v] for k, v in runs.items()}
        same_share = len(set(shares["A"] + shares["B"])) == 1
        correct = all(r["correct"] for v in runs.values() for r in v)
        ok &= same_share and correct
        rows.append((workload, "failed share", "", "equal",
                     f"{shares['A'][0]:.4g}", "", f"{shares['B'][0]:.4g}", "", "",
                     "ok" if same_share else "FAIL"))
        rows.append((workload, "correct", "", "all", "", "", "", "", "",
                     "ok" if correct else "FAIL"))
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    sets = {}
    for index, name in enumerate(("A", "B")):
        seeds = range(1 + index * args.runs, 1 + (index + 1) * args.runs)
        sets[name] = {w["name"]: [one_run(w["name"], s) for s in seeds]
                      for w in SPEC["workloads"]}
    out = HERE / "_runs" / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(sets, indent=1))
    print(f"saved {out}", file=sys.stderr)
    return 0 if evaluate(sets) else 1


if __name__ == "__main__":
    sys.exit(main())
