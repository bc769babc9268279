#!/usr/bin/env python3
"""Write the traced-run report of one workload as Markdown.

    python3 perfbench/report.py --workload large_field --seed 7 --seconds 25

Run from the repository root. Builds like run.py, runs the workload with
--trace 1 and writes perfbench/reports/<workload>.md: the per-layer table
(units and directions from BENCHMARK.json) and the run's own summary
lines.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="7")
    ap.add_argument("--seconds", default="25")
    args = ap.parse_args()

    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                        "--seed", args.seed, "--seconds", args.seconds, "--trace", "1"],
                       capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        return p.returncode
    result = json.loads(p.stdout.strip().splitlines()[-1])
    digest = [l for l in p.stdout.splitlines() if l.startswith("sim_digest ")]
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as f:
        declared = {m["name"]: m for m in json.load(f)["per_layer"]}
    summary = [l for l in p.stderr.splitlines() if " traced: " in l]

    lines = [f"# Traced run: {args.workload}", "",
             f"`python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
             f"--seconds {args.seconds} --trace 1`", "",
             f"- correct: {str(result['correct']).lower()}, ops attempted: {result['attempted']}, "
             f"failed: {result['failed']}",
             f"- obs.bench_trace_overhead: {result['metrics']['obs.bench_trace_overhead']['value']:.4f}",
             *[f"- {s.strip()}" for s in summary + digest], "",
             "| metric | value | unit | better |", "|---|---:|---|---|"]
    for name, m in result["metrics"].items():
        lines.append(f"| `{name}` | {m['value']:.6g} | {m['unit']} | {declared[name]['better']} |")
    os.makedirs(os.path.join(HERE, "reports"), exist_ok=True)
    with open(os.path.join(HERE, "reports", f"{args.workload}.md"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
