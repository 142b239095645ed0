#!/usr/bin/env python3
"""Steadiness report: repeats one workload K times and prints, for every
metric, its median, quartiles and IQR/median beside the bound that
BENCHMARK.json fixes for it.

    python3 perfbench/steady.py --workload sweep_membound --runs 10
        [--seed0 1] [--seconds 50] [--trace 0]

Run i uses seed seed0 + i, as a comparison of two commits does: a
metric is steady when its spread over seeds stays well inside its bound
(the verdict column asks for a third of it).  Use it to set the bounds
and rerun it whenever a workload changes.  Raw values are written to
<build dir>/steady/<workload>-trace<T>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the benchmark itself, for its paths)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(run.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    config_path = run.REPO / "BENCHMARK.json"
    config = json.loads(config_path.read_text()) if config_path.is_file() \
        else {}
    bounds = {m["name"]: m.get("bound") for m in config.get("end_to_end", [])}
    seconds = args.seconds or config.get("run_seconds", 30)

    values, failed, attempted, loads = {}, 0, 0, []
    for i in range(args.runs):
        seed = args.seed0 + i
        result = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = result.stdout.strip().splitlines()
        if result.returncode != 0 or not lines:
            sys.stderr.write(result.stderr[-2000:])
            sys.exit(f"run with seed {seed} exited {result.returncode}")
        doc = json.loads(lines[-1])
        host = next((json.loads(line[len("host: "):]) for line in lines
                     if line.startswith("host: ")), {})
        loads.append(host.get("loadavg_end", [0])[0])
        attempted += doc["attempted"]
        failed += doc["failed"]
        for name, entry in doc["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: correct={doc['correct']} "
              f"attempted={doc['attempted']} failed={doc['failed']} "
              f"load={loads[-1]:.2f}", flush=True)

    out_dir = run.build_dir() / "steady"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"seeds": [args.seed0 + i for i in range(args.runs)],
                    "values": values, "loadavg_end": loads}, indent=1))

    print(f"\n{args.workload}: {args.runs} runs, {attempted} operations, "
          f"{failed} failed")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'bound':>6s}  verdict")
    for name, series in values.items():
        mid = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 \
            else (series[0], None, series[0])
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:34s} {mid:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} {'' if bound is None else bound:>6}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
