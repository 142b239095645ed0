#!/usr/bin/env python3
"""Pins perfbench's copy of the counter order to the simulator's schema.

perfbench/run.py parses result-store lines by position through its own
TSV_COUNTERS list: the one copy of the counter schema (kCounterFields in
src/core/sim_result.h) that the simulator cannot drive.  This check runs
`ringclu_sim --json` on a tiny run, takes the "counters" keys in document
order without dispatched_per_cluster (the vector column, handled beside
the table), reads TSV_COUNTERS from run.py with ast (the benchmark is never
imported or run) and requires the two lists to be equal.  A reordered,
added or removed counter fails here instead of inside the benchmark.

Usage: check_perfbench_counters.py RINGCLU_SIM PERFBENCH_RUN_PY
"""

import ast
import json
import subprocess
import sys


def simulator_counters(ringclu_sim):
    report = subprocess.run(
        [ringclu_sim, "--json", "Ring_4clus_1bus_2IW", "gzip",
         "instrs=500", "warmup=50"],
        check=True, capture_output=True, text=True).stdout
    counters = json.loads(report)["counters"]
    return [name for name in counters if name != "dispatched_per_cluster"]


def perfbench_counters(run_py):
    with open(run_py, encoding="utf-8") as source:
        tree = ast.parse(source.read(), filename=run_py)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "TSV_COUNTERS"):
            return ast.literal_eval(node.value)
    raise SystemExit(f"{run_py}: no top-level TSV_COUNTERS assignment")


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__.strip().splitlines()[-1])
    simulated = simulator_counters(sys.argv[1])
    pinned = perfbench_counters(sys.argv[2])
    if simulated != pinned:
        print("ringclu_sim --json counters:", simulated)
        print("perfbench TSV_COUNTERS:     ", pinned)
        raise SystemExit("counter order differs between the simulator and "
                         "perfbench/run.py")
    print(f"{len(pinned)} counters match in order")


if __name__ == "__main__":
    main()
