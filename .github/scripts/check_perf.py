#!/usr/bin/env python3
"""Gates BENCH_throughput.json against a checked-in perf baseline.

Three checks, tuned for noisy shared CI runners:

* The Conv/Ring throughput ratio is host-independent (both configs run in
  the same process on the same machine), so it gets a hard two-sided gate:
  it must stay within --tolerance (default 20%) of the baseline ratio.
  This is the regression the profile-driven steering work is guarding.
* The memory-bound ratio, per config: art instrs/s over gzip instrs/s from
  the report's per-run rows.  Also host-independent; it is gated one-sided
  (must stay above baseline * (1 - tolerance)) and guards event-driven
  load disambiguation: art is dominated by loads waiting on older stores,
  gzip is not, so re-introducing a per-cycle LSQ sweep drops the ratio
  about threefold while leaving Conv/Ring and the aggregate floor passing.
* Absolute aggregate instrs/s only gets a floor: the baseline was measured
  on a deliberately slow reference host, so any healthy runner clears
  baseline * (1 - tolerance) easily while a catastrophic slowdown (a
  debug-build leak into Release, an accidental O(n^2) scan) still trips it.
  Beating the baseline by more than the tolerance prints a reminder to
  refresh bench/perf_baseline.json; it never fails the build.
* The packed-trace replay stage must have run: the report's packed_trace
  row must exist and count more than 0 simulated instructions.  Its jobs
  once went unwaited in contracts-off builds (the wait sat inside a
  contract macro) and the row silently read 0.

Exit status: 0 on pass, 1 listing every violated gate otherwise.
"""

import argparse
import json
import sys


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def config_ips(report, name):
    for entry in report.get("configs", []):
        if entry.get("name") == name:
            return float(entry["sim_instrs_per_second"])
    sys.exit(f"error: config {name!r} missing from report")


def run_ips(report, config, benchmark):
    for entry in report.get("runs", []):
        if (entry.get("config") == config
                and entry.get("benchmark") == benchmark):
            return float(entry["sim_instrs_per_second"])
    sys.exit(f"error: run {config}/{benchmark} missing from report")


def membound_ratio(report, config):
    return run_ips(report, config, "art") / run_ips(report, config, "gzip")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="bench/perf_baseline.json")
    parser.add_argument("measured", help="BENCH_throughput.json from this run")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="fractional gate width (default 0.20)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    measured = load(args.measured)
    tol = args.tolerance
    failures = []

    for key in ("instrs_per_run", "warmup_per_run", "seed", "benchmarks"):
        if baseline.get(key) != measured.get(key):
            failures.append(
                f"workload mismatch: {key} baseline={baseline.get(key)} "
                f"measured={measured.get(key)} (run the bench with the "
                f"baseline's RINGCLU_* settings)")

    base_ring = config_ips(baseline, "Ring_8clus_1bus_2IW")
    base_conv = config_ips(baseline, "Conv_8clus_1bus_2IW")
    meas_ring = config_ips(measured, "Ring_8clus_1bus_2IW")
    meas_conv = config_ips(measured, "Conv_8clus_1bus_2IW")

    base_ratio = base_conv / base_ring
    meas_ratio = meas_conv / meas_ring
    print(f"Conv/Ring ratio: baseline {base_ratio:.3f}, "
          f"measured {meas_ratio:.3f}")
    if not base_ratio * (1 - tol) <= meas_ratio <= base_ratio * (1 + tol):
        failures.append(
            f"Conv/Ring throughput ratio {meas_ratio:.3f} outside "
            f"{base_ratio:.3f} +/- {tol:.0%} — the steering-path cost "
            f"moved relative to Ring")

    for config, base_mem in sorted(baseline["membound_ratio"].items()):
        meas_mem = membound_ratio(measured, config)
        mem_floor = float(base_mem) * (1 - tol)
        print(f"{config} art/gzip ratio: baseline {float(base_mem):.3f} "
              f"(floor {mem_floor:.3f}), measured {meas_mem:.3f}")
        if meas_mem < mem_floor:
            failures.append(
                f"{config} art/gzip throughput ratio {meas_mem:.3f} below "
                f"floor {mem_floor:.3f} (baseline {float(base_mem):.3f} - "
                f"{tol:.0%}) — memory-bound runs got relatively slower")

    packed = measured.get("packed_trace")
    if not isinstance(packed, dict):
        failures.append("packed_trace row missing from the report — the "
                        "packed-trace replay stage did not run")
    else:
        packed_instrs = int(packed.get("sim_instrs", 0))
        print(f"packed-trace replay: {packed_instrs} instrs")
        if packed_instrs <= 0:
            failures.append("packed_trace stage simulated 0 instructions — "
                            "its jobs did not run or were not waited for")

    base_agg = float(baseline["sim_instrs_per_second"])
    meas_agg = float(measured["sim_instrs_per_second"])
    floor = base_agg * (1 - tol)
    print(f"aggregate instrs/s: baseline {base_agg:,.0f} "
          f"(floor {floor:,.0f}), measured {meas_agg:,.0f}")
    if meas_agg < floor:
        failures.append(
            f"aggregate {meas_agg:,.0f} instrs/s below floor {floor:,.0f} "
            f"(baseline {base_agg:,.0f} - {tol:.0%})")
    elif meas_agg > base_agg * (1 + tol):
        print(f"note: aggregate beats baseline by more than {tol:.0%}; "
              f"consider refreshing bench/perf_baseline.json")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
