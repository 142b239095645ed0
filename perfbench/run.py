#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ringclu simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds the shipped binaries and the
traced driver (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build), runs one workload and prints, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, measured on the
shipped binaries the way a user drives them (`ringclu_sim --sweep`,
`ringclu_simd` plus an HTTP client).  With --trace 1 they are the
per-layer metrics, measured by perfbench_probe (timing decorators around
the library's layers) and by spans around every HTTP call.

    python3 perfbench/run.py --record-expected

rewrites perfbench/expected.json, the simulated counters every job must
reproduce.  perfbench/steady.py repeats a workload and reports its spread.
perfbench/README.md documents workloads, metrics and the protocol.
"""

import argparse
import hashlib
import http.client
import itertools
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
# The daemon's load goes through the shipped HTTP client.  The daemon
# listens on the loopback address, which a proxy named in the caller's
# environment must not intercept (urllib honours no_proxy).
sys.path.insert(0, str(REPO / "tools"))
os.environ["no_proxy"] = "127.0.0.1"
try:
    import ringclu_client  # noqa: E402
except ImportError:
    ringclu_client = None

PRESETS = ["Ring_8clus_1bus_2IW", "Conv_8clus_1bus_2IW"]
WORKERS = 2
CONNECTIONS = 2
SETUP_REPS = 5
# Generator seed of the synthetic streams and of the recorded packs.  It
# is fixed so that expected.json holds for every workload seed; the
# workload seed varies order, budgets and pack length instead.
SYNTH_SEED = 42
# A job's budget is base + BUDGET_STEP * k with k < BUDGET_CHOICES; the
# workload seed picks k and expected.json covers every k.
BUDGET_STEP = 1000
BUDGET_CHOICES = 5
# Store-served re-runs of a finished sweep per round: each is one process
# start of a few milliseconds, so hit_p50_ms needs many for its median.
SWEEP_HIT_RERUNS = 12

WORKLOADS = {
    "sweep_membound": {
        "kind": "sweep",
        "benchmarks": ["ammp", "art", "equake"],
        "instrs": 300000,
        "warmup": 40000,
    },
    "sweep_compute": {
        "kind": "sweep",
        "benchmarks": ["gzip", "bzip2", "crafty", "eon", "gap", "parser",
                       "mesa", "sixtrack", "lucas", "facerec", "applu",
                       "swim"],
        "instrs": 400000,
        "warmup": 100000,
    },
    "daemon_traces": {
        "kind": "daemon",
        "benchmarks": ["gzip", "crafty", "mesa", "swim"],
        "instrs": 120000,
        "warmup": 12000,
        # Fresh jobs per round; each is followed by one resubmission.
        "fresh_per_round": 32,
    },
}

# Counters checked against expected.json for every job.
CHECKED_COUNTERS = ["cycles", "committed", "comms", "l2_misses"]
# Counter columns of the TSV result store (harness/result_store.cpp).
TSV_COUNTERS = [
    "cycles", "committed", "comms", "comm_distance_sum",
    "comm_contention_sum", "nready_sum", "branches", "mispredicts",
    "icache_stall_cycles", "loads", "stores", "load_forwards",
    "l1d_accesses", "l1d_misses", "l2_accesses", "l2_misses",
    "steer_stall_cycles", "rob_stall_cycles", "lsq_stall_cycles",
    "copy_evictions", "rob_occupancy_sum", "regs_in_use_sum",
]
# Result-document fields that may differ between runs of one job, besides
# the "host" block: the store contract keeps host timing out of the stored
# bytes (the same rule as .github/scripts/compare_sim_json.py).
TIMING_MARKERS = ("wall", "seconds", "per_second", "amortized", "restored")

# The self times of a probe job's restore, warmup and measure spans must
# match the simulator's own wall_seconds within SPAN_VS_PROCESSOR_TOL.
SPAN_VS_PROCESSOR_TOL = 0.05

HTTP_TIMEOUT_S = 60.0
# Ids of client-side spans (itertools.count is atomic under the GIL).
SPAN_IDS = itertools.count(1)
# Period at which a waiting client reads new lines of the daemon's journal.
JOURNAL_POLL_S = 0.0005
# The daemon's timed phase is a fixed number of rounds per --seconds, not
# "until the time is up": its peak RSS and journal grow with the number
# of requests served, which must not depend on host speed.
DAEMON_ROUND_S = 2.5
STARTUP_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    """A failure that invalidates the whole run (no result is printed)."""


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def metric(value, unit):
    return {"value": value, "unit": unit}


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]: ceil(q * n) in integers."""
    ordered = sorted(values)
    rank = max(1, (round(q * 1000) * len(ordered) + 999) // 1000)
    return ordered[rank - 1]


def harmonic_mean(values):
    """fsum is exact, so the result does not depend on the order in which
    jobs finished."""
    return len(values) / math.fsum(1.0 / v for v in values) if values else 0.0


# ---- Build and processes -------------------------------------------------

def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else REPO / target


def clean_env(**extra):
    """The caller's environment minus every RINGCLU_* knob, plus extra."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RINGCLU_")}
    env.update(extra)
    return env


def build():
    """Configures and builds into build_dir()/cmake; returns binary paths."""
    if not (REPO / "CMakeLists.txt").is_file() or not (REPO / "src").is_dir():
        raise BenchError(f"{REPO} holds no ringclu sources to build")
    cmake_dir = build_dir() / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir() / "build.log"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", "4", "--target",
                  "ringclu_sim", "ringclu_simd", "ringclu_trace",
                  "perfbench_probe"])
    with open(log_path, "w", encoding="utf-8") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                out.flush()
                sys.stderr.write(log_path.read_text(errors="replace")[-4000:])
                raise BenchError(f"build failed (log: {log_path})")
    tools = cmake_dir / "ringclu" / "tools"
    return {"sim": tools / "ringclu_sim", "simd": tools / "ringclu_simd",
            "trace": tools / "ringclu_trace",
            "probe": cmake_dir / "perfbench_probe", "cmake_dir": cmake_dir}


def run_timed(argv, env, done_times=None):
    """Runs argv to completion.  Returns (exit code, seconds, peak RSS in
    MiB, stdout).  With a done_times list, appends the offset in seconds
    of every "<n>/<total> done" progress report on stderr (one per
    finished job of a ringclu_sim batch)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL if done_times is None else subprocess.PIPE)

    def watch_progress():
        while chunk := os.read(proc.stderr.fileno(), 4096):
            now = time.perf_counter() - start
            done_times.extend([now] * chunk.count(b" done"))

    watcher = None
    if done_times is not None:
        watcher = threading.Thread(target=watch_progress)
        watcher.start()
    text = proc.stdout.read().decode(errors="replace")
    if watcher is not None:
        watcher.join()
        proc.stderr.close()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0, text


def cpu_times():
    """(total, steal) jiffies of all CPUs, from /proc/stat."""
    fields = [int(v) for v in
              Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    return sum(fields[:8]), fields[7]


def host_protocol(bins, workload, info):
    """Everything needed to judge whether a run is comparable."""
    cache = (bins["cmake_dir"] / "CMakeCache.txt").read_text(errors="replace")

    def cache_value(name):
        match = re.search(rf"^{name}:\w+=(.*)$", cache, re.M)
        return match.group(1) if match else "unknown"

    try:
        compiler = subprocess.run(
            [cache_value("CMAKE_CXX_COMPILER"), "--version"],
            capture_output=True, text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = cache_value("CMAKE_CXX_COMPILER")
    commit = "unknown (not a git checkout)"
    if (REPO / ".git").exists():
        result = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(REPO)).encode())
            digest.update(path.read_bytes())
    spec = WORKLOADS[workload]
    return {
        "workload": workload,
        "nproc": os.cpu_count(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "compiler": compiler,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workers": WORKERS,
        "connections": CONNECTIONS if spec["kind"] == "daemon" else 0,
        "warmup_instrs": spec["warmup"],
        **info,
    }


# ---- Correctness bookkeeping ----------------------------------------------

class Tally:
    """Operations attempted and failed, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.lock = threading.Lock()

    def record(self, ok, reason=""):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)


def job_id(preset, benchmark, instrs, warmup, seed):
    """Also the prefix of the job's result-store key."""
    return f"{preset}|{benchmark}|{instrs}|{warmup}|{seed}"


def expected_key(job):
    """expected.json key: trace:<stem> packs replay <stem>'s synthetic
    stream, and the run seed only keys them, so both drop out."""
    preset, benchmark, instrs, warmup, _ = job.split("|")
    return "|".join([preset, benchmark.removeprefix("trace:"), instrs, warmup])


def check_counters(tally, expected, job, counters, label):
    want = expected.get(expected_key(job))
    got = [counters[name] for name in CHECKED_COUNTERS]
    tally.record(want is not None and got == want,
                 f"{label} {job}: counters {got} != expected {want}")


def simulated_fields(value, prefix=""):
    """Flattened result document without its host-timing fields."""
    out = {}
    if isinstance(value, dict):
        for key, item in value.items():
            if not (prefix == "" and key == "host"):
                out.update(simulated_fields(item, f"{prefix}{key}."))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            out.update(simulated_fields(item, f"{prefix}{index}."))
    else:
        key = prefix.rstrip(".")
        if not any(marker in key.lower() for marker in TIMING_MARKERS):
            out[key] = value
    return out


# ---- Sweeps --------------------------------------------------------------

def sweep_jobs(workload, seed):
    """Seed-derived job list of a sweep workload, in submission order.
    The seed shuffles the benchmarks and picks the budget.  The shuffle
    does not reach the run, because SimService::submit_batch groups a
    batch by benchmark name.  The preset order stays fixed: which of a
    benchmark's Ring and Conv jobs starts first alone moves
    sweep_compute's makespan by about 10 %."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    benchmarks = list(spec["benchmarks"])
    rng.shuffle(benchmarks)
    instrs = spec["instrs"] + BUDGET_STEP * rng.randrange(BUDGET_CHOICES)
    return list(PRESETS), benchmarks, instrs


def write_sweep_spec(path, workload, presets, benchmarks, instrs, warmup):
    path.write_text(json.dumps({
        "sweep_schema": 1,
        "name": workload,
        "axes": [{"field": "preset", "values": presets}],
        "benchmarks": benchmarks,
        "run": {"instrs": instrs, "warmup": warmup, "seed": SYNTH_SEED},
    }, indent=1) + "\n")


def read_tsv_store(path):
    """Store key -> counters, from a TSV result store."""
    results = {}
    for line in Path(path).read_text().splitlines():
        fields = line.split("\t")
        if len(fields) != 3 + len(TSV_COUNTERS) + 1:
            raise BenchError(f"malformed store line in {path}: {line[:80]}")
        results[fields[0]] = {name: int(value) for name, value
                              in zip(TSV_COUNTERS, fields[3:-1])}
    return results


def checkpoint_state(directory):
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in Path(directory).iterdir()}


class Sweep:
    """One sweep workload at one seed: its spec file, set-up and rounds."""

    def __init__(self, bins, workload, seed, run_dir, tally, expected):
        self.bins, self.run_dir = bins, run_dir
        self.tally, self.expected = tally, expected
        self.warmup = WORKLOADS[workload]["warmup"]
        self.presets, self.benchmarks, self.instrs = sweep_jobs(workload, seed)
        self.jobs = [job_id(p, b, self.instrs, self.warmup, SYNTH_SEED)
                     for p in self.presets for b in self.benchmarks]
        self.spec_path = run_dir / "sweep.json"
        write_sweep_spec(self.spec_path, workload, self.presets,
                         self.benchmarks, self.instrs, self.warmup)
        self.ck_dir = None

    def sim(self, *args, done_times=None):
        code, seconds, rss_mb, text = run_timed(
            [str(self.bins["sim"]), "--sweep", str(self.spec_path),
             f"threads={WORKERS}", *args], clean_env(), done_times)
        if code != 0:
            raise BenchError(f"ringclu_sim --sweep {' '.join(args)} "
                             f"exited {code}")
        return seconds, rss_mb, text

    def setup(self):
        """The warmup-checkpoint-writing pass, SETUP_REPS times into fresh
        directories; returns the median seconds and keeps the last."""
        times = []
        for rep in range(SETUP_REPS):
            if self.ck_dir is not None:
                shutil.rmtree(self.ck_dir)
            self.ck_dir = self.run_dir / f"ck{rep}"
            seconds, _, _ = self.sim(f"--checkpoint-dir={self.ck_dir}",
                                     "backend=memory", "instrs=1")
            times.append(seconds)
        return median(times)

    def round(self, index):
        """One timed sweep into a fresh TSV store, then the same sweep
        once more, served entirely by that store."""
        store = self.run_dir / f"store{index}.tsv"
        before = checkpoint_state(self.ck_dir)
        done_times = []
        seconds, rss_mb, text = self.sim(f"--checkpoint-dir={self.ck_dir}",
                                         "backend=tsv", f"cache={store}",
                                         done_times=done_times)
        self.tally.record(len(done_times) == len(self.jobs),
                          f"round {index}: {len(done_times)} of "
                          f"{len(self.jobs)} jobs reported done")
        hit_s = []
        for _ in range(SWEEP_HIT_RERUNS):
            seconds_hit, _, hit_text = self.sim(
                f"--checkpoint-dir={self.ck_dir}", "backend=tsv",
                f"cache={store}")
            hit_s.append(seconds_hit)
            self.tally.record(f"0 simulated, {len(self.jobs)} from store"
                              in hit_text, f"round {index}: a re-run was "
                              "not served by the store")
        # The sweep's own summary: summed per-job host seconds (restore +
        # measure).  Its instruction count includes restored warmup, so
        # the simulated count comes from the store instead.
        match = re.search(r"throughput: [\d.]+M simulated instrs in "
                          r"([\d.]+)s", text)
        if match is None:
            raise BenchError("ringclu_sim --sweep printed no throughput line")
        self.tally.record(checkpoint_state(self.ck_dir) == before,
                          f"round {index}: a warmup checkpoint was rewritten "
                          "(its restore failed)")
        results = read_tsv_store(store)
        ipcs, committed = [], 0
        for job in self.jobs:
            counters = results.get(f"{job}|v3")
            if counters is None:
                self.tally.record(False, f"round {index}: {job} not stored")
                continue
            check_counters(self.tally, self.expected, job, counters,
                           f"round {index}")
            ipcs.append(counters["committed"] / counters["cycles"])
            committed += counters["committed"]
        return {"wall_s": seconds, "job_s": float(match.group(1)),
                "committed": committed, "rss_mb": rss_mb,
                "ipc_hmean": harmonic_mean(ipcs), "results": results,
                "done_times": done_times, "hit_s": hit_s}


def run_sweep(sweep, seconds):
    setup_s = sweep.setup()
    # Rounds until --seconds are used up; a round that would end well past
    # them is not started.
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(sweep.round(len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) > seconds:
            break
    ipcs = sorted({r["ipc_hmean"] for r in rounds})
    sweep.tally.record(len(ipcs) == 1, f"ipc_hmean differs by round: {ipcs}")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(median([r["wall_s"] for r in rounds]), "s"),
        "sim_mips": metric(sum(r["committed"] for r in rounds) /
                           sum(r["job_s"] for r in rounds) / 1e6, "Minstr/s"),
        "peak_rss_mb": metric(median([r["rss_mb"] for r in rounds]), "MiB"),
        "ipc_hmean": metric(rounds[0]["ipc_hmean"], "instr/cycle"),
    }
    # A sweep submits every job at launch: a job's latency is the time
    # from launch until ringclu_sim reports it done, and a store hit is
    # the re-run of the finished sweep (README, "Latency on the sweeps").
    latencies = [t * 1e3 for r in rounds for t in r["done_times"]]
    metrics["job_p50_ms"] = metric(percentile(latencies, 0.5), "ms")
    metrics["job_p90_ms"] = metric(percentile(latencies, 0.9), "ms")
    metrics["hit_p50_ms"] = metric(median([t * 1e3 for r in rounds
                                           for t in r["hit_s"]]), "ms")
    return metrics, {"rounds": len(rounds), "jobs_per_round": len(sweep.jobs),
                     "budget_instrs": sweep.instrs,
                     "store_reruns": len(rounds) * SWEEP_HIT_RERUNS,
                     "round_wall_s": [r["wall_s"] for r in rounds]}


def probe(bins, run_dir, name, jobs, *args):
    """Runs perfbench_probe over jobs (job ids); returns its document."""
    jobs_path = run_dir / f"{name}_jobs.tsv"
    jobs_path.write_text("".join(
        "\t".join([job] + job.split("|")) + "\n" for job in jobs))
    out = run_dir / f"{name}.json"
    code, _, _, _ = run_timed(
        [str(bins["probe"]), "--jobs", str(jobs_path), "--out", str(out),
         *args], clean_env())
    if not out.is_file():
        raise BenchError(f"perfbench_probe ({name}) exited {code} "
                         "without output")
    return json.loads(out.read_text())


def trace_sweep(sweep):
    """Traced run of a sweep: the same jobs through perfbench_probe, between
    two untraced rounds that give the overhead base.  The probe's set-up
    adds the span pass's warmup checkpoints (their steering policy is the
    timed one, so their names differ) beside the sweep's own, which its
    service pass restores."""
    sweep.setup()
    base = sweep.round(0)
    probe_ck = str(sweep.ck_dir)
    setup_doc = probe(sweep.bins, sweep.run_dir, "probe_setup", sweep.jobs,
                      "--checkpoint-dir", probe_ck, "--write-checkpoints")
    sim_doc = probe(sweep.bins, sweep.run_dir, "probe_sim", sweep.jobs,
                    "--checkpoint-dir", probe_ck,
                    "--store", str(sweep.run_dir / "probe_store.tsv"))
    after = sweep.round(1)
    untraced_mips = (base["committed"] + after["committed"]) / (
        base["job_s"] + after["job_s"]) / 1e6
    untraced = {job: base["results"].get(f"{job}|v3") for job in sweep.jobs}
    layers = probe_layers(sim_doc, setup_doc, sweep.tally, sweep.expected,
                          untraced, untraced_mips)
    layers.update(server_layers(None))
    info = {"rounds": 2, "jobs_per_round": len(sweep.jobs),
            "budget_instrs": sweep.instrs}
    not_applicable = ["server.*: a sweep runs no daemon"]
    return layers, info, {"probe_setup": setup_doc, "probe_sim": sim_doc}, \
        not_applicable


# ---- Daemon ----------------------------------------------------------------

def daemon_plan(seed):
    """Seed-derived fresh-job templates of one round and the pack length."""
    spec = WORKLOADS["daemon_traces"]
    rng = random.Random(f"daemon_traces:{seed}")
    combos = [(p, b) for p in PRESETS for b in spec["benchmarks"]]
    rng.shuffle(combos)
    offset = rng.randrange(BUDGET_CHOICES)
    templates = []
    for i in range(spec["fresh_per_round"]):
        preset, bench = combos[i % len(combos)]
        k = (offset + i // len(combos)) % BUDGET_CHOICES
        templates.append((preset, bench,
                          spec["instrs"] + BUDGET_STEP * k, spec["warmup"]))
    # Far longer than any job reads: recording them is set-up work of a
    # few tenths of a second, as for a user who records whole programs.
    pack_ops = 1000000 + 1000 * rng.randrange(16)
    return templates, pack_ops, rng.randrange(1 << 30)


# Errors of one HTTP call through ringclu_client.request: connection
# failures (OSError), error statuses (ringclu_client.ApiError, a
# RuntimeError), broken responses and undecodable bodies.
CLIENT_ERRORS = (OSError, RuntimeError, ValueError, http.client.HTTPException)


class Daemon:
    """A ringclu_simd process with a TSV store and a journal."""

    def __init__(self, bins, directory, pack_dir):
        if ringclu_client is None:
            raise BenchError("tools/ringclu_client.py is missing")
        directory.mkdir(parents=True)
        self.journal = directory / "journal.jsonl"
        port_file = directory / "port"
        self.stderr = open(directory / "stderr.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [str(bins["simd"]), f"--port-file={port_file}",
             f"--journal={self.journal}", f"threads={WORKERS}",
             "backend=tsv", f"cache={directory / 'store.tsv'}"],
            env=clean_env(RINGCLU_TRACE_DIR=str(pack_dir)),
            stdout=subprocess.DEVNULL, stderr=self.stderr)
        self.server = None
        try:
            self.wait_ready(port_file)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.stderr.close()
            raise

    def wait_ready(self, port_file):
        """Returns once the daemon answers 200."""
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise BenchError("ringclu_simd exited during start-up")
            if time.monotonic() > deadline:
                raise BenchError("ringclu_simd did not answer in time")
            if self.server is None and port_file.is_file():
                text = port_file.read_text().strip()
                if text.isdigit():
                    self.server = f"http://127.0.0.1:{text}"
            if self.server is not None:
                try:
                    self.call("GET", "/v1/server/metrics")
                    return
                except CLIENT_ERRORS:
                    pass
            time.sleep(0.001)

    def call(self, method, path):
        return ringclu_client.request(self.server, method, path,
                                      timeout=HTTP_TIMEOUT_S)

    def peak_rss_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def stop(self):
        """Graceful drain, then wait; kill if it hangs."""
        if self.proc.poll() is None:
            try:
                self.call("POST", "/v1/shutdown")
            except CLIENT_ERRORS:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stderr.close()


class JournalWatch:
    """Reads the daemon's journal for every job's terminal record.

    The client learns from this local file when a job has finished and
    then asks the daemon once.  Polling GET /v1/jobs/{id} at a fixed period
    instead (ringclu_client.wait_for_job) makes the number of requests per
    job grow with the job's duration, and with it the daemon's memory:
    HttpServer keeps one thread per connection until it stops."""

    TERMINAL = ("completed", "failed", "cancelled")

    def __init__(self, path):
        self.path = path
        self.lock = threading.Lock()
        self.handle = None
        self.partial = b""
        self.finished = set()

    def ended(self, job_id):
        """Reads the lines appended since the last call; True once job_id
        has a terminal record."""
        with self.lock:
            if self.handle is None and self.path.is_file():
                self.handle = open(self.path, "rb")
            data = self.handle.read() if self.handle is not None else b""
            if data:
                lines = (self.partial + data).split(b"\n")
                self.partial = lines.pop()
                self.finished.update(
                    record["id"] for record in map(json.loads, lines)
                    if record.get("event") in self.TERMINAL)
            return job_id in self.finished

    def wait(self, job_id):
        deadline = time.monotonic() + HTTP_TIMEOUT_S
        while not self.ended(job_id):
            if time.monotonic() > deadline:
                raise RuntimeError(f"no journal record ended job {job_id}")
            time.sleep(JOURNAL_POLL_S)

    def close(self):
        if self.handle is not None:
            self.handle.close()


class LoadGenerator:
    """Closed loop of CONNECTIONS concurrent clients: each takes the next
    fresh job, waits for its result, then resubmits one finished job.
    Every job costs three requests (POST, status, result) through
    tools/ringclu_client.py, whatever the host's speed."""

    def __init__(self, daemon, journal, templates, hit_seed, tally,
                 expected, spans):
        self.server, self.journal = daemon.server, journal
        self.templates = templates
        self.tally, self.expected = tally, expected
        self.spans = spans
        self.hit_rng = random.Random(hit_seed)
        self.lock = threading.Lock()
        self.finished = []   # (body, job, result doc) of fresh jobs
        self.fresh = []      # per fresh job: (job, latency s, result doc)
        self.hits = []       # latency s per resubmission
        self.errors = 0
        self.requests = 0

    def submit_and_fetch(self, body, job, name):
        """POST, wait, fetch under a root span called name.  Returns
        (latency s, result doc) or None."""
        root = next(SPAN_IDS)
        start = time.perf_counter_ns()
        try:
            daemon_id = self.call("POST", "/v1/jobs", body, root, job)["id"]
            job_path = f"/v1/jobs/{daemon_id}"
            self.journal.wait(daemon_id)
            while True:
                state = self.call("GET", job_path, None, root, job)["state"]
                if state in JournalWatch.TERMINAL:
                    break
                time.sleep(JOURNAL_POLL_S)
            if state != "completed":
                raise RuntimeError(f"job ended {state}")
            doc = self.call("GET", job_path + "/result", None, root, job)
            end = time.perf_counter_ns()
            if self.spans is not None:
                self.spans.append({"id": root, "name": name,
                                   "start_ns": start, "end_ns": end,
                                   "parent": 0, "job": job})
            return (end - start) / 1e9, doc
        except CLIENT_ERRORS as error:
            with self.lock:
                self.errors += 1
            self.tally.record(False, f"{job}: {error}")
            return None

    def call(self, method, path, body, parent, job):
        """One request; records a span when spans is a list."""
        start = time.perf_counter_ns()
        try:
            return ringclu_client.request(self.server, method, path, body,
                                          timeout=HTTP_TIMEOUT_S)
        finally:
            end = time.perf_counter_ns()
            with self.lock:
                self.requests += 1
            if self.spans is not None:
                name = "http.post" if method == "POST" else (
                    "http.result" if path.endswith("/result")
                    else "http.status")
                self.spans.append({"id": next(SPAN_IDS), "name": name,
                                   "start_ns": start, "end_ns": end,
                                   "parent": parent, "job": job})

    def client(self, queue):
        while True:
            with self.lock:
                if not queue:
                    return
                body, job = queue.pop(0)
            got = self.submit_and_fetch(body, job, "client.job")
            if got is None:
                continue
            latency, doc = got
            check_counters(self.tally, self.expected, job, doc["counters"],
                           "fresh")
            # The daemon's own timer runs inside the client's.
            self.tally.record(latency >= doc["host"]["wall_seconds"],
                              f"{job}: latency {latency:.6f} s is below the "
                              "daemon's wall_seconds")
            with self.lock:
                self.fresh.append((job, latency, doc))
                self.finished.append((body, job, doc))
                hit_body, hit_job, want = self.hit_rng.choice(self.finished)
            got = self.submit_and_fetch(hit_body, hit_job, "client.hit")
            if got is None:
                continue
            latency, doc = got
            self.tally.record(
                simulated_fields(doc) == simulated_fields(want),
                f"{hit_job}: store hit differs from the fresh result")
            with self.lock:
                self.hits.append(latency)

    def round(self, index):
        """One round of fresh jobs; returns its wall seconds."""
        queue = []
        for i, (preset, bench, instrs, warmup) in enumerate(self.templates):
            run_seed = 1 + index * 1000 + i
            body = {"config": preset, "benchmark": f"trace:{bench}",
                    "run": {"instrs": instrs, "warmup": warmup,
                            "seed": run_seed},
                    "client": "perfbench"}
            queue.append((body, job_id(preset, f"trace:{bench}", instrs,
                                       warmup, run_seed)))
        start = time.perf_counter()
        threads = [threading.Thread(target=self.client, args=(queue,))
                   for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start


def daemon_setup(bins, run_dir, pack_ops):
    """Records the packs and starts the daemon, SETUP_REPS times; returns
    (median seconds, live daemon, pack dir)."""
    benchmarks = WORKLOADS["daemon_traces"]["benchmarks"]
    times = []
    daemon = None
    for rep in range(SETUP_REPS):
        if daemon is not None:
            daemon.stop()
        pack_dir = run_dir / f"packs{rep}"
        pack_dir.mkdir()
        start = time.perf_counter()
        for bench in benchmarks:
            code, _, _, _ = run_timed(
                [str(bins["trace"]), "record", bench,
                 str(pack_dir / f"{bench}.rclp"), f"ops={pack_ops}",
                 f"seed={SYNTH_SEED}"], clean_env())
            if code != 0:
                raise BenchError(f"ringclu_trace record {bench} exited {code}")
        daemon = Daemon(bins, run_dir / f"daemon{rep}", pack_dir)
        times.append(time.perf_counter() - start)
    return median(times), daemon, pack_dir


def offline_check(bins, tally, pack_dir, job, doc):
    """A daemon single-run result must equal `ringclu_sim --json`."""
    preset, bench, instrs, warmup, seed = job.split("|")
    code, _, _, text = run_timed(
        [str(bins["sim"]), "--json", preset, bench, f"instrs={instrs}",
         f"warmup={warmup}", f"seed={seed}"],
        clean_env(RINGCLU_TRACE_DIR=str(pack_dir)))
    ok = code == 0 and simulated_fields(json.loads(text)) == \
        simulated_fields(doc)
    tally.record(ok, f"{job}: daemon result differs from ringclu_sim --json")


def drive_daemon(bins, seed, seconds, run_dir, tally, expected, spans):
    templates, pack_ops, hit_seed = daemon_plan(seed)
    setup_s, daemon, pack_dir = daemon_setup(bins, run_dir, pack_ops)
    journal = JournalWatch(daemon.journal)
    try:
        load = LoadGenerator(daemon, journal, templates, hit_seed, tally,
                             expected, spans)
        walls = [load.round(index)
                 for index in range(max(2, round(seconds / DAEMON_ROUND_S)))]
        rss_mb = daemon.peak_rss_mb()
        gauges = daemon.call("GET", "/v1/server/metrics")["gauges"]
    except CLIENT_ERRORS as error:
        raise BenchError(f"ringclu_simd: {error}") from error
    finally:
        journal.close()
        daemon.stop()
    if not load.fresh:
        raise BenchError("no daemon job finished")
    pick = random.Random(hit_seed).randrange(len(load.fresh))
    offline_check(bins, tally, pack_dir, load.fresh[pick][0],
                  load.fresh[pick][2])
    by_round = {}
    for job, _, doc in load.fresh:
        round_index = (int(job.split("|")[4]) - 1) // 1000
        c = doc["counters"]
        by_round.setdefault(round_index, []).append(c["committed"] /
                                                    c["cycles"])
    complete = [harmonic_mean(v) for v in by_round.values()
                if len(v) == len(templates)]
    tally.record(len(set(complete)) == 1,
                 f"ipc_hmean differs by round: {sorted(set(complete))}")
    return {
        "setup_s": setup_s, "walls": walls, "rss_mb": rss_mb,
        "gauges": gauges, "load": load, "daemon": daemon,
        "pack_dir": pack_dir, "templates": templates,
        "ipc_hmean": complete[0] if complete else 0.0,
    }


def daemon_sim_mips(fresh):
    """Simulated instructions (warmup runs cold here) per job-second."""
    instrs = sum(doc["host"]["total_committed"] for _, _, doc in fresh)
    wall = sum(doc["host"]["wall_seconds"] for _, _, doc in fresh)
    return instrs / wall / 1e6


def daemon_info(d):
    """Host-protocol entries of a daemon run."""
    load = d["load"]
    return {"rounds": len(d["walls"]), "round_wall_s": d["walls"],
            "jobs_per_round": len(d["templates"]),
            "fresh_jobs": len(load.fresh), "resubmissions": len(load.hits),
            "http_requests": load.requests,
            "requests_per_job": load.requests / max(
                len(load.fresh) + len(load.hits), 1),
            "budget_instrs": sorted({t[2] for t in d["templates"]})}


def run_daemon(bins, seed, seconds, run_dir, tally, expected):
    d = drive_daemon(bins, seed, seconds, run_dir, tally, expected, None)
    load = d["load"]
    latencies = [latency * 1e3 for _, latency, _ in load.fresh]
    metrics = {
        "setup_s": metric(d["setup_s"], "s"),
        "wall_s": metric(median(d["walls"]), "s"),
        "sim_mips": metric(daemon_sim_mips(load.fresh), "Minstr/s"),
        "peak_rss_mb": metric(d["rss_mb"], "MiB"),
        "ipc_hmean": metric(d["ipc_hmean"], "instr/cycle"),
        "job_p50_ms": metric(percentile(latencies, 0.5), "ms"),
        "job_p90_ms": metric(percentile(latencies, 0.9), "ms"),
        "hit_p50_ms": metric(percentile([h * 1e3 for h in load.hits], 0.5),
                             "ms"),
    }
    return metrics, daemon_info(d)


def server_layers(d):
    """server.* metrics from the client spans of a traced daemon run."""
    if d is None:
        names = ["post_ms", "result_get_ms", "polls_per_job", "overhead_ms",
                 "journal_bytes_per_job", "store_hits", "coalesced",
                 "http_errors"]
        units = ["ms", "ms", "count", "ms", "bytes", "count", "count",
                 "count"]
        return {f"server.{n}": metric(0, u) for n, u in zip(names, units)}
    load, spans = d["load"], d["load"].spans
    posts = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans
             if s["name"] == "http.post"]
    gets = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans
            if s["name"] == "http.result"]
    fresh_roots = {s["id"] for s in spans if s["name"] == "client.job"}
    polls = sum(1 for s in spans
                if s["name"] == "http.status" and s["parent"] in fresh_roots)
    overhead = [latency * 1e3 - doc["host"]["wall_seconds"] * 1e3
                for _, latency, doc in load.fresh]
    gauges = d["gauges"]
    journal = d["daemon"].journal
    jobs_total = max(gauges.get("jobs_total", 0), 1)
    return {
        "server.post_ms": metric(median(posts), "ms"),
        "server.result_get_ms": metric(median(gets), "ms"),
        "server.polls_per_job": metric(polls / max(len(load.fresh), 1),
                                       "count"),
        "server.overhead_ms": metric(median(overhead), "ms"),
        "server.journal_bytes_per_job": metric(
            journal.stat().st_size / jobs_total if journal.is_file() else 0,
            "bytes"),
        "server.store_hits": metric(gauges.get("store_hits", 0), "count"),
        "server.coalesced": metric(gauges.get("coalesced_submissions", 0),
                                   "count"),
        "server.http_errors": metric(load.errors, "count"),
    }


def trace_daemon(bins, seed, seconds, run_dir, tally, expected):
    """Traced daemon run: the load with a span per HTTP call for half the
    time, then the first round's fresh jobs through perfbench_probe (pack
    decode, core, steering, store reads beside writes)."""
    spans = []
    d = drive_daemon(bins, seed, seconds / 2, run_dir, tally, expected, spans)
    load = d["load"]
    untraced_mips = daemon_sim_mips(load.fresh)
    jobs = [job for job, _, _ in load.fresh
            if (int(job.split("|")[4]) - 1) // 1000 == 0]
    sim_doc = probe(bins, run_dir, "probe_sim", jobs,
                    "--trace-dir", str(d["pack_dir"]),
                    "--store", str(run_dir / "probe_store.tsv"), "--resubmit")
    untraced = {job: doc["counters"] for job, _, doc in load.fresh}
    layers = probe_layers(sim_doc, None, tally, expected, untraced,
                          untraced_mips)
    layers.update(server_layers(d))
    info = {**daemon_info(d), "probe_jobs": len(jobs)}
    not_applicable = ["harness.checkpoint_*: the daemon runs without a "
                      "checkpoint directory"]
    return layers, info, {"probe_sim": sim_doc, "http": {"spans": spans}}, \
        not_applicable


# ---- Per-layer analysis ----------------------------------------------------

def self_times(spans):
    """Span id -> self time in ns: duration minus what its children cover
    (interval children by their union, aggregate children by busy time)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        duration = span["end_ns"] - span["start_ns"]
        covered = 0
        intervals = []
        for child in ([] if span.get("aggregate")
                      else children.get(span["id"], [])):
            if child.get("aggregate"):
                covered += child["end_ns"] - child["start_ns"]
            else:
                intervals.append((max(child["start_ns"], span["start_ns"]),
                                  min(child["end_ns"], span["end_ns"])))
        cursor = span["start_ns"]
        for lo, hi in sorted(intervals):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = duration - covered
    return result


def span_ns(span):
    return span["end_ns"] - span["start_ns"]


def check_probe_result(tally, expected, untraced, job, counters, label):
    """A probe result must hold the expected and the untraced counters."""
    check_counters(tally, expected, job, counters, label)
    if untraced.get(job) is not None:
        tally.record(all(untraced[job][n] == counters[n]
                         for n in TSV_COUNTERS),
                     f"{label} {job}: counters differ from the untraced "
                     "run")


def service_layers(service, workers):
    """Job overhead and worker busy fraction of the probe's service pass.

    A worker takes its next job as soon as it has finished the last one,
    so a job's time on its worker runs from the previous completion on
    that worker (or from the start of dispatch) to its own.  What of it is
    not the simulator's wall_seconds is the harness's overhead."""
    by_worker = {}
    for job in service["jobs"]:
        if job["ok"]:
            wall = json.loads(job["result"])["host"]["wall_seconds"]
            by_worker.setdefault(job["worker"], []).append(
                (job["complete_ns"], wall))
    overheads, sim_s, end_ns = [], 0.0, service["start_ns"]
    for jobs in by_worker.values():
        previous = service["start_ns"]
        for complete_ns, wall in sorted(jobs):
            overheads.append((complete_ns - previous) / 1e6 - wall * 1e3)
            sim_s += wall
            previous = complete_ns
        end_ns = max(end_ns, previous)
    pass_s = (end_ns - service["start_ns"]) / 1e9
    return median(overheads), sim_s / (workers * pass_s) if pass_s else 0.0


def probe_layers(sim_doc, setup_doc, tally, expected, untraced,
                 untraced_mips):
    """Per-layer metrics from a perfbench_probe run: core, trace, steer and
    checkpoint restore from its span pass, the other harness metrics from
    its service pass."""
    for error in sim_doc["errors"]:
        tally.record(False, f"probe: {error}")
    for job in sim_doc["service"]["jobs"]:
        if job["ok"]:
            check_probe_result(tally, expected, untraced, job["id"],
                               json.loads(job["result"])["counters"],
                               "probe service")
    spans = sim_doc["spans"]
    selfs = self_times(spans)
    by_job = {}
    for span in spans:
        by_job.setdefault(span["job"], []).append(span)

    totals = dict.fromkeys(TSV_COUNTERS, 0)
    shares_max, shares_min = [], []
    restore_ms, ck_bytes = [], []
    layer_ns = dict.fromkeys(["trace.next", "steer.steer", "core.warmup",
                              "core.measure", "measure_self"], 0)
    layer_calls = dict.fromkeys(["trace.next", "steer.steer"], 0)
    sim_instrs, sim_wall, worst_gap = 0, 0.0, 0.0
    jobs_ok = [job for job in sim_doc["jobs"] if job["ok"]]
    for job in jobs_ok:
        result = json.loads(job["result"])
        counters, host = result["counters"], result["host"]
        check_probe_result(tally, expected, untraced, job["id"], counters,
                           "probe")
        for name in TSV_COUNTERS:
            totals[name] += counters[name]
        shares_max.append(result["metrics"]["dispatch_share_max"])
        shares_min.append(result["metrics"]["dispatch_share_min"])
        warmup = int(job["id"].split("|")[3])
        sim_instrs += counters["committed"] + (0 if job["restored"]
                                               else warmup)
        sim_wall += host["wall_seconds"]
        if job["checkpoint_bytes"]:
            ck_bytes.append(job["checkpoint_bytes"])

        job_spans = by_job[job["id"]]
        for span in job_spans:
            name = span["name"]
            if name in layer_calls:
                layer_calls[name] += span["calls"]
                # Less the clock read each timed call carries.
                layer_ns[name] += max(0.0, span_ns(span) - span["calls"] *
                                      sim_doc["clock_read_ns"])
            elif name in layer_ns:
                layer_ns[name] += span_ns(span)
            if name == "core.measure":
                layer_ns["measure_self"] += selfs[span["id"]]
            if name == "checkpoint.restore":
                restore_ms.append(span_ns(span) / 1e6)
        # The simulator times restore + measure (+ warmup when not
        # restored) itself: the self times below those spans must add up
        # to that independent measurement.
        phase_ids = {s["id"] for s in job_spans if s["name"] in
                     ("checkpoint.restore", "core.warmup", "core.measure")}
        timed = sum(selfs[s["id"]] for s in job_spans
                    if s["id"] in phase_ids or s["parent"] in phase_ids)
        processor_gap = abs(timed / 1e9 - host["wall_seconds"]) / \
            host["wall_seconds"]
        worst_gap = max(worst_gap, processor_gap)
        tally.record(processor_gap <= SPAN_VS_PROCESSOR_TOL,
                     f"probe {job['id']}: self times miss the simulator's "
                     f"own wall_seconds by {processor_gap:.2%}")

    if setup_doc is not None:
        layer_ns["core.warmup"] += sum(span_ns(s) for s in setup_doc["spans"]
                                       if s["name"] == "core.warmup")
    sim_ns = max(sum(span_ns(s) for s in spans
                     if s["name"] in ("core.warmup", "core.measure")), 1)
    cycles = max(totals["cycles"], 1)
    committed = max(totals["committed"], 1)
    comms = max(totals["comms"], 1)
    store = sim_doc["store"]
    job_overhead_ms, worker_busy_frac = service_layers(sim_doc["service"],
                                                       sim_doc["workers"])
    traced_mips = sim_instrs / sim_wall / 1e6 if sim_wall else 0.0
    restores = sum(1 for job in jobs_ok if job["restored"])
    attempted_restores = sum(1 for s in spans
                             if s["name"] == "checkpoint.restore")
    return {
        "trace.ops": metric(layer_calls["trace.next"], "count"),
        "trace.ns_per_op": metric(layer_ns["trace.next"] /
                                  max(layer_calls["trace.next"], 1), "ns"),
        "trace.busy_frac": metric(layer_ns["trace.next"] / sim_ns,
                                  "fraction"),
        "core.ns_per_cycle": metric(layer_ns["core.measure"] / cycles, "ns"),
        "core.ns_per_instr": metric(layer_ns["core.measure"] / committed,
                                    "ns"),
        "core.measure_self_s": metric(layer_ns["measure_self"] / 1e9, "s"),
        "core.warmup_s": metric(layer_ns["core.warmup"] / 1e9, "s"),
        "core.cycles": metric(totals["cycles"], "count"),
        "core.cpi": metric(totals["cycles"] / committed, "cycle/instr"),
        "core.rob_stall_frac": metric(totals["rob_stall_cycles"] / cycles,
                                      "fraction"),
        "core.avg_rob_occupancy": metric(totals["rob_occupancy_sum"] /
                                         cycles, "entries"),
        "steer.calls": metric(layer_calls["steer.steer"], "count"),
        "steer.ns_per_call": metric(layer_ns["steer.steer"] /
                                    max(layer_calls["steer.steer"], 1), "ns"),
        "steer.busy_frac": metric(layer_ns["steer.steer"] / sim_ns,
                                  "fraction"),
        "steer.stall_frac": metric(totals["steer_stall_cycles"] / cycles,
                                   "fraction"),
        "steer.dispatch_share_max": metric(
            statistics.fmean(shares_max) if shares_max else 0.0, "fraction"),
        "steer.dispatch_share_min": metric(
            statistics.fmean(shares_min) if shares_min else 0.0, "fraction"),
        "interconnect.comms_per_instr": metric(totals["comms"] / committed,
                                               "comm/instr"),
        "interconnect.avg_distance": metric(
            totals["comm_distance_sum"] / comms, "hops"),
        "interconnect.avg_contention": metric(
            totals["comm_contention_sum"] / comms, "cycles"),
        "mem.l1d_miss_rate": metric(
            totals["l1d_misses"] / max(totals["l1d_accesses"], 1),
            "fraction"),
        "mem.l2_miss_rate": metric(
            totals["l2_misses"] / max(totals["l2_accesses"], 1), "fraction"),
        "mem.lsq_stall_frac": metric(totals["lsq_stall_cycles"] / cycles,
                                     "fraction"),
        "cluster.nready_avg": metric(totals["nready_sum"] / cycles, "instrs"),
        "cluster.avg_regs_in_use": metric(totals["regs_in_use_sum"] / cycles,
                                          "regs"),
        "cluster.copy_evictions": metric(totals["copy_evictions"], "count"),
        "bpred.mispredict_rate": metric(
            totals["mispredicts"] / max(totals["branches"], 1), "fraction"),
        "harness.checkpoint_restore_ms": metric(median(restore_ms), "ms"),
        "harness.checkpoint_bytes": metric(
            statistics.fmean(ck_bytes) if ck_bytes else 0, "bytes"),
        "harness.checkpoint_restored_frac": metric(
            restores / attempted_restores if attempted_restores else 0.0,
            "fraction"),
        "harness.store_get_us": metric(
            store["get_ns"] / max(store["gets"], 1) / 1e3, "us"),
        "harness.store_put_us": metric(
            store["put_ns"] / max(store["puts"], 1) / 1e3, "us"),
        "harness.store_hit_frac": metric(
            store["hits"] / max(store["gets"], 1), "fraction"),
        "harness.job_overhead_ms": metric(job_overhead_ms, "ms"),
        "harness.worker_busy_frac": metric(worker_busy_frac, "fraction"),
        "probe.overhead_frac": metric(
            1.0 - traced_mips / untraced_mips if untraced_mips else 0.0,
            "fraction"),
        "probe.self_time_gap_frac": metric(worst_gap, "fraction"),
    }


def span_summary(docs):
    """Lines of per-span-name total and self time over a traced run."""
    lines = []
    for name, doc in docs.items():
        if not isinstance(doc, dict) or "spans" not in doc:
            continue
        selfs = self_times(doc["spans"])
        rows = {}
        for span in doc["spans"]:
            row = rows.setdefault(span["name"], [0, 0, 0])
            row[0] += 1
            row[1] += span_ns(span)
            row[2] += selfs[span["id"]]
        lines.append(f"{name}: span  count  total_s  self_s")
        for span_name, (count, total, own) in sorted(rows.items()):
            lines.append(f"  {span_name:20s} {count:6d} {total / 1e9:9.3f} "
                         f"{own / 1e9:9.3f}")
    return lines


# ---- Expected counters -----------------------------------------------------

def record_expected(bins):
    """Simulates every (preset, benchmark, budget) any seed can ask for and
    writes the checked counters to expected.json."""
    work_dir = build_dir() / "record_expected"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    entries = {}
    for workload, spec in WORKLOADS.items():
        for k in range(BUDGET_CHOICES):
            instrs = spec["instrs"] + BUDGET_STEP * k
            spec_path = work_dir / f"{workload}{k}.json"
            store = work_dir / f"{workload}{k}.tsv"
            write_sweep_spec(spec_path, workload, PRESETS, spec["benchmarks"],
                             instrs, spec["warmup"])
            code, _, _, _ = run_timed(
                [str(bins["sim"]), "--sweep", str(spec_path), "backend=tsv",
                 f"cache={store}", f"threads={WORKERS}"], clean_env())
            if code != 0:
                raise BenchError(f"recording {workload} budget {instrs} "
                                 f"exited {code}")
            for key, counters in read_tsv_store(store).items():
                preset, bench, instrs_, warmup = key.split("|")[:4]
                entries[f"{preset}|{bench}|{instrs_}|{warmup}"] = \
                    [counters[name] for name in CHECKED_COUNTERS]
            log(f"recorded {workload} at {instrs} instrs")
    EXPECTED_PATH.write_text(json.dumps({
        "about": "Simulated counters per preset|benchmark|instrs|warmup at "
                 f"generator seed {SYNTH_SEED}; regenerate with "
                 "`python3 perfbench/run.py --record-expected` only after "
                 "an intended change of simulated behaviour.",
        "counters": CHECKED_COUNTERS,
        "entries": dict(sorted(entries.items())),
    }, indent=1) + "\n")
    shutil.rmtree(work_dir)


# ---- Main ------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if not args.record_expected and args.workload is None:
        parser.error("--workload is required")

    try:
        bins = build()
        if args.record_expected:
            record_expected(bins)
            return 0
        expected = json.loads(EXPECTED_PATH.read_text())["entries"]
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        run_dir = build_dir() / "runs" / f"{tag}-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        loadavg_start = list(os.getloadavg())
        cpu_start = cpu_times()
        tally = Tally()
        kind = WORKLOADS[args.workload]["kind"]
        traces, not_applicable = None, []
        if kind == "sweep":
            sweep = Sweep(bins, args.workload, args.seed, run_dir, tally,
                          expected)
            if args.trace:
                metrics, info, traces, not_applicable = trace_sweep(sweep)
            else:
                metrics, info = run_sweep(sweep, args.seconds)
        elif args.trace:
            metrics, info, traces, not_applicable = trace_daemon(
                bins, args.seed, args.seconds, run_dir, tally, expected)
        else:
            metrics, info = run_daemon(bins, args.seed, args.seconds, run_dir,
                                       tally, expected)
        host = host_protocol(bins, args.workload, info)
        host["seed"] = args.seed
        host["loadavg_start"] = loadavg_start
        host["loadavg_end"] = list(os.getloadavg())
        cpu_end = cpu_times()
        # Time the hypervisor gave this VM's CPUs to others: a noisy
        # neighbour the load average cannot see.
        host["cpu_steal_frac"] = (cpu_end[1] - cpu_start[1]) / max(
            cpu_end[0] - cpu_start[0], 1)
    except BenchError as error:
        log(f"error: {error}")
        return 1

    for reason in tally.reasons:
        log(f"FAILED {reason}")
    report_dir = build_dir() / "reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    report = {"host": host, "metrics": metrics, "attempted": tally.attempted,
              "failed": tally.failed, "failures": tally.reasons,
              "not_applicable": not_applicable}
    (report_dir / f"{tag}.json").write_text(json.dumps(report, indent=1))
    if traces is not None:
        (report_dir / f"{tag}-spans.json").write_text(json.dumps(traces))
        for line in span_summary(traces):
            print(line)
        for line in not_applicable:
            print(f"not applicable, reported as 0: {line}")
    shutil.rmtree(run_dir)
    print("host: " + json.dumps(host))
    for name, value in metrics.items():
        print(f"  {name:34s} {value['value']:.6g} {value['unit']}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
