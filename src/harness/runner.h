#pragma once

/// \file runner.h
/// The RINGCLU_* run options every batch entry point shares (the CLI's
/// --sweep, the bench drivers, the daemon), and the default benchmark
/// list.  SimService (sim_service.h) consumes RunnerOptions directly.
///
/// Batch runs share one result store (bench_cache/results.tsv by
/// default).  Results are keyed by (config name, benchmark, instruction
/// budget, warmup, seed, schema), so changing any parameter — or bumping
/// kSimSchemaVersion after a simulator change — re-runs transparently.
///
/// Environment knobs (the full RINGCLU_* table lives in README.md):
///   RINGCLU_INSTRS          measured instructions per run (default 200000)
///   RINGCLU_WARMUP          warmup instructions           (default instrs/10)
///   RINGCLU_SEED            workload seed                 (default 42)
///   RINGCLU_THREADS         worker threads                (default hw threads)
///   RINGCLU_FORCE           ignore the cache when set to 1
///   RINGCLU_VERBOSE         progress lines on stderr (default 1)
///   RINGCLU_CACHE           tsv cache file (default
///                           bench_cache/results.tsv; memory ignores it)
///   RINGCLU_CACHE_BACKEND   result store: tsv | memory (default tsv)
///   RINGCLU_BENCHMARKS      comma-separated benchmark subset (validated)
///   RINGCLU_INTERVAL        metric-sampling period in committed
///                           instructions (default 0 = off)
///   RINGCLU_METRICS         interval-metric sink, "<kind>:<path>" with
///                           kind jsonl | csv (e.g. jsonl:metrics.jsonl);
///                           needs RINGCLU_INTERVAL > 0.  Sampled runs
///                           always simulate (never cache hits).
///   RINGCLU_CHECKPOINT_DIR  checkpoint directory; set to reuse warmup
///                           checkpoints across sweep points (default off)
///   RINGCLU_SNAPSHOT_INTERVAL  crash-resume snapshot cadence in committed
///                           instructions (default 0 = off; needs
///                           RINGCLU_CHECKPOINT_DIR)
///   RINGCLU_RESUME          resume interrupted runs from their snapshots
///                           when set to 1
///
/// Malformed knob values (non-numeric counts, overflow, negative where a
/// count is expected, unknown booleans) print a diagnostic naming the
/// variable and exit with status 2.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/result_store.h"
#include "harness/sim_job.h"

namespace ringclu {

/// The RINGCLU_THREADS default: one worker per hardware thread (2 when the
/// hardware concurrency is unknown).
[[nodiscard]] int default_thread_count();

struct RunnerOptions {
  std::uint64_t instrs = 200000;
  /// Defaults to instrs/10, tracking a designated-initializer instrs (the
  /// documented RINGCLU_WARMUP default; 20000 for the default budget).
  std::uint64_t warmup = instrs / 10;
  std::uint64_t seed = 42;
  int threads = default_thread_count();
  bool force = false;
  bool verbose = true;
  StoreBackend cache_backend = StoreBackend::Tsv;
  std::string cache_path = "bench_cache/results.tsv";
  /// Metric-sampling period (committed instructions); 0 = off.
  std::uint64_t interval = 0;
  /// Interval-metric sink spec, "<jsonl|csv>:<path>"; "" = none.
  std::string metrics_sink = {};
  /// Checkpoint directory (RINGCLU_CHECKPOINT_DIR); "" disables
  /// checkpointing.  With a directory set, workers restore shared warmup
  /// checkpoints instead of re-simulating warmup, and write one per
  /// (warmup-relevant config, workload) on first need.
  std::string checkpoint_dir = {};
  /// Crash-resume snapshot cadence (RINGCLU_SNAPSHOT_INTERVAL) in
  /// committed instructions; 0 disables.  Needs checkpoint_dir.
  std::uint64_t snapshot_interval = 0;
  /// Resume interrupted runs from mid-measure snapshots (RINGCLU_RESUME).
  bool resume = false;

  /// The run-control slice, as SimService consumes it.
  [[nodiscard]] RunParams run_params() const {
    RunParams params;
    params.instrs = instrs;
    params.warmup = warmup;
    params.seed = seed;
    params.interval = interval;
    params.snapshot_interval = snapshot_interval;
    return params;
  }

  /// The checkpoint slice, as SimService consumes it.
  [[nodiscard]] CheckpointOptions checkpoint_options() const {
    CheckpointOptions checkpoint;
    checkpoint.dir = checkpoint_dir;
    checkpoint.resume = resume;
    return checkpoint;
  }

  /// The interval-metric sink metrics_sink names, or nullptr when
  /// streaming is off (no sink spec, or interval == 0: a sink built
  /// without samples would leave an empty output file, and a CSV sink's
  /// flush could clobber a previous series).  The sink must outlive every
  /// service that streams into it.  \pre metrics_sink is empty or a valid
  /// "<kind>:<path>" spec (from_env validates it).
  [[nodiscard]] std::unique_ptr<MetricSink> build_metric_sink() const;

  /// Reads the RINGCLU_* environment overrides.  Exits with a diagnostic
  /// on an unknown RINGCLU_CACHE_BACKEND value.
  [[nodiscard]] static RunnerOptions from_env();
};

/// Prints one stderr warning per RINGCLU_* variable no part of the
/// project reads (a typo or a retired knob).  from_env() calls it; modes
/// that read no RunnerOptions call it directly.
void warn_unknown_env();

/// Returns an error message naming the first unknown benchmark in
/// \p names (and listing the valid ones), or nullopt when all are known.
[[nodiscard]] std::optional<std::string> validate_benchmark_names(
    const std::vector<std::string>& names);

/// All 26 benchmark names, or the RINGCLU_BENCHMARKS subset.  Exits with
/// a diagnostic (listing the valid names) when the subset contains an
/// unknown benchmark.
[[nodiscard]] std::vector<std::string> default_benchmarks();

}  // namespace ringclu
