#pragma once

/// \file sim_job.h
/// The unit of work the simulation service schedules: one
/// (architecture, benchmark, run-parameters) triple, plus the cache-key
/// function that identifies equivalent jobs.  Two jobs with the same key
/// are guaranteed to produce bit-identical counters (the simulator is
/// deterministic), which is what makes duplicate coalescing and result
/// caching sound.

#include <cstdint>
#include <string>
#include <string_view>

#include "core/arch_config.h"
#include "core/sim_result.h"  // kSimSchemaVersion
#include "harness/scheduler.h"

namespace ringclu {

class MetricSink;

/// Run-control parameters.  instrs/warmup/seed determine the simulated
/// numbers and are part of the cache key; interval only controls
/// time-resolved sampling (sampling is read-only and never changes the
/// end-of-run counters), so it is deliberately outside the key.
struct RunParams {
  std::uint64_t instrs = 200000;  ///< measured instructions
  /// Warmup instructions (not measured).  Defaults to instrs/10 so a
  /// designated-initializer instrs override scales warmup with it, exactly
  /// like the documented RINGCLU_WARMUP default (20000 for the default
  /// 200000-instruction budget).
  std::uint64_t warmup = instrs / 10;
  std::uint64_t seed = 42;        ///< workload seed
  /// Metric-sampling period in committed instructions; 0 disables
  /// sampling (the default: byte-identical goldens, zero overhead).
  std::uint64_t interval = 0;
  /// Crash-resume snapshot cadence in committed instructions; 0 disables.
  /// Snapshotting is read-only (bit-identical results) and, like interval,
  /// outside the cache key.
  std::uint64_t snapshot_interval = 0;
};

/// Where (and whether) the harness checkpoints.  With a directory set,
/// run_sim_job restores a shared warmup checkpoint when one matches
/// (skipping warmup simulation entirely) and writes one after the first
/// cold warmup; jobs with params.snapshot_interval > 0 additionally drop
/// mid-measure snapshots for crash resume (picked up when \c resume).
/// Checkpointing never changes simulated numbers: restore is bit-identical
/// to a cold run, and any invalid/mismatched file falls back to cold.
struct CheckpointOptions {
  std::string dir = {};  ///< checkpoint directory; "" disables everything
  bool resume = false; ///< resume from mid-measure snapshots when present

  [[nodiscard]] bool enabled() const { return !dir.empty(); }
};

/// One simulation request.
struct SimJob {
  ArchConfig config;
  std::string benchmark;
  RunParams params;
  /// Optional per-interval metrics consumer (non-owning; must outlive the
  /// service).  A job that streams (interval > 0 and a sink attached)
  /// always simulates: it is neither served from the result store nor
  /// coalesced with duplicates, so its sink sees the full series.
  MetricSink* sink = nullptr;
  /// Who submitted the job and at which priority: its place in the
  /// service's fair-share queue (scheduler.h).  Neither is part of the
  /// cache key.
  std::string client = {};
  PriorityClass priority = PriorityClass::Normal;

  /// True when this job produces a time-resolved metric stream.
  [[nodiscard]] bool streaming() const {
    return sink != nullptr && params.interval > 0;
  }
};

/// The identity of a job for caching and coalescing purposes.  Pinned
/// format (an interchange surface: keys are written into on-disk stores):
///   <config>|<benchmark>|<instrs>|<warmup>|<seed>|v<schema>
/// where <config> is ArchConfig::cache_identity(): the preset name for a
/// preset config, the "cfg<hex>" fingerprint for any other design point.
[[nodiscard]] std::string sim_cache_key(std::string_view config_name,
                                        std::string_view benchmark,
                                        const RunParams& params);

/// Key of \p job (convenience overload).
[[nodiscard]] std::string sim_cache_key(const SimJob& job);

/// Lifecycle of a submitted job, observed through JobHandle::status().
///
///   Queued -> Running -> Done
///   Queued -> Cancelled          (service destroyed first)
///   submit -> Failed             (rejected at submission, e.g. unknown
///                                 benchmark)
///   submit -> Done               (result served from the store or an
///                                 in-flight duplicate)
enum class JobStatus { Queued, Running, Done, Cancelled, Failed };

[[nodiscard]] std::string_view job_status_name(JobStatus status);

/// True for statuses that will never change again.
[[nodiscard]] constexpr bool job_status_terminal(JobStatus status) {
  return status == JobStatus::Done || status == JobStatus::Cancelled ||
         status == JobStatus::Failed;
}

}  // namespace ringclu
