#pragma once

/// \file sim_observer.h
/// Time-resolved instrumentation hook for Processor::run.
///
/// With sampling enabled, the processor snapshots its measurement counters
/// every `interval_instrs` committed instructions and hands the observer
/// one IntervalSample per crossing, plus one final (possibly short) sample
/// when measurement ends.  Sampling is strictly read-only: it never
/// changes a scheduling decision, so the end-of-run counters are
/// bit-identical with and without an observer attached (the determinism
/// contract of the golden tests).  With hooks disabled (the default) the
/// hot loop pays a single predictable branch per iteration.
///
/// Reconciliation invariant (pinned by tests/metrics_test.cpp): the
/// field-wise sum of all sample deltas equals the end-of-run SimCounters,
/// and the last sample's cumulative counters equal them exactly.

#include <cstdint>
#include <functional>

#include "core/sim_result.h"

namespace ringclu {

/// One sampling interval of the measurement window.
struct IntervalSample {
  /// 0-based interval index.
  std::uint64_t index = 0;
  /// Configured sampling period (committed instructions).  The actual
  /// delta.committed may exceed it (commit bursts cross boundaries) or
  /// fall short of it (final partial interval).
  std::uint64_t interval_instrs = 0;
  /// Counters accumulated during this interval only.
  SimCounters delta;
  /// Counters accumulated since measurement start (inclusive of delta).
  SimCounters cumulative;
  /// True for the sample emitted at measurement end; its delta covers the
  /// tail since the last boundary crossing.
  bool final_sample = false;
};

/// Receives interval samples during Processor::run.  Called from the
/// simulating thread; implementations must not touch the processor.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_interval(const IntervalSample& sample) = 0;
};

/// Optional instrumentation attachment for one Processor::run call.
struct RunHooks {
  SimObserver* observer = nullptr;   ///< non-owning; may be nullptr
  std::uint64_t interval_instrs = 0; ///< sampling period; 0 disables

  /// Crash-resume snapshot cadence (committed instructions); 0 disables.
  /// At each boundary crossing the processor invokes on_snapshot, which is
  /// expected to save the processor (e.g. via save_checkpoint).
  /// Like sampling, snapshotting is read-only with respect to simulation
  /// state, so results are bit-identical with and without it.
  std::uint64_t snapshot_interval_instrs = 0;
  std::function<void()> on_snapshot = {};

  [[nodiscard]] bool sampling() const {
    return observer != nullptr && interval_instrs > 0;
  }

  [[nodiscard]] bool snapshotting() const {
    return on_snapshot != nullptr && snapshot_interval_instrs > 0;
  }
};

}  // namespace ringclu
