#pragma once

/// \file sim_service.h
/// Asynchronous simulation service: the scheduling layer between clients
/// (the CLI's sweeps, the daemon, bench drivers) and the simulator.
///
/// Clients submit SimJobs and get future-like JobHandles back; a worker
/// pool owned by the service runs the simulations.  The service
///   - serves results already present in its ResultStore without running
///     anything (unless \c force),
///   - coalesces duplicate in-flight jobs: N submissions with the same
///     cache key run exactly one simulation, and every handle observes the
///     same result,
///   - accepts batch submissions, resolving store hits up front and
///     grouping the remaining misses for scheduling,
///   - supports per-handle cancellation (a queued job whose last
///     interested handle cancels is dropped before it ever runs) and
///     completion callbacks,
///   - streams time-resolved metrics: a SimJob with a sampling interval
///     and an attached MetricSink (sim_job.h) always simulates — never a
///     store hit, never coalesced — and its worker feeds every interval
///     sample plus the finished result to the sink.
///
/// One job queue feeds one worker pool, and each worker puts its result
/// straight into the store before publishing Done, so wait() and every
/// completion callback find the result there.
///
/// A synchronous batch is submit_batch() followed by wait() on every
/// handle, in order.  See DESIGN.md §7.
///
/// Threading: all public methods are thread-safe.  Handles must not
/// outlive the service that issued them.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/sim_result.h"
#include "harness/result_store.h"
#include "harness/sim_job.h"

namespace ringclu {

class SimService;
class TraceSource;
struct RunnerOptions;

/// Runs \p job synchronously in the calling thread (the primitive the
/// service workers use; exposed for tools that want exactly one run with
/// no scheduling).
[[nodiscard]] SimResult run_sim_job(const SimJob& job);

/// As above, with checkpointing: when \p checkpoint.enabled(), restores a
/// matching warmup checkpoint instead of re-simulating warmup (writing one
/// after the first cold warmup), honors job.params.snapshot_interval for
/// crash-resume snapshots, and — when \p checkpoint.resume — continues an
/// interrupted run from its snapshot.  Results are bit-identical to
/// run_sim_job(job); any unusable checkpoint file falls back to cold.
[[nodiscard]] SimResult run_sim_job(const SimJob& job,
                                    const CheckpointOptions& checkpoint);

/// As run_sim_job(job, checkpoint) but over a caller-provided workload
/// (a trace pack the CLI opened by path).  job.benchmark is used only for
/// keying; the checkpoint identity comes from trace.name().
[[nodiscard]] SimResult run_sim_job_on_trace(
    const SimJob& job, const CheckpointOptions& checkpoint,
    TraceSource& trace);

/// Future-like view of one submitted job.  Copyable; copies share the
/// same interest (cancelling one cancels the handle, not its copies'
/// jobs — see cancel()).  A default-constructed handle is invalid.
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const { return core_ != nullptr; }

  /// Current status.  \pre valid()
  [[nodiscard]] JobStatus status() const;

  /// Cache key identifying the job.  \pre valid()
  [[nodiscard]] const std::string& key() const;

  /// Blocks until the job reaches a terminal status and returns it.  A
  /// Done job's result is in the store by then.  \pre valid()
  JobStatus wait() const;

  /// The finished result.  \pre wait() or status() returned Done.
  [[nodiscard]] const SimResult& result() const;

  /// The result if Done, else nullopt (non-blocking).  \pre valid()
  [[nodiscard]] std::optional<SimResult> try_result() const;

  /// Why the job failed.  \pre status() == Failed
  [[nodiscard]] const std::string& error() const;

  /// Withdraws this handle's interest.  Returns true when the handle was
  /// detached before its job produced a result (the handle's status
  /// becomes Cancelled); the underlying simulation is aborted only if no
  /// other handle still wants it AND it has not been dispatched to a
  /// worker yet.  Returns false once the job is Running or terminal:
  /// a dispatched simulation always runs to completion (and is cached).
  bool cancel();

  /// Registers \p callback to run with the finished result, once that
  /// result is in the store.  Callbacks registered before then run in
  /// registration order (across all handles of a coalesced job) on the
  /// completing worker.  Registered after, \p callback runs inline.
  /// Callbacks are not invoked for Cancelled or Failed jobs.  \pre valid()
  void on_complete(std::function<void(const SimResult&)> callback);

 private:
  friend class SimService;
  struct JobState;
  /// Handle identity: which shared job this handle watches, and whether
  /// this particular handle (incl. its copies) cancelled.
  struct Core {
    std::shared_ptr<JobState> state;
    bool cancelled = false;
  };
  explicit JobHandle(std::shared_ptr<Core> core) : core_(std::move(core)) {}
  std::shared_ptr<Core> core_;
};

/// One consistent snapshot of the service's observable state, for
/// introspection surfaces (the ringclu_simd /v1/server/metrics endpoint)
/// that want every counter from the same lock acquisition instead of four
/// racing accessor calls.
struct SimServiceStats {
  std::size_t queued = 0;        ///< jobs waiting in the queue
  std::size_t running = 0;       ///< jobs currently on a worker
  std::size_t simulations = 0;   ///< simulations actually executed
  std::size_t store_hits = 0;    ///< submissions served from the store
  std::size_t coalesced = 0;     ///< submissions joined to an in-flight twin
  std::size_t workers = 0;       ///< worker threads started
};

struct SimServiceOptions {
  /// Worker threads.  Clamped to >= 1.
  int threads = 0;  // 0 -> default_thread_count() (resolved by the service)
  /// Skip store reads (results are still written), forcing re-simulation.
  bool force = false;
  /// Progress lines on stderr as jobs complete.
  bool verbose = false;
  /// Start with dispatch paused (tests and controlled batching); no job
  /// runs until resume().
  bool start_paused = false;
  /// Warmup-checkpoint / crash-resume configuration (sim_job.h); disabled
  /// unless checkpoint.dir is set.  Workers pass it to run_sim_job.
  CheckpointOptions checkpoint = {};
};

/// Owns the worker pool, the pending-job queue, the in-flight coalescing
/// index and the result store.
class SimService {
 public:
  /// Service over an explicit store (tests inject MemoryStore here).
  explicit SimService(std::unique_ptr<ResultStore> store,
                      SimServiceOptions options = {});

  /// Convenience: store and options derived from RunnerOptions (the
  /// RINGCLU_* environment surface).
  explicit SimService(const RunnerOptions& options);

  /// Cancels still-queued jobs, finishes running ones, joins the pool.
  ~SimService();

  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  /// Submits one job.  Store hits and coalesced duplicates return handles
  /// that are already Done (or share the in-flight state); unknown
  /// benchmarks return a Failed handle.
  JobHandle submit(SimJob job);

  /// Submits a batch.  Handles are returned in input order.  Store hits
  /// resolve immediately; the remaining misses are enqueued grouped by
  /// benchmark (duplicate-adjacent, so coalescing and any future
  /// per-workload state reuse see them back to back).
  std::vector<JobHandle> submit_batch(std::vector<SimJob> jobs);

  /// Pauses dispatch: running jobs finish, queued jobs wait.
  void pause();
  /// Resumes dispatch.
  void resume();

  /// Blocks until no job is queued or running.
  void wait_idle() const;

  /// Number of simulations actually executed (the coalescing test's
  /// ground truth: N duplicate submissions bump this once).
  [[nodiscard]] std::size_t simulations_run() const;
  /// Submissions served from the store without simulating.
  [[nodiscard]] std::size_t store_hits() const;
  /// Submissions attached to an already in-flight duplicate.
  [[nodiscard]] std::size_t coalesced_submissions() const;
  /// Worker threads actually started (spawned lazily; a service whose
  /// submissions all resolve from the store reports 0).
  [[nodiscard]] std::size_t workers_started() const;

  /// All of the above plus queue depth and in-flight count, captured
  /// atomically under one lock.
  [[nodiscard]] SimServiceStats stats() const;

  [[nodiscard]] ResultStore& store() { return *store_; }
  [[nodiscard]] const SimServiceOptions& options() const { return options_; }

 private:
  friend class JobHandle;  // Handles lock mutex_ / wait on done_cv_.
  using JobState = JobHandle::JobState;

  void worker_loop();
  /// Submission core for one job.  Takes and releases \c mutex_ itself;
  /// the store read (which may do disk I/O) runs unlocked so submissions
  /// never stall workers publishing results or handles polling status.
  JobHandle submit_one(SimJob&& job);
  /// Removes \p state from the coalescing index iff it is the indexed
  /// entry for its key (streaming jobs never register).  \pre mutex_ held.
  void unindex_locked(const std::shared_ptr<JobState>& state);

  SimServiceOptions options_;
  std::unique_ptr<ResultStore> store_;

  mutable std::mutex mutex_;
  mutable std::condition_variable done_cv_;  ///< waiters: completions
  std::condition_variable work_cv_;          ///< workers: queued jobs
  std::deque<std::shared_ptr<JobState>> queue_;
  /// Spawned lazily, one per newly queued job, up to options_.threads — a
  /// service whose submissions all resolve from the store never starts a
  /// thread.
  std::vector<std::thread> workers_;
  /// Coalescing index over queued + running jobs; entries are erased when
  /// their job reaches a terminal status.  Keyed find/insert/erase only —
  /// never iterated.
  // ringclu-lint: allow(det-unordered-decl: find/insert/erase; not iterated)
  std::unordered_map<std::string, std::shared_ptr<JobState>> in_flight_;
  /// Bumped whenever an entry leaves in_flight_.  A finished job leaves
  /// only after its result is in the store, so a submitter that read the
  /// store unlocked and sees this unchanged on its re-check knows no
  /// result for its key landed in between.
  std::uint64_t unindexed_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
  std::size_t running_ = 0;
  std::size_t simulations_ = 0;
  std::size_t store_hits_ = 0;
  std::size_t coalesced_ = 0;
  std::size_t total_accepted_ = 0;  ///< queued jobs ever (progress total)
};

}  // namespace ringclu
