#pragma once

/// \file sim_service.h
/// Asynchronous simulation service: the scheduling layer between clients
/// (bench figures, the CLI, sweeps) and the simulator.
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
///     sample plus the finished result to the sink,
///   - optionally shards (SimServiceOptions::shards): jobs partition
///     across per-shard queues and worker pools by a stable hash of the
///     cache key, with store writes replayed in submission order, so a
///     parallel sharded sweep leaves byte-for-byte the same store content
///     as a serial run (DESIGN.md §11).
///
/// ExperimentRunner (runner.h) is a thin synchronous shim over this class;
/// new code that wants overlap, progress reporting or cancellation should
/// use the service directly.  See DESIGN.md §7.
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
#include <string_view>
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

  /// Blocks until the job reaches a terminal status and returns it.
  /// \pre valid()
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

  /// Registers \p callback to run with the finished result.  Callbacks
  /// registered before completion run on the completing worker thread in
  /// registration order (across all handles of a coalesced job);
  /// registered after completion, \p callback runs inline.  Callbacks are
  /// not invoked for Cancelled or Failed jobs.  \pre valid()
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
  std::size_t queued = 0;        ///< jobs waiting in shard queues
  std::size_t running = 0;       ///< jobs currently on a worker
  std::size_t simulations = 0;   ///< simulations actually executed
  std::size_t store_hits = 0;    ///< submissions served from the store
  std::size_t coalesced = 0;     ///< submissions joined to an in-flight twin
  std::size_t workers = 0;       ///< worker threads started
};

struct SimServiceOptions {
  /// Worker threads.  Clamped to >= 1.
  int threads = 0;  // 0 -> default_thread_count() (resolved by the service)
  /// Deterministic parallel sharding (RINGCLU_SHARDS).  0 keeps the single
  /// shared queue and the historical store-write order (workers put as
  /// they finish).  N > 0 partitions jobs across N shard queues by a
  /// stable hash of the cache key (FNV-1a, so the assignment is identical
  /// across runs and hosts), gives every shard its own slice of the
  /// worker budget, and defers store writes into a submission-ordered
  /// flush: the merged store content is byte-identical to a serial
  /// (shards=0, threads=1) run of the same submissions, for any shard or
  /// worker count.  See DESIGN.md §11.
  int shards = 0;
  /// Pin each shard's workers to one CPU (shard index modulo the hardware
  /// concurrency) so a shard's jobs share a cache.  Linux only; elsewhere
  /// (and on affinity errors) it is a silent no-op.  Never affects
  /// simulated numbers.
  bool pin_workers = false;
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

  /// Shard queue count: max(1, options().shards).  A non-sharded service
  /// runs its single shared queue as shard 0.
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// The stable shard a \p key maps to under \p shards queues (FNV-1a
  /// modulo shards; identical across runs and hosts).  Exposed so tests
  /// and tools can predict placement.
  [[nodiscard]] static std::size_t shard_for_key(std::string_view key,
                                                 int shards);

  [[nodiscard]] ResultStore& store() { return *store_; }
  [[nodiscard]] const SimServiceOptions& options() const { return options_; }

 private:
  friend class JobHandle;  // Handles lock mutex_ / wait on done_cv_.
  using JobState = JobHandle::JobState;

  /// One shard: its job queue and its slice of the worker budget.  A
  /// non-sharded service (options_.shards == 0) is exactly one shard
  /// holding the whole budget; each shard's workers wait on their own
  /// condition variable so an enqueue wakes only the shard it lands in.
  /// unique_ptr because condition_variable is immovable and the shard
  /// vector is sized at construction.
  struct Shard {
    std::deque<std::shared_ptr<JobState>> queue;
    std::condition_variable work_cv;
    /// Spawned lazily, one per newly queued job, up to worker_quota() —
    /// a service whose submissions all resolve from the store never
    /// starts a thread.
    std::vector<std::thread> workers;
  };

  void worker_loop(std::size_t shard);
  /// Submission core for one job.  Takes and releases \c mutex_ itself;
  /// the store read (which may do disk I/O) runs unlocked so submissions
  /// never stall workers publishing results or handles polling status.
  JobHandle submit_one(SimJob&& job);
  /// Worker budget of \p shard: options_.threads split evenly across the
  /// shards (earlier shards take the remainder), floored at 1 so no shard
  /// can starve.  With threads < shards the effective total is the shard
  /// count.
  [[nodiscard]] std::size_t worker_quota(std::size_t shard) const;
  /// Grows \p shard's worker pool up to worker_quota().  \pre mutex_ held.
  void spawn_worker_locked(std::size_t shard);
  /// Removes \p state from the coalescing index iff it is the indexed
  /// entry for its key (streaming jobs never register).  \pre mutex_ held.
  void unindex_locked(const std::shared_ptr<JobState>& state);
  /// True when store writes are deferred into the submission-ordered
  /// flush (sharded mode) instead of issued directly by workers.
  [[nodiscard]] bool ordered_puts() const { return options_.shards > 0; }
  /// Submission-ordered store flush: writes every contiguous pending
  /// result starting at next_flush_, releasing \p lock around each store
  /// call.  At most one thread flushes at a time (flushing_); later
  /// depositors return immediately and the active flusher drains them.
  /// \pre \p lock holds mutex_.
  void flush_store(std::unique_lock<std::mutex>& lock);

  SimServiceOptions options_;
  std::unique_ptr<ResultStore> store_;

  mutable std::mutex mutex_;
  mutable std::condition_variable done_cv_;  ///< waiters: completions
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Coalescing index over queued + running jobs; entries are erased when
  /// their job reaches a terminal status (in ordered_puts() mode, Done
  /// entries linger until their store flush lands, so duplicates keep
  /// coalescing instead of re-simulating an unflushed result).
  /// Keyed find/insert/erase only — never iterated.
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

  /// Submission-order bookkeeping for ordered_puts() mode.  Every queued
  /// job takes the next index; finished results park in pending_flush_
  /// until every lower index has flushed (cancelled indices park a null
  /// entry so they never stall the line).  next_order_ is monotonic —
  /// unlike total_accepted_ it never decrements on cancellation.
  std::uint64_t next_order_ = 0;
  std::uint64_t next_flush_ = 0;
  // Fetched by exact flush index (find/erase) — never iterated.
  // ringclu-lint: allow(det-unordered-decl: keyed fetch by flush index)
  std::unordered_map<std::uint64_t, std::shared_ptr<JobState>>
      pending_flush_;
  bool flushing_ = false;
};

}  // namespace ringclu
