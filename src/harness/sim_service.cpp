#include "harness/sim_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "core/checkpoint.h"
#include "core/processor.h"
#include "harness/runner.h"
#include "stats/metric_sink.h"
#include "trace/registry.h"
#include "trace/synth/suite.h"
#include "util/assert.h"
#include "util/format.h"

namespace ringclu {

std::string sim_cache_key(std::string_view config_name,
                          std::string_view benchmark,
                          const RunParams& params) {
  return str_format("%.*s|%.*s|%llu|%llu|%llu|v%d",
                    static_cast<int>(config_name.size()), config_name.data(),
                    static_cast<int>(benchmark.size()), benchmark.data(),
                    static_cast<unsigned long long>(params.instrs),
                    static_cast<unsigned long long>(params.warmup),
                    static_cast<unsigned long long>(params.seed),
                    kSimSchemaVersion);
}

std::string sim_cache_key(const SimJob& job) {
  // cache_identity(): the preset name for genuine presets (byte-compatible
  // with every pre-existing store and golden), the config fingerprint for
  // anything hand-built or sweep-expanded — so identical design points
  // coalesce regardless of display name, and same-named-but-divergent
  // configs never collide.  Trace benchmarks key by their content digest
  // ("trace:<stem>@<16-hex>") for the same reason: a renamed pack still
  // coalesces, a re-recorded one never aliases stale results.
  return sim_cache_key(job.config.cache_identity(),
                       keyed_workload_name(job.benchmark), job.params);
}

std::string_view job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::Queued: return "queued";
    case JobStatus::Running: return "running";
    case JobStatus::Done: return "done";
    case JobStatus::Cancelled: return "cancelled";
    case JobStatus::Failed: return "failed";
  }
  RINGCLU_UNREACHABLE("bad JobStatus");
}

namespace {

/// Observer bridging Processor sampling to the job's MetricSink.
class SinkObserver final : public SimObserver {
 public:
  SinkObserver(MetricSink& sink, const MetricRunContext& context)
      : sink_(sink), context_(context) {}
  void on_interval(const IntervalSample& sample) override {
    sink_.on_interval(context_, sample);
  }

 private:
  MetricSink& sink_;
  const MetricRunContext& context_;
};

[[nodiscard]] double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SimResult run_sim_job(const SimJob& job) {
  return run_sim_job(job, CheckpointOptions{});
}

SimResult run_sim_job(const SimJob& job, const CheckpointOptions& checkpoint) {
  auto trace = make_workload_trace(job.benchmark, job.params.seed);
  return run_sim_job_on_trace(job, checkpoint, *trace);
}

SimResult run_sim_job_on_trace(const SimJob& job,
                               const CheckpointOptions& checkpoint,
                               TraceSource& trace) {
  // optional<> so the fallback paths can reconstruct after a failed
  // restore leaves the processor in an unspecified state (Processor is
  // non-copyable; the optional's inline storage keeps &*processor stable
  // across emplace, which the snapshot hook relies on).
  std::optional<Processor> processor;
  processor.emplace(job.config, job.params.seed);

  RunHooks hooks;
  std::optional<MetricRunContext> context;
  std::optional<SinkObserver> observer;
  if (job.streaming()) {
    context.emplace(
        MetricRunContext{job.config.name, job.benchmark, job.params.interval,
                         job.params.seed});
    observer.emplace(*job.sink, *context);
    hooks.observer = &*observer;
    hooks.interval_instrs = job.params.interval;
  }

  SimResult result;
  if (!checkpoint.enabled()) {
    result = processor->run(trace, job.params.warmup, job.params.instrs,
                            hooks);
  } else {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint.dir, ec);

    const CheckpointExpectation expect{job.config.fingerprint(),
                                       std::string(trace.name()),
                                       job.params.seed};
    const std::string warm_path =
        checkpoint.dir + "/" +
        warmup_checkpoint_name(expect.config_fingerprint, expect.workload,
                               job.params.warmup, job.params.seed);
    const std::string snapshot_path =
        checkpoint.dir + "/" + snapshot_checkpoint_name(sim_cache_key(job));

    const double run_start = wall_now();
    double restored_prefix = 0.0;  ///< wall cost of the restored prefix
    double restore_cost = 0.0;
    bool resumed_snapshot = false;
    bool restored_warmup = false;

    // A failed restore may leave processor/trace partially mutated:
    // reconstruct both so every fallback starts truly cold.
    const auto attempt_restore = [&](const std::string& path,
                                     CheckpointMeta& meta) {
      std::string error;
      if (restore_checkpoint(path, *processor, trace, expect, &meta,
                             &error)) {
        return true;
      }
      processor.emplace(job.config, job.params.seed);
      trace.reset();
      return false;
    };

    // 1. Crash resume: continue an interrupted measurement mid-stream.
    //    A snapshot that is not mid-measure cannot be continued soundly
    //    (the measurement baseline is gone) — treat it as unusable.
    if (checkpoint.resume) {
      CheckpointMeta meta;
      const bool restored = attempt_restore(snapshot_path, meta);
      if (restored && processor->mid_measure()) {
        resumed_snapshot = true;
        restored_prefix = meta.prefix_wall_seconds;
        restore_cost = wall_now() - run_start;
        processor->add_pre_run_wall_seconds(restore_cost);
      } else if (restored) {
        processor.emplace(job.config, job.params.seed);
        trace.reset();
      }
    }

    // 2. Warmup: restore the shared checkpoint, else simulate warmup cold
    //    and publish it for the other sweep points of this workload.
    if (!resumed_snapshot) {
      CheckpointMeta meta;
      if (job.params.warmup > 0 && attempt_restore(warm_path, meta)) {
        restored_warmup = true;
        restored_prefix = meta.prefix_wall_seconds;
        restore_cost = wall_now() - run_start;
        processor->add_pre_run_wall_seconds(restore_cost);
      } else {
        processor->warmup(trace, job.params.warmup);
        if (job.params.warmup > 0) {
          CheckpointMeta save_meta;
          save_meta.seed = job.params.seed;
          save_meta.prefix_wall_seconds = wall_now() - run_start;
          std::string error;
          if (!save_checkpoint(warm_path, *processor, trace, save_meta,
                               &error)) {
            std::fprintf(stderr,
                         "[ringclu] warmup checkpoint write failed (%s); "
                         "continuing without\n",
                         error.c_str());
          }
        }
      }
    }

    // 3. Periodic mid-measure snapshots for crash resume.
    if (job.params.snapshot_interval > 0) {
      hooks.snapshot_interval_instrs = job.params.snapshot_interval;
      hooks.on_snapshot = [&] {
        CheckpointMeta snap_meta;
        snap_meta.seed = job.params.seed;
        snap_meta.prefix_wall_seconds =
            restored_prefix + (wall_now() - run_start);
        std::string error;
        if (!save_checkpoint(snapshot_path, *processor, trace, snap_meta,
                             &error)) {
          std::fprintf(stderr,
                       "[ringclu] snapshot write failed (%s); "
                       "continuing without\n",
                       error.c_str());
        }
      };
    }

    result = processor->measure(trace, job.params.instrs, hooks);
    result.warmup_restored = restored_warmup || resumed_snapshot;
    if (result.warmup_restored) {
      // What the restored prefix cost to simulate cold, minus what the
      // restore itself cost: the measured saving of this run.
      result.warmup_amortized_seconds =
          std::max(0.0, restored_prefix - restore_cost);
    }
    // The run finished: its crash-resume snapshot is spent.
    if (job.params.snapshot_interval > 0 || checkpoint.resume) {
      std::filesystem::remove(snapshot_path, ec);
    }
  }

  if (job.streaming()) job.sink->on_run_complete(*context, result);
  return result;
}

/// Shared per-job state.  All fields are guarded by the owning service's
/// mutex_, except \c result and \c error which become immutable once
/// \c status is terminal (readers synchronize through the mutex first).
struct JobHandle::JobState {
  SimService* service = nullptr;
  std::string key;
  SimJob job;
  JobStatus status = JobStatus::Queued;
  SimResult result;
  std::string error;
  /// Attached handles that have not cancelled.
  std::size_t waiters = 0;
  /// Completion callbacks registered before Done.  A worker puts the
  /// result into the store before it publishes Done, so Done also means
  /// "stored" and a callback always finds its result there.
  std::vector<std::function<void(const SimResult&)>> callbacks;
};

// ---- JobHandle --------------------------------------------------------

JobStatus JobHandle::status() const {
  RINGCLU_EXPECTS(valid());
  const std::lock_guard<std::mutex> lock(core_->state->service->mutex_);
  return core_->cancelled ? JobStatus::Cancelled : core_->state->status;
}

const std::string& JobHandle::key() const {
  RINGCLU_EXPECTS(valid());
  return core_->state->key;  // Immutable after construction.
}

const SimResult& JobHandle::result() const {
  RINGCLU_EXPECTS(valid());
  const std::lock_guard<std::mutex> lock(core_->state->service->mutex_);
  RINGCLU_EXPECTS(!core_->cancelled &&
                  core_->state->status == JobStatus::Done);
  return core_->state->result;
}

std::optional<SimResult> JobHandle::try_result() const {
  RINGCLU_EXPECTS(valid());
  const std::lock_guard<std::mutex> lock(core_->state->service->mutex_);
  if (core_->cancelled || core_->state->status != JobStatus::Done) {
    return std::nullopt;
  }
  return core_->state->result;
}

const std::string& JobHandle::error() const {
  RINGCLU_EXPECTS(valid());
  const std::lock_guard<std::mutex> lock(core_->state->service->mutex_);
  RINGCLU_EXPECTS(core_->state->status == JobStatus::Failed);
  return core_->state->error;
}

// ---- SimService -------------------------------------------------------

namespace {

std::unique_ptr<ResultStore> store_from_runner_options(
    const RunnerOptions& options) {
  return make_result_store(options.cache_backend, options.cache_path,
                           options.verbose);
}

SimServiceOptions service_options_from_runner(const RunnerOptions& options) {
  SimServiceOptions service_options;
  service_options.threads = options.threads;
  service_options.force = options.force;
  service_options.verbose = options.verbose;
  service_options.checkpoint = options.checkpoint_options();
  return service_options;
}

}  // namespace

SimService::SimService(std::unique_ptr<ResultStore> store,
                       SimServiceOptions options)
    : options_(options), store_(std::move(store)) {
  RINGCLU_EXPECTS(store_ != nullptr);
  if (options_.threads <= 0) options_.threads = default_thread_count();
  paused_ = options_.start_paused;
  workers_.reserve(static_cast<std::size_t>(options_.threads));
}

SimService::SimService(const RunnerOptions& options)
    : SimService(store_from_runner_options(options),
                 service_options_from_runner(options)) {}

SimService::~SimService() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (const std::shared_ptr<JobState>& state : queue_) {
      state->status = JobStatus::Cancelled;
      unindex_locked(state);
    }
    queue_.clear();
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

JobHandle SimService::submit(SimJob job) { return submit_one(std::move(job)); }

std::vector<JobHandle> SimService::submit_batch(std::vector<SimJob> jobs) {
  // Cache-aware batching: group the batch by benchmark before enqueueing,
  // so duplicate keys sit back to back (coalesced on submission) and any
  // future per-workload state reuse sees its jobs adjacent.  Handles are
  // still returned in the caller's order.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&jobs](std::size_t a, std::size_t b) {
                     return jobs[a].benchmark < jobs[b].benchmark;
                   });

  std::size_t queued_before = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queued_before = total_accepted_;
  }
  std::vector<JobHandle> handles(jobs.size());
  std::uint64_t instrs = 0;
  for (const std::size_t index : order) {
    instrs = jobs[index].params.instrs;
    handles[index] = submit_one(std::move(jobs[index]));
  }
  if (options_.verbose) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t newly_queued = total_accepted_ - queued_before;
    if (newly_queued != 0) {
      std::fprintf(stderr,
                   "[ringclu] simulating %zu run(s) (%llu instrs each, "
                   "%d thread(s))...\n",
                   newly_queued, static_cast<unsigned long long>(instrs),
                   options_.threads);
    }
  }
  return handles;
}

JobHandle SimService::submit_one(SimJob&& job) {
  auto make_handle = [](std::shared_ptr<JobState> state) {
    auto core = std::make_shared<JobHandle::Core>();
    core->state = std::move(state);
    ++core->state->waiters;
    return JobHandle(std::move(core));
  };

  auto state = std::make_shared<JobState>();
  state->service = this;
  state->job = std::move(job);
  state->key = sim_cache_key(state->job);

  if (const std::optional<std::string> error =
          validate_benchmark_names({state->job.benchmark})) {
    state->status = JobStatus::Failed;
    state->error = *error;
    return make_handle(std::move(state));
  }

  // Streaming jobs (an attached sink + sampling interval) always
  // simulate: a store hit or a coalesced duplicate would leave their sink
  // without the interval series.  They also never register in the
  // coalescing index, so later duplicates do not attach to them either.
  const bool streaming = state->job.streaming();

  // Coalesce with an identical queued/running job.
  std::uint64_t unindexed_seen = 0;
  if (!streaming) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto in_flight = in_flight_.find(state->key);
    if (in_flight != in_flight_.end()) {
      ++coalesced_;
      return make_handle(in_flight->second);
    }
    unindexed_seen = unindexed_;
  }

  const bool use_store = !options_.force && !streaming;
  JobHandle handle;
  for (;;) {
    // Serve from the store (skipped under force).  The read — possibly a
    // first-touch parse of an on-disk cache — runs without holding mutex_,
    // so it never stalls workers publishing results or handles polling.
    if (use_store) {
      if (std::optional<SimResult> cached = store_->get(state->key)) {
        state->status = JobStatus::Done;
        state->result = *std::move(cached);
        const std::lock_guard<std::mutex> lock(mutex_);
        ++store_hits_;
        return make_handle(std::move(state));
      }
    }

    const std::lock_guard<std::mutex> lock(mutex_);
    // Re-check: a duplicate may have been queued while we read the store.
    if (!streaming) {
      const auto in_flight = in_flight_.find(state->key);
      if (in_flight != in_flight_.end()) {
        ++coalesced_;
        return make_handle(in_flight->second);
      }
    }
    // A job may also have finished and left the index since the last
    // look: its result can be in the store the read above missed.  Read
    // again rather than simulate the key a second time.
    if (use_store && unindexed_ != unindexed_seen) {
      unindexed_seen = unindexed_;
      continue;
    }
    state->status = JobStatus::Queued;
    // Attach the handle before publishing the state to the queue: from
    // that point on, waiters is shared with coalescing submitters.
    handle = make_handle(state);
    queue_.push_back(state);
    if (!streaming) in_flight_.emplace(state->key, state);
    ++total_accepted_;
    if (workers_.size() < static_cast<std::size_t>(options_.threads)) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    break;
  }
  work_cv_.notify_one();
  return handle;
}

/// Removes \p state from the coalescing index.  Guarded lookup: streaming
/// jobs never register, and a streaming + non-streaming pair can share a
/// key, so erase only the entry that maps to this exact state.
/// \pre mutex_ held.
void SimService::unindex_locked(const std::shared_ptr<JobState>& state) {
  const auto it = in_flight_.find(state->key);
  if (it != in_flight_.end() && it->second == state) {
    in_flight_.erase(it);
    ++unindexed_;
  }
}

void SimService::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return stopping_ || (!paused_ && !queue_.empty());
    });
    if (stopping_) return;
    std::shared_ptr<JobState> state = queue_.front();
    queue_.pop_front();
    if (state->status != JobStatus::Queued) continue;  // Cancelled in place.
    state->status = JobStatus::Running;
    ++running_;
    lock.unlock();

    SimResult result = run_sim_job(state->job, options_.checkpoint);
    // Streaming jobs skipped the store read, so an entry may already
    // exist; re-putting would append a duplicate line to persistent
    // backends on every repeated streaming run (first-write-wins makes
    // it dead weight, not a wrong answer — but unbounded growth).
    if (!state->job.streaming() || !store_->get(state->key)) {
      store_->put(state->key, result);
    }

    lock.lock();
    state->status = JobStatus::Done;
    state->result = std::move(result);
    --running_;
    ++simulations_;
    if (options_.verbose) {
      std::fprintf(stderr, "[ringclu] %zu/%zu %s\n", simulations_,
                   total_accepted_, state->result.summary().c_str());
    }
    done_cv_.notify_all();
    unindex_locked(state);
    const std::vector<std::function<void(const SimResult&)>> callbacks =
        std::move(state->callbacks);
    state->callbacks.clear();
    if (callbacks.empty()) continue;
    lock.unlock();
    // state->result is immutable from here on; callbacks run unlocked, in
    // registration order.
    for (const auto& callback : callbacks) callback(state->result);
    lock.lock();
  }
}

JobStatus JobHandle::wait() const {
  RINGCLU_EXPECTS(valid());
  JobState& state = *core_->state;
  SimService& service = *state.service;
  std::unique_lock<std::mutex> lock(service.mutex_);
  service.done_cv_.wait(lock, [this, &state] {
    return core_->cancelled || job_status_terminal(state.status);
  });
  return core_->cancelled ? JobStatus::Cancelled : state.status;
}

bool JobHandle::cancel() {
  RINGCLU_EXPECTS(valid());
  JobState& state = *core_->state;
  SimService& service = *state.service;
  {
    const std::lock_guard<std::mutex> lock(service.mutex_);
    if (core_->cancelled || state.status != JobStatus::Queued) return false;
    core_->cancelled = true;
    --state.waiters;
    if (state.waiters == 0) {
      // Last interested handle: drop the job before it is dispatched.
      state.status = JobStatus::Cancelled;
      service.unindex_locked(core_->state);
      auto& queue = service.queue_;
      queue.erase(std::remove(queue.begin(), queue.end(), core_->state),
                  queue.end());
      --service.total_accepted_;
    }
  }
  service.done_cv_.notify_all();
  return true;
}

void JobHandle::on_complete(std::function<void(const SimResult&)> callback) {
  RINGCLU_EXPECTS(valid());
  JobState& state = *core_->state;
  SimService& service = *state.service;
  {
    const std::lock_guard<std::mutex> lock(service.mutex_);
    if (core_->cancelled || state.status == JobStatus::Cancelled ||
        state.status == JobStatus::Failed) {
      return;  // Never completes: callback is dropped.
    }
    if (state.status != JobStatus::Done) {
      state.callbacks.push_back(std::move(callback));
      return;
    }
  }
  // Already done, so stored: run inline, unlocked (result is immutable).
  callback(state.result);
}

void SimService::pause() {
  const std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void SimService::resume() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void SimService::wait_idle() const {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

std::size_t SimService::simulations_run() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return simulations_;
}

std::size_t SimService::store_hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return store_hits_;
}

std::size_t SimService::coalesced_submissions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return coalesced_;
}

std::size_t SimService::workers_started() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

SimServiceStats SimService::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SimServiceStats stats;
  stats.queued = queue_.size();
  stats.workers = workers_.size();
  stats.running = running_;
  stats.simulations = simulations_;
  stats.store_hits = store_hits_;
  stats.coalesced = coalesced_;
  return stats;
}

}  // namespace ringclu
