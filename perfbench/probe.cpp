/// \file probe.cpp
/// perfbench_probe: the traced driver of the benchmark.  It runs a job
/// list through the library's public classes and times every call into a
/// layer from outside the library.  Two passes over the same jobs:
///
///   - the span pass repeats the phase sequence of SimService's workers
///     (checkpoint restore or cold warmup, then measure) so that each
///     phase can carry a span, with
///       TraceSource     wrapped by TimedTrace (time in next()),
///       SteeringPolicy  wrapped by TimedSteering, registered through
///                       SteeringRegistry as "perfbench_timed:<inner>";
///   - the service pass submits the jobs, unwrapped, to a SimService over
///     a ResultStore wrapped by TimedStore, and records when each job's
///     on_complete callback runs on its worker.  The harness timings (job
///     overhead, worker busy time, store calls) come from this pass only.
///
/// The simulated counters are unchanged by the wrappers; run.py checks
/// them against the untraced runs.
///
///   perfbench_probe --jobs FILE --out FILE --store FILE
///       [--checkpoint-dir DIR] [--resubmit] [--trace-dir DIR]
///   perfbench_probe --jobs FILE --out FILE --checkpoint-dir DIR
///       --write-checkpoints
///
/// FILE for --jobs holds one job per line:
///   <job id> TAB <preset> TAB <benchmark> TAB <instrs> TAB <warmup> TAB <seed>
///
/// --write-checkpoints only simulates warmup and saves the span pass's
/// warmup checkpoints (the set-up pass).  --resubmit, after the service
/// pass, submits every job again to the same SimService and checks that
/// each one is a store hit with identical result bytes.
///
/// The output is one JSON document: spans (name, start, end, parent, job),
/// per-measure aggregates of the per-call layers (trace, steer), store
/// call tallies, the service pass's completion times and every job's
/// result as `ringclu_sim --json` prints it.  Spans stay in memory until
/// the run ends.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/arch_config.h"
#include "core/checkpoint.h"
#include "core/processor.h"
#include "harness/result_store.h"
#include "harness/sim_job.h"
#include "harness/sim_service.h"
#include "stats/metrics.h"
#include "steer/registry.h"
#include "trace/registry.h"
#include "trace/trace_source.h"
#include "util/json.h"

namespace {

using namespace ringclu;
using Clock = std::chrono::steady_clock;

/// Worker threads of both passes, as in the untraced runs.
constexpr int kWorkers = 2;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Cost of one now_ns() call: every timed per-call layer interval holds
/// about one, which the analysis subtracts.
double clock_read_ns() {
  constexpr int kReads = 1000000;
  const std::int64_t start = now_ns();
  std::int64_t last = start;
  for (int i = 0; i < kReads; ++i) last = now_ns();
  return static_cast<double>(last - start) / kReads;
}

/// Busy time and call count of one per-call layer on the current thread.
/// A job runs start to end on one worker thread, so thread-local tallies
/// attribute calls to the job without locking.
struct LayerTally {
  std::uint64_t calls = 0;
  std::int64_t busy_ns = 0;
};
thread_local LayerTally t_trace_tally;
thread_local LayerTally t_steer_tally;

// ---- Spans ------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::string name;
  std::string job;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Aggregate records stand for many calls of a per-call layer inside
  /// their parent: end - start is the summed busy time of \c calls calls
  /// (one span per call would be millions of spans per run).
  bool aggregate = false;
  std::uint64_t calls = 0;
};

class SpanLog {
 public:
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void add(Span span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

/// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(std::string name, std::uint64_t parent, std::string job) {
    span_.id = g_spans.next_id();
    span_.parent = parent;
    span_.name = std::move(name);
    span_.job = std::move(job);
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    span_.end_ns = now_ns();
    g_spans.add(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }
  [[nodiscard]] std::int64_t start_ns() const { return span_.start_ns; }

 private:
  Span span_;
};

void add_aggregate(const char* name, std::uint64_t parent,
                   const std::string& job, std::int64_t start_ns,
                   const LayerTally& tally) {
  Span span;
  span.id = g_spans.next_id();
  span.parent = parent;
  span.name = name;
  span.job = job;
  span.start_ns = start_ns;
  span.end_ns = start_ns + tally.busy_ns;
  span.aggregate = true;
  span.calls = tally.calls;
  g_spans.add(std::move(span));
}

/// Runs \p phase under a span named \p name; the per-call layers it drives
/// become that span's aggregate children.
template <typename Phase>
void traced_phase(const char* name, std::uint64_t parent,
                  const std::string& job, Phase phase) {
  ScopedSpan span(name, parent, job);
  t_trace_tally = {};
  t_steer_tally = {};
  phase();
  add_aggregate("trace.next", span.id(), job, span.start_ns(), t_trace_tally);
  add_aggregate("steer.steer", span.id(), job, span.start_ns(),
                t_steer_tally);
}

// ---- Timing decorators ------------------------------------------------

class TimedTrace final : public TraceSource {
 public:
  explicit TimedTrace(std::unique_ptr<TraceSource> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void save_pos(CheckpointWriter& out) const override {
    inner_->save_pos(out);
  }
  void restore_pos(CheckpointReader& in) override {
    inner_->restore_pos(in);
    set_position(inner_->position());
  }

 protected:
  bool produce(MicroOp& out) override {
    const std::int64_t start = now_ns();
    const bool ok = inner_->next(out);
    t_trace_tally.busy_ns += now_ns() - start;
    ++t_trace_tally.calls;
    return ok;
  }
  void do_reset() override { inner_->reset(); }

 private:
  std::unique_ptr<TraceSource> inner_;
};

class TimedSteering final : public SteeringPolicy {
 public:
  explicit TimedSteering(std::unique_ptr<SteeringPolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] SteerDecision steer(const SteerRequest& request,
                                    const SteerContext& context) override {
    const std::int64_t start = now_ns();
    SteerDecision decision = inner_->steer(request, context);
    t_steer_tally.busy_ns += now_ns() - start;
    ++t_steer_tally.calls;
    return decision;
  }
  void on_dispatch(int cluster) override { inner_->on_dispatch(cluster); }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void save_state(CheckpointWriter& out) const override {
    inner_->save_state(out);
  }
  void restore_state(CheckpointReader& in) override {
    inner_->restore_state(in);
  }

 private:
  std::unique_ptr<SteeringPolicy> inner_;
};

/// Registers "perfbench_timed:<inner>" once and returns that name.
std::string timed_policy_name(const std::string& inner) {
  static std::mutex mutex;
  const std::lock_guard<std::mutex> lock(mutex);
  std::string name = "perfbench_timed:" + inner;
  SteeringRegistry& registry = SteeringRegistry::global();
  if (!registry.contains(name)) {
    registry.register_policy(name, [inner](const SteerFactoryArgs& args) {
      return std::make_unique<TimedSteering>(
          SteeringRegistry::global().create(inner, args));
    });
  }
  return name;
}

struct StoreTally {
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::int64_t> get_ns{0};
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::int64_t> put_ns{0};
};

class TimedStore final : public ResultStore {
 public:
  TimedStore(std::shared_ptr<ResultStore> inner,
             std::shared_ptr<StoreTally> tally)
      : inner_(std::move(inner)), tally_(std::move(tally)) {}

  [[nodiscard]] std::optional<SimResult> get(const std::string& key) override {
    const std::int64_t start = now_ns();
    std::optional<SimResult> result = inner_->get(key);
    tally_->get_ns += now_ns() - start;
    ++tally_->gets;
    if (result.has_value()) ++tally_->hits;
    return result;
  }
  void put(const std::string& key, const SimResult& result) override {
    const std::int64_t start = now_ns();
    inner_->put(key, result);
    tally_->put_ns += now_ns() - start;
    ++tally_->puts;
  }
  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  [[nodiscard]] bool persistent() const override {
    return inner_->persistent();
  }
  [[nodiscard]] std::string describe() const override {
    return "timed " + inner_->describe();
  }

 private:
  std::shared_ptr<ResultStore> inner_;
  std::shared_ptr<StoreTally> tally_;
};

// ---- Jobs -------------------------------------------------------------

struct ProbeJob {
  std::string id;
  SimJob job;     ///< as given: the service pass runs it
  SimJob traced;  ///< job with the timed steering policy: the span pass
};

struct JobOutcome {
  bool ok = false;
  std::string error;
  bool restored = false;
  std::uint64_t checkpoint_bytes = 0;
  std::string result_json;
};

struct Options {
  std::string jobs_path;
  std::string out_path;
  std::string store_path;
  std::string checkpoint_dir;
  std::string trace_dir;
  bool write_checkpoints = false;
  bool resubmit = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr, "perfbench_probe: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: perfbench_probe --jobs FILE --out FILE "
               "[--store FILE] [--checkpoint-dir DIR] "
               "[--write-checkpoints] [--resubmit] [--trace-dir DIR]\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--jobs") {
      options.jobs_path = value();
    } else if (arg == "--out") {
      options.out_path = value();
    } else if (arg == "--store") {
      options.store_path = value();
    } else if (arg == "--checkpoint-dir") {
      options.checkpoint_dir = value();
    } else if (arg == "--trace-dir") {
      options.trace_dir = value();
    } else if (arg == "--write-checkpoints") {
      options.write_checkpoints = true;
    } else if (arg == "--resubmit") {
      options.resubmit = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (options.jobs_path.empty() || options.out_path.empty()) {
    usage("--jobs and --out are required");
  }
  if (options.write_checkpoints && options.checkpoint_dir.empty()) {
    usage("--write-checkpoints needs --checkpoint-dir");
  }
  if (!options.write_checkpoints && options.store_path.empty()) {
    usage("the service pass needs --store");
  }
  return options;
}

std::vector<ProbeJob> read_jobs(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot read " + path);
  std::vector<ProbeJob> jobs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::stringstream stream(line);
    std::string field;
    while (std::getline(stream, field, '\t')) fields.push_back(field);
    if (fields.size() != 6) usage("bad job line: " + line);
    const std::optional<ArchConfig> preset = ArchConfig::try_preset(fields[1]);
    if (!preset) usage("unknown preset " + fields[1]);
    ProbeJob probe_job;
    probe_job.id = fields[0];
    probe_job.job.config = *preset;
    probe_job.job.benchmark = fields[2];
    probe_job.job.params.instrs = std::stoull(fields[3]);
    probe_job.job.params.warmup = std::stoull(fields[4]);
    probe_job.job.params.seed = std::stoull(fields[5]);
    probe_job.traced = probe_job.job;
    const std::string inner = preset->steering_policy_name();
    if (const std::optional<std::string> error =
            probe_job.traced.config.set_steering(timed_policy_name(inner))) {
      usage(*error);
    }
    jobs.push_back(std::move(probe_job));
  }
  return jobs;
}

std::string warm_path(const Options& options, const SimJob& job,
                      const TraceSource& trace) {
  return options.checkpoint_dir + "/" +
         warmup_checkpoint_name(job.config.fingerprint(), trace.name(),
                                job.params.warmup, job.params.seed);
}

/// The set-up pass: simulate warmup and save the shared checkpoint.
JobOutcome write_checkpoint(const Options& options, const ProbeJob& probe) {
  const SimJob& job = probe.traced;
  JobOutcome outcome;
  ScopedSpan root("job", 0, probe.id);
  TimedTrace trace(make_workload_trace(job.benchmark, job.params.seed));
  Processor processor(job.config, job.params.seed);
  const std::int64_t warm_start = now_ns();
  traced_phase("core.warmup", root.id(), probe.id,
               [&] { processor.warmup(trace, job.params.warmup); });
  CheckpointMeta meta;
  meta.seed = job.params.seed;
  meta.prefix_wall_seconds = static_cast<double>(now_ns() - warm_start) / 1e9;
  const std::string path = warm_path(options, job, trace);
  std::string error;
  {
    ScopedSpan span("checkpoint.save", root.id(), probe.id);
    outcome.ok = save_checkpoint(path, processor, trace, meta, &error);
  }
  if (!outcome.ok) outcome.error = error;
  std::error_code ec;
  outcome.checkpoint_bytes = std::filesystem::file_size(path, ec);
  return outcome;
}

/// The span pass: SimService's worker phases, each under a span.
JobOutcome simulate(const Options& options, const ProbeJob& probe) {
  const SimJob& job = probe.traced;
  JobOutcome outcome;
  ScopedSpan root("job", 0, probe.id);
  std::optional<TimedTrace> trace;
  std::optional<Processor> processor;
  {
    ScopedSpan span("job.setup", root.id(), probe.id);
    trace.emplace(make_workload_trace(job.benchmark, job.params.seed));
    processor.emplace(job.config, job.params.seed);
  }
  double restore_seconds = 0.0;
  if (!options.checkpoint_dir.empty()) {
    const std::string path = warm_path(options, job, *trace);
    const CheckpointExpectation expect{job.config.fingerprint(),
                                       std::string(trace->name()),
                                       job.params.seed};
    CheckpointMeta meta;
    std::string error;
    const std::int64_t start = now_ns();
    {
      ScopedSpan span("checkpoint.restore", root.id(), probe.id);
      outcome.restored =
          restore_checkpoint(path, *processor, *trace, expect, &meta, &error);
    }
    restore_seconds = static_cast<double>(now_ns() - start) / 1e9;
    std::error_code ec;
    outcome.checkpoint_bytes = std::filesystem::file_size(path, ec);
    if (!outcome.restored) {
      // Same fallback as the harness: start cold.
      processor.emplace(job.config, job.params.seed);
      trace->reset();
    } else {
      processor->add_pre_run_wall_seconds(restore_seconds);
    }
  }
  if (!outcome.restored) {
    traced_phase("core.warmup", root.id(), probe.id,
                 [&] { processor->warmup(*trace, job.params.warmup); });
  }
  SimResult result;
  traced_phase("core.measure", root.id(), probe.id, [&] {
    result = processor->measure(*trace, job.params.instrs);
  });
  result.warmup_restored = outcome.restored;
  outcome.result_json = result_to_json(result);
  outcome.ok = true;
  return outcome;
}

/// Runs \p body over every job on kWorkers threads.
template <typename Body>
std::vector<JobOutcome> run_pool(const std::vector<ProbeJob>& jobs,
                                 Body body) {
  std::vector<JobOutcome> outcomes(jobs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&] {
      for (std::size_t index = next.fetch_add(1); index < jobs.size();
           index = next.fetch_add(1)) {
        outcomes[index] = body(jobs[index]);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return outcomes;
}

/// One job of the service pass.
struct ServiceJob {
  bool ok = false;
  std::string error;
  int worker = -1;              ///< index of the worker that ran it
  std::int64_t complete_ns = 0; ///< when its on_complete callback ran
  std::string result_json;
};

struct ServicePass {
  std::int64_t start_ns = 0;  ///< when dispatch resumed
  std::vector<ServiceJob> jobs;
  std::vector<std::string> errors;
};

/// Submits every job to a SimService over \p store and records on which
/// worker and when each finishes.  Dispatch starts paused, so every
/// callback is registered before the first job runs.  With \p resubmit,
/// then submits every job again: each must be a store hit whose result
/// bytes equal the simulated ones.
ServicePass service_pass(const Options& options,
                         const std::vector<ProbeJob>& jobs,
                         std::unique_ptr<ResultStore> store, bool resubmit) {
  SimServiceOptions service_options;
  service_options.threads = kWorkers;
  service_options.start_paused = true;
  service_options.checkpoint.dir = options.checkpoint_dir;
  SimService service(std::move(store), service_options);

  ServicePass pass;
  pass.jobs.resize(jobs.size());
  std::vector<SimJob> batch;
  for (const ProbeJob& job : jobs) batch.push_back(job.job);
  std::vector<JobHandle> handles = service.submit_batch(batch);

  std::mutex mutex;
  std::condition_variable callbacks_cv;
  std::map<std::thread::id, int> workers;
  std::size_t callbacks = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    handles[i].on_complete([&, i](const SimResult&) {
      const std::int64_t now = now_ns();
      const std::lock_guard<std::mutex> lock(mutex);
      const auto [it, _] = workers.try_emplace(
          std::this_thread::get_id(), static_cast<int>(workers.size()));
      pass.jobs[i].worker = it->second;
      pass.jobs[i].complete_ns = now;
      ++callbacks;
      callbacks_cv.notify_all();
    });
  }
  pass.start_ns = now_ns();
  service.resume();
  std::size_t done = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ServiceJob& job = pass.jobs[i];
    if (handles[i].wait() == JobStatus::Done) {
      ++done;
      job.ok = true;
      job.result_json = result_to_json(handles[i].result());
    } else {
      job.error = "service job did not finish Done";
      pass.errors.push_back(jobs[i].id + ": " + job.error);
    }
  }
  // A handle turns Done before its callbacks run.
  {
    std::unique_lock<std::mutex> lock(mutex);
    callbacks_cv.wait(lock, [&] { return callbacks == done; });
  }

  if (resubmit) {
    const std::size_t simulated = service.simulations_run();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!pass.jobs[i].ok) continue;
      JobHandle handle = service.submit(jobs[i].job);
      if (handle.wait() != JobStatus::Done) {
        pass.errors.push_back(jobs[i].id + ": resubmission not done");
      } else if (serialize_result(handle.result()) !=
                 serialize_result(handles[i].result())) {
        pass.errors.push_back(jobs[i].id + ": store hit bytes differ");
      }
    }
    if (service.simulations_run() != simulated) {
      pass.errors.push_back("resubmission pass simulated instead of hitting");
    }
  }
  return pass;
}

void write_output(const Options& options, const std::vector<ProbeJob>& jobs,
                  const std::vector<JobOutcome>& outcomes,
                  const ServicePass& service,
                  const std::vector<std::string>& errors,
                  const StoreTally& tally) {
  JsonWriter w;
  w.begin_object();
  w.key("workers").value(kWorkers);
  w.key("clock_read_ns").value(clock_read_ns());
  w.key("errors").begin_array();
  for (const std::string& error : errors) w.value(error);
  w.end_array();
  w.key("store").begin_object();
  w.key("gets").value(tally.gets.load());
  w.key("hits").value(tally.hits.load());
  w.key("get_ns").value(tally.get_ns.load());
  w.key("puts").value(tally.puts.load());
  w.key("put_ns").value(tally.put_ns.load());
  w.end_object();
  w.key("jobs").begin_array();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobOutcome& outcome = outcomes[i];
    w.begin_object();
    w.key("id").value(jobs[i].id);
    w.key("ok").value(outcome.ok);
    w.key("error").value(outcome.error);
    w.key("restored").value(outcome.restored);
    w.key("checkpoint_bytes").value(outcome.checkpoint_bytes);
    w.key("result").value(outcome.result_json);
    w.end_object();
  }
  w.end_array();
  w.key("service").begin_object();
  w.key("start_ns").value(service.start_ns);
  w.key("jobs").begin_array();
  for (std::size_t i = 0; i < service.jobs.size(); ++i) {
    const ServiceJob& job = service.jobs[i];
    w.begin_object();
    w.key("id").value(jobs[i].id);
    w.key("ok").value(job.ok);
    w.key("worker").value(job.worker);
    w.key("complete_ns").value(job.complete_ns);
    w.key("result").value(job.result_json);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("spans").begin_array();
  for (const Span& span : g_spans.spans()) {
    w.begin_object();
    w.key("id").value(span.id);
    w.key("parent").value(span.parent);
    w.key("name").value(span.name);
    w.key("job").value(span.job);
    w.key("start_ns").value(span.start_ns);
    w.key("end_ns").value(span.end_ns);
    if (span.aggregate) {
      w.key("aggregate").value(true);
      w.key("calls").value(span.calls);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(options.out_path, std::ios::trunc);
  out << w.str() << "\n";
  if (!out) usage("cannot write " + options.out_path);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  if (!options.trace_dir.empty()) {
    TraceBenchmarkRegistry::global().add_dir(options.trace_dir);
  }
  const std::vector<ProbeJob> jobs = read_jobs(options.jobs_path);
  if (!options.checkpoint_dir.empty()) {
    std::filesystem::create_directories(options.checkpoint_dir);
  }

  std::vector<JobOutcome> outcomes;
  if (options.write_checkpoints) {
    outcomes = run_pool(jobs, [&](const ProbeJob& job) {
      return write_checkpoint(options, job);
    });
  } else {
    outcomes = run_pool(jobs, [&](const ProbeJob& job) {
      return simulate(options, job);
    });
  }
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!outcomes[i].ok) errors.push_back(jobs[i].id + ": " + outcomes[i].error);
  }

  auto tally = std::make_shared<StoreTally>();
  ServicePass service;
  if (!options.write_checkpoints) {
    std::shared_ptr<ResultStore> inner = make_result_store(
        StoreBackend::Tsv, options.store_path, /*verbose=*/false);
    service = service_pass(
        options, jobs,
        std::make_unique<TimedStore>(std::move(inner), tally),
        options.resubmit);
    errors.insert(errors.end(), service.errors.begin(), service.errors.end());
  }
  write_output(options, jobs, outcomes, service, errors, *tally);
  return errors.empty() ? 0 : 1;
}
