#pragma once

/// \file server.h
/// The ringclu_simd job engine: accepts parsed API requests, journals
/// job acceptance and completion, and hands each job's tasks to a
/// SimService, whose fair-share queue orders them across clients and
/// priority classes.
///
/// SimServer is deliberately socket-free — handle() maps one
/// HttpRequest to one HttpResponse, so the whole API surface is
/// unit-testable in process; the daemon (tools/ringclu_simd.cpp) plugs
/// handle() into an HttpServer.  All public methods are thread-safe
/// (connection threads call handle() concurrently; SimService workers
/// call the completion path).
///
/// Crash safety: every accepted/completed/failed transition is appended
/// to the job journal before it takes effect, so a kill -9'd
/// daemon restarted over the same journal + result store re-submits
/// exactly the incomplete work — finished tasks resolve as store hits
/// and are never re-simulated.  See DESIGN.md §13.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "harness/sim_service.h"
#include "server/http.h"
#include "server/journal.h"
#include "server/wire.h"
#include "stats/metric_sink.h"
#include "stats/metrics.h"

namespace ringclu {

/// A MetricSink that buffers rendered JSON Lines in memory for the
/// GET /v1/jobs/{id}/metrics chunked stream.  Late readers replay the
/// full series from line 0; readers block on wait_line() until the next
/// line lands or the buffer closes (job finished / server shutdown).
class MetricLineBuffer final : public MetricSink {
 public:
  void on_interval(const MetricRunContext& context,
                   const IntervalSample& sample) override;
  void on_run_complete(const MetricRunContext& context,
                       const SimResult& result) override;
  [[nodiscard]] std::string describe() const override { return "buffer"; }

  /// No further lines will arrive; wakes every blocked reader.
  void close();

  /// Line \p index, blocking until it exists.  nullopt once the buffer
  /// is closed and \p index is past the end.
  [[nodiscard]] std::optional<std::string> wait_line(
      std::size_t index) const;

 private:
  void push(std::string line);

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::vector<std::string> lines_;
  bool closed_ = false;
};

struct SimServerOptions {
  /// Store/threads/checkpoint configuration (the RINGCLU_* surface).
  RunnerOptions runner;
  /// Job journal path; "" disables crash recovery.
  std::string journal_path;
};

/// The job engine.  Construction replays the journal (re-submitting
/// incomplete jobs); destruction drains the service.
class SimServer {
 public:
  explicit SimServer(SimServerOptions options);
  ~SimServer();

  SimServer(const SimServer&) = delete;
  SimServer& operator=(const SimServer&) = delete;

  /// Upper bound of GET /v1/jobs/{id}?wait_ms=N, the status long-poll.
  static constexpr std::uint64_t kMaxStatusWaitMs = 30000;

  /// Routes one API request.  Thread-safe.  A status request with
  /// wait_ms blocks its caller until the job is terminal, the wait ends
  /// or a shutdown is requested.
  [[nodiscard]] HttpResponse handle(const HttpRequest& request);

  /// Stops accepting jobs (POST /v1/jobs returns 503 from now on).
  void request_shutdown();
  [[nodiscard]] bool shutdown_requested() const;

  /// Waits up to \p timeout_ms for shutdown_requested() AND all accepted
  /// work drained.  Returns true when drained.
  [[nodiscard]] bool wait_drained_ms(int timeout_ms);

  // Introspection (tests, gauges, the daemon's log line).
  [[nodiscard]] SimService& service() { return *service_; }
  [[nodiscard]] std::size_t replayed_jobs() const;
  [[nodiscard]] std::size_t journal_corrupt_lines() const;
  [[nodiscard]] std::size_t jobs_total() const;

 private:
  struct Task {
    SimJob job;
    std::optional<SimResult> result;
    std::string error;
    bool failed = false;
  };

  /// A job is Queued until one of its tasks leaves the service queue,
  /// Running after that, until it is Completed or Failed.
  enum class JobState { Queued, Running, Completed, Failed };
  [[nodiscard]] static std::string_view job_state_name(JobState state);

  struct Job {
    std::string id;
    std::string client;
    PriorityClass priority = PriorityClass::Normal;
    std::string name;
    bool sweep = false;
    std::uint64_t interval = 0;
    /// Queued until the job is Completed or Failed; reported_state()
    /// tells Queued from Running.
    JobState state = JobState::Queued;
    std::vector<Task> tasks;
    /// The tasks' service handles, in task order (empty for history).
    std::vector<JobHandle> handles;
    std::size_t done = 0;
    std::size_t failed = 0;
    /// Streaming jobs only: the live metrics line buffer.
    std::shared_ptr<MetricLineBuffer> metrics;
  };

  // Routing targets.
  HttpResponse handle_submit(const std::string& body);
  HttpResponse handle_status(const std::string& id,
                             const std::map<std::string, std::string>& query);
  HttpResponse handle_result(const std::string& id,
                             const std::map<std::string, std::string>& query);
  HttpResponse handle_metrics(const std::string& id);
  HttpResponse handle_server_metrics();
  HttpResponse handle_shutdown();

  /// Creates a job from \p request, journals acceptance (unless
  /// replaying) and submits its tasks to the service.  Returns the id.
  std::string accept_job(JobRequest request, JsonValue request_doc,
                         bool replay, std::string replay_id);
  /// \p job's reported state.  \pre mutex_ held.
  [[nodiscard]] static JobState reported_state(const Job& job);
  /// Completion path (SimService worker threads and inline store hits).
  void task_done(const std::string& id, std::size_t index,
                 std::optional<SimResult> result, std::string error);
  /// Re-runs store-hit submissions for a replayed-complete job whose
  /// in-memory results are missing.  Blocks; call without the lock.
  bool materialize_results(const std::string& id, std::string* error);
  void register_gauges();
  void replay_journal();

  SimServerOptions options_;
  std::vector<std::string> default_benchmarks_;
  JobJournal journal_;
  Registry<GaugeDesc> gauges_;

  mutable std::mutex mutex_;
  /// Notified when a task finishes and on shutdown; wakes the drain wait
  /// and every status long-poll.
  std::condition_variable drain_cv_;
  // Keyed lookups; iterated only during replay accounting (std::map:
  // deterministic order).
  std::map<std::string, Job> jobs_;
  std::uint64_t next_job_number_ = 1;
  bool shutdown_ = false;
  std::size_t replayed_jobs_ = 0;
  std::size_t corrupt_lines_ = 0;
  std::size_t jobs_finished_ = 0;
  /// Aggregate throughput accumulators over executed tasks (store hits
  /// carry no wall time and are excluded).
  double executed_instrs_ = 0;
  double executed_seconds_ = 0;

  /// Declared last: its destructor runs first and may still invoke
  /// task_done (running jobs finish during ~SimService), which touches
  /// every member above.
  std::unique_ptr<SimService> service_;
};

}  // namespace ringclu
