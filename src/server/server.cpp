#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/config.h"
#include "util/format.h"
#include "util/json.h"

namespace ringclu {

// ---- MetricLineBuffer --------------------------------------------------

void MetricLineBuffer::on_interval(const MetricRunContext& context,
                                   const IntervalSample& sample) {
  push(interval_to_json(context, sample));
}

void MetricLineBuffer::on_run_complete(const MetricRunContext& context,
                                       const SimResult& result) {
  (void)context;
  push(result_to_json(result));
}

void MetricLineBuffer::push(std::string line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  lines_.push_back(std::move(line));
  cv_.notify_all();
}

void MetricLineBuffer::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  cv_.notify_all();
}

std::optional<std::string> MetricLineBuffer::wait_line(
    std::size_t index) const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return closed_ || index < lines_.size(); });
  if (index < lines_.size()) return lines_[index];
  return std::nullopt;
}

// ---- SimServer ---------------------------------------------------------

namespace {

HttpResponse json_response(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

HttpResponse error_response(int status, std::string_view message) {
  return json_response(status, error_body(message));
}

/// Numeric part of a "j%06u" job id; nullopt for anything else.
std::optional<std::uint64_t> job_id_number(std::string_view id) {
  if (id.size() < 2 || id.front() != 'j') return std::nullopt;
  std::uint64_t number = 0;
  for (const char ch : id.substr(1)) {
    if (ch < '0' || ch > '9') return std::nullopt;
    number = number * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return number;
}

}  // namespace

std::string_view SimServer::job_state_name(JobState state) {
  switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "unknown";
}

SimServer::SimServer(SimServerOptions options)
    : options_(std::move(options)),
      default_benchmarks_(default_benchmarks()),
      journal_(options_.journal_path) {
  window_ = options_.dispatch_window > 0
                ? options_.dispatch_window
                : std::max(2, options_.runner.threads);
  register_gauges();
  service_ = std::make_unique<SimService>(options_.runner);
  replay_journal();
  pump();
}

SimServer::~SimServer() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    destroying_ = true;
  }
  // Finishes running jobs (their completions still flow through
  // task_done) and cancels queued ones.
  service_.reset();
  // Unblock any reader still attached to a metrics stream.
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, job] : jobs_) {
    if (job.metrics) job.metrics->close();
  }
}

void SimServer::register_gauges() {
  const auto add = [this](const char* name, const char* unit,
                          const char* description,
                          std::function<double()> value) {
    GaugeDesc gauge;
    gauge.name = name;
    gauge.unit = unit;
    gauge.description = description;
    gauge.value = std::move(value);
    gauges_.add(std::move(gauge));
  };
  const auto depth = [this](PriorityClass cls) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<double>(scheduler_.depth(cls));
  };
  add("queue_depth_high", "tasks", "scheduler depth, high class",
      [depth] { return depth(PriorityClass::High); });
  add("queue_depth_normal", "tasks", "scheduler depth, normal class",
      [depth] { return depth(PriorityClass::Normal); });
  add("queue_depth_low", "tasks", "scheduler depth, low class",
      [depth] { return depth(PriorityClass::Low); });
  add("tasks_in_flight", "tasks", "tasks dispatched into the SimService",
      [this] {
        const std::lock_guard<std::mutex> lock(mutex_);
        return static_cast<double>(in_flight_);
      });
  add("jobs_total", "jobs", "jobs accepted since journal start", [this] {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<double>(jobs_.size());
  });
  add("jobs_finished", "jobs", "jobs in a terminal state", [this] {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<double>(jobs_finished_);
  });
  add("simulations_run", "count", "simulations actually executed",
      [this] { return static_cast<double>(service_->stats().simulations); });
  add("store_hits", "count", "submissions served from the result store",
      [this] { return static_cast<double>(service_->stats().store_hits); });
  add("coalesced_submissions", "count",
      "submissions coalesced onto an in-flight duplicate",
      [this] { return static_cast<double>(service_->stats().coalesced); });
  add("workers_started", "threads", "SimService workers started",
      [this] { return static_cast<double>(service_->stats().workers); });
  add("aggregate_sim_instrs_per_second", "instr/s",
      "simulated instructions per wall second over executed tasks",
      [this] {
        const std::lock_guard<std::mutex> lock(mutex_);
        return executed_seconds_ > 0 ? executed_instrs_ / executed_seconds_
                                     : 0.0;
      });
  add("journal_replayed_jobs", "jobs",
      "incomplete jobs re-submitted by journal replay", [this] {
        const std::lock_guard<std::mutex> lock(mutex_);
        return static_cast<double>(replayed_jobs_);
      });
  add("journal_corrupt_lines", "lines",
      "journal lines skipped as corrupt", [this] {
        const std::lock_guard<std::mutex> lock(mutex_);
        return static_cast<double>(corrupt_lines_);
      });
}

void SimServer::replay_journal() {
  JobJournal::LoadResult loaded = journal_.load();
  // Fold the record stream into per-job final states.
  struct Replayed {
    JournalRecord accepted;
    std::string terminal;  ///< "", "completed", "failed", "cancelled"
    std::string error;
    std::uint64_t order = 0;
  };
  std::map<std::string, Replayed> folded;
  std::vector<std::string> order;
  for (JournalRecord& record : loaded.records) {
    if (record.event == "accepted") {
      if (folded.count(record.id) != 0) {
        ++loaded.corrupt_lines;  // duplicate accept: keep the first
        continue;
      }
      Replayed entry;
      entry.accepted = std::move(record);
      const std::string id = entry.accepted.id;
      folded.emplace(id, std::move(entry));
      order.push_back(id);
      continue;
    }
    const auto it = folded.find(record.id);
    if (it == folded.end()) continue;  // terminal without accept: ignore
    if (record.event == "completed" || record.event == "failed" ||
        record.event == "cancelled") {
      it->second.terminal = record.event;
      it->second.error = std::move(record.error);
    }
  }

  std::uint64_t max_number = 0;
  for (const std::string& id : order) {
    Replayed& entry = folded.at(id);
    max_number = std::max(max_number, job_id_number(id).value_or(0));
    std::string error;
    std::optional<JobRequest> request = parse_job_request(
        json_compact(entry.accepted.request), options_.runner.run_params(),
        default_benchmarks_, &error);
    if (!request) {
      // The journaled request no longer parses (schema drift): surface
      // it as a failed job rather than dying or dropping it silently.
      Job job;
      job.id = id;
      job.client = entry.accepted.client;
      job.state = JobState::Failed;
      job.name = "unreplayable";
      job.tasks.resize(1);
      job.tasks[0].failed = true;
      job.tasks[0].error = "replay: " + error;
      job.failed = 1;
      ++jobs_finished_;
      jobs_.emplace(id, std::move(job));
      continue;
    }
    const bool incomplete = entry.terminal.empty();
    JobRequest parsed = *std::move(request);
    if (incomplete) {
      ++replayed_jobs_;
      accept_job(std::move(parsed), JsonValue(), /*replay=*/true, id);
      continue;
    }
    // Terminal job: restore as history.  Results are not kept in the
    // journal — a completed job's results re-materialize from the
    // result store on first fetch (store hits, never re-simulation).
    Job job;
    job.id = id;
    job.client = parsed.client;
    job.priority = parsed.priority;
    job.name = parsed.name;
    job.sweep = parsed.sweep;
    job.interval = parsed.interval;
    for (SimJob& task_job : parsed.tasks) {
      Task task;
      task.job = std::move(task_job);
      job.tasks.push_back(std::move(task));
    }
    if (entry.terminal == "completed") {
      job.state = JobState::Completed;
      job.done = job.tasks.size();
    } else if (entry.terminal == "failed") {
      job.state = JobState::Failed;
      job.failed = job.tasks.size();
      if (!job.tasks.empty()) job.tasks[0].error = entry.error;
    } else {
      job.state = JobState::Cancelled;
    }
    ++jobs_finished_;
    jobs_.emplace(id, std::move(job));
  }
  corrupt_lines_ = loaded.corrupt_lines;
  next_job_number_ = std::max(next_job_number_, max_number + 1);
}

std::string SimServer::accept_job(JobRequest request, JsonValue request_doc,
                                  bool replay, std::string replay_id) {
  std::string id;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = replay ? std::move(replay_id)
                : str_format("j%06llu",
                             static_cast<unsigned long long>(
                                 next_job_number_++));
    Job job;
    job.id = id;
    job.client = request.client;
    job.priority = request.priority;
    job.name = request.name;
    job.sweep = request.sweep;
    job.interval = request.interval;
    if (request.interval > 0) {
      job.metrics = std::make_shared<MetricLineBuffer>();
    }
    for (SimJob& task_job : request.tasks) {
      if (job.metrics) task_job.sink = job.metrics.get();
      Task task;
      task.job = std::move(task_job);
      job.tasks.push_back(std::move(task));
    }
    const std::size_t task_count = job.tasks.size();
    jobs_.emplace(id, std::move(job));
    for (std::size_t i = 0; i < task_count; ++i) {
      SchedEntry entry;
      entry.job_id = id;
      entry.task = i;
      entry.client = request.client;
      entry.priority = request.priority;
      entry.seq = next_seq_++;
      scheduler_.enqueue(std::move(entry));
    }
  }
  if (!replay) {
    JournalRecord record;
    record.event = "accepted";
    record.id = id;
    record.client = request.client;
    record.priority = std::string(priority_class_name(request.priority));
    record.request = std::move(request_doc);
    journal_.append(std::move(record));
  }
  pump();
  return id;
}

void SimServer::pump() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (destroying_) return;
    if (pumping_) {
      repump_ = true;
      return;
    }
    pumping_ = true;
  }
  struct Dispatch {
    std::string id;
    std::size_t index = 0;
    SimJob job;
  };
  for (;;) {
    std::vector<Dispatch> batch;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      repump_ = false;
      while (in_flight_ < static_cast<std::size_t>(window_)) {
        std::optional<SchedEntry> entry = scheduler_.dequeue();
        if (!entry) break;
        Job& job = jobs_.at(entry->job_id);
        if (job.state == JobState::Cancelled) continue;
        if (job.state == JobState::Queued) {
          job.state = JobState::Running;
          JournalRecord record;
          record.event = "started";
          record.id = job.id;
          journal_.append(std::move(record));
        }
        ++in_flight_;
        Dispatch dispatch;
        dispatch.id = entry->job_id;
        dispatch.index = entry->task;
        dispatch.job = job.tasks[entry->task].job;
        batch.push_back(std::move(dispatch));
      }
      if (batch.empty()) {
        if (repump_) continue;
        pumping_ = false;
        return;
      }
    }
    for (Dispatch& dispatch : batch) {
      JobHandle handle = service_->submit(std::move(dispatch.job));
      const JobStatus status = handle.status();
      if (status == JobStatus::Failed) {
        task_done(dispatch.id, dispatch.index, std::nullopt,
                  handle.error());
      } else if (status == JobStatus::Cancelled) {
        task_done(dispatch.id, dispatch.index, std::nullopt,
                  "cancelled by service shutdown");
      } else {
        const std::string id = dispatch.id;
        const std::size_t index = dispatch.index;
        handle.on_complete([this, id, index](const SimResult& result) {
          task_done(id, index, result, std::string());
        });
      }
    }
  }
}

void SimServer::task_done(const std::string& id, std::size_t index,
                          std::optional<SimResult> result,
                          std::string error) {
  std::shared_ptr<MetricLineBuffer> to_close;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Job& job = jobs_.at(id);
    Task& task = job.tasks[index];
    if (result.has_value()) {
      if (result->wall_seconds > 0) {
        executed_instrs_ += static_cast<double>(result->total_committed);
        executed_seconds_ += result->wall_seconds;
      }
      task.result = std::move(result);
      ++job.done;
    } else {
      task.failed = true;
      task.error = std::move(error);
      ++job.failed;
    }
    if (in_flight_ > 0) --in_flight_;
    if (job.done + job.failed == job.tasks.size() &&
        job.state == JobState::Running) {
      job.state = job.failed > 0 ? JobState::Failed : JobState::Completed;
      ++jobs_finished_;
      JournalRecord record;
      record.event = job.failed > 0 ? "failed" : "completed";
      record.id = job.id;
      if (job.failed > 0) {
        for (const Task& done_task : job.tasks) {
          if (done_task.failed) {
            record.error = done_task.error;
            break;
          }
        }
      }
      journal_.append(std::move(record));
      to_close = job.metrics;
    }
    drain_cv_.notify_all();
  }
  if (to_close) to_close->close();
  pump();
}

// ---- API surface -------------------------------------------------------

HttpResponse SimServer::handle(const HttpRequest& request) {
  const SplitTarget target = split_target(request.target);
  const std::string& path = target.path;
  if (path == "/v1/jobs") {
    if (request.method != "POST") {
      return error_response(405, "POST required");
    }
    return handle_submit(request.body);
  }
  if (path == "/v1/server/metrics") {
    if (request.method != "GET") return error_response(405, "GET required");
    return handle_server_metrics();
  }
  if (path == "/v1/shutdown") {
    if (request.method != "POST") {
      return error_response(405, "POST required");
    }
    return handle_shutdown();
  }
  const std::string_view prefix = "/v1/jobs/";
  if (path.size() > prefix.size() && path.compare(0, prefix.size(),
                                                  prefix) == 0) {
    const std::string_view rest =
        std::string_view(path).substr(prefix.size());
    const std::size_t slash = rest.find('/');
    const std::string id(rest.substr(0, slash));
    const std::string_view sub =
        slash == std::string_view::npos ? std::string_view()
                                        : rest.substr(slash + 1);
    if (sub.empty()) {
      if (request.method != "GET") return error_response(405, "GET required");
      return handle_status(id, target.query);
    }
    if (sub == "result") {
      if (request.method != "GET") return error_response(405, "GET required");
      return handle_result(id, target.query);
    }
    if (sub == "metrics") {
      if (request.method != "GET") return error_response(405, "GET required");
      return handle_metrics(id);
    }
  }
  return error_response(404, "no such endpoint");
}

HttpResponse SimServer::handle_submit(const std::string& body) {
  if (shutdown_requested()) {
    return error_response(503, "server is draining");
  }
  std::string error;
  std::optional<JobRequest> request = parse_job_request(
      body, options_.runner.run_params(), default_benchmarks_, &error);
  if (!request) return error_response(400, error);
  // Re-parse the body for the journal record (bounded; already valid).
  std::optional<JsonValue> doc = json_parse(body, kWireParseLimits);
  const std::size_t tasks = request->tasks.size();
  const bool sweep = request->sweep;
  const std::string id = accept_job(*std::move(request), *std::move(doc),
                                    /*replay=*/false, std::string());
  return json_response(
      202, str_format("{\"id\":\"%s\",\"tasks\":%zu,\"sweep\":%s}",
                      id.c_str(), tasks, sweep ? "true" : "false"));
}

HttpResponse SimServer::handle_status(
    const std::string& id,
    const std::map<std::string, std::string>& query) {
  std::uint64_t wait_ms = 0;
  if (const auto wait_it = query.find("wait_ms"); wait_it != query.end()) {
    const std::optional<std::uint64_t> parsed = parse_uint(wait_it->second);
    if (!parsed || *parsed > kMaxStatusWaitMs) {
      return error_response(
          400, str_format("wait_ms must be an integer in 0..%llu",
                          static_cast<unsigned long long>(kMaxStatusWaitMs)));
    }
    wait_ms = *parsed;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return error_response(404, "unknown job id");
  // Long-poll: hold the reply until the job is terminal or the wait ends.
  // A shutdown ends every wait at once, so a drain never waits on one.
  // Host-side wait only; never feeds simulated numbers.
  if (wait_ms > 0) {
    // ringclu-lint: allow(wallclock: bounded long-poll wait)
    drain_cv_.wait_for(lock, std::chrono::milliseconds(wait_ms), [&] {
      const JobState state = it->second.state;
      return shutdown_ || (state != JobState::Queued &&
                           state != JobState::Running);
    });
  }
  const Job& job = it->second;
  return json_response(
      200,
      str_format("{\"id\":\"%s\",\"state\":\"%.*s\",\"client\":\"%s\","
                 "\"priority\":\"%.*s\",\"name\":\"%s\",\"sweep\":%s,"
                 "\"tasks\":%zu,\"completed\":%zu,\"failed\":%zu}",
                 job.id.c_str(),
                 static_cast<int>(job_state_name(job.state).size()),
                 job_state_name(job.state).data(),
                 json_escape(job.client).c_str(),
                 static_cast<int>(priority_class_name(job.priority).size()),
                 priority_class_name(job.priority).data(),
                 json_escape(job.name).c_str(),
                 job.sweep ? "true" : "false", job.tasks.size(), job.done,
                 job.failed));
}

bool SimServer::materialize_results(const std::string& id,
                                    std::string* error) {
  // Collect the missing tasks (replayed-complete jobs keep results only
  // in the store).
  std::vector<std::pair<std::size_t, SimJob>> missing;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Job& job = jobs_.at(id);
    for (std::size_t i = 0; i < job.tasks.size(); ++i) {
      if (!job.tasks[i].result.has_value() && !job.tasks[i].failed) {
        missing.emplace_back(i, job.tasks[i].job);
      }
    }
  }
  if (missing.empty()) return true;
  std::vector<SimJob> jobs;
  jobs.reserve(missing.size());
  for (auto& [index, job] : missing) jobs.push_back(job);
  // Store hits for journaled-complete work; simulates only if the store
  // was lost (in which case re-running is the only correct answer).
  std::vector<JobHandle> handles = service_->submit_batch(std::move(jobs));
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (handles[i].wait() != JobStatus::Done) {
      *error = "could not materialize task result";
      return false;
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  Job& job = jobs_.at(id);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    Task& task = job.tasks[missing[i].first];
    if (!task.result.has_value()) task.result = handles[i].result();
  }
  return true;
}

HttpResponse SimServer::handle_result(
    const std::string& id,
    const std::map<std::string, std::string>& query) {
  JobState state = JobState::Queued;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return error_response(404, "unknown job id");
    state = it->second.state;
  }
  if (state == JobState::Queued || state == JobState::Running) {
    return error_response(409, "job not finished");
  }
  if (state == JobState::Cancelled) {
    return error_response(410, "job was cancelled");
  }
  if (state == JobState::Failed) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Job& job = jobs_.at(id);
    for (const Task& task : job.tasks) {
      if (task.failed) return error_response(500, task.error);
    }
    return error_response(500, "job failed");
  }
  std::string error;
  if (!materialize_results(id, &error)) {
    return error_response(500, error);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const Job& job = jobs_.at(id);
  const auto task_it = query.find("task");
  if (task_it != query.end()) {
    std::size_t index = 0;
    for (const char ch : task_it->second) {
      if (ch < '0' || ch > '9') return error_response(400, "bad task index");
      index = index * 10 + static_cast<std::size_t>(ch - '0');
    }
    if (task_it->second.empty() || index >= job.tasks.size()) {
      return error_response(404, "task index out of range");
    }
    return json_response(200, result_to_json(*job.tasks[index].result));
  }
  if (!job.sweep && job.tasks.size() == 1) {
    // Single runs return exactly the `ringclu_sim --json` document.
    return json_response(200, result_to_json(*job.tasks[0].result));
  }
  std::string body = str_format("{\"id\":\"%s\",\"name\":\"%s\",\"tasks\":[",
                                job.id.c_str(),
                                json_escape(job.name).c_str());
  for (std::size_t i = 0; i < job.tasks.size(); ++i) {
    const Task& task = job.tasks[i];
    if (i > 0) body += ',';
    body += str_format(
        "{\"config\":\"%s\",\"benchmark\":\"%s\",\"result\":",
        json_escape(task.job.config.name).c_str(),
        json_escape(task.job.benchmark).c_str());
    body += result_to_json(*task.result);
    body += '}';
  }
  body += "]}";
  return json_response(200, std::move(body));
}

HttpResponse SimServer::handle_metrics(const std::string& id) {
  std::shared_ptr<MetricLineBuffer> buffer;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return error_response(404, "unknown job id");
    buffer = it->second.metrics;
  }
  if (!buffer) {
    return error_response(
        409, "job does not stream metrics (submit with \"interval\")");
  }
  HttpResponse response;
  response.content_type = "application/jsonl";
  response.streamer = [buffer](const ChunkWriter& write_chunk) {
    for (std::size_t index = 0;; ++index) {
      const std::optional<std::string> line = buffer->wait_line(index);
      if (!line.has_value()) return;  // closed and drained
      if (!write_chunk(*line + "\n")) return;  // peer gone
    }
  };
  return response;
}

HttpResponse SimServer::handle_server_metrics() {
  return json_response(
      200, str_format("{\"server_schema\":1,\"gauges\":%s}",
                      sample_to_json(gauges_).c_str()));
}

HttpResponse SimServer::handle_shutdown() {
  std::size_t pending = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    pending = scheduler_.depth() + in_flight_;
    drain_cv_.notify_all();
  }
  return json_response(
      200, str_format("{\"ok\":true,\"pending\":%zu}", pending));
}

void SimServer::request_shutdown() {
  const std::lock_guard<std::mutex> lock(mutex_);
  shutdown_ = true;
  drain_cv_.notify_all();
}

bool SimServer::shutdown_requested() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_;
}

bool SimServer::wait_drained_ms(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Host-side wait only; never feeds simulated numbers.
  // ringclu-lint: allow(wallclock: bounded drain wait)
  return drain_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [this] {
                              return shutdown_ && scheduler_.empty() &&
                                     in_flight_ == 0;
                            });
}

std::size_t SimServer::replayed_jobs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return replayed_jobs_;
}

std::size_t SimServer::journal_corrupt_lines() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return corrupt_lines_;
}

std::size_t SimServer::jobs_total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

}  // namespace ringclu
