// ringclu_simd subsystem tests: fair-share scheduler policy (exact
// dequeue order), journal round-trip + corruption tolerance, wire-format
// parsing, endpoint conformance through SimServer::handle(), crash
// recovery (kill -9 equivalent: journal written, process state lost),
// and HTTP/1.1 framing over real sockets.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "server/http.h"
#include "server/journal.h"
#include "server/scheduler.h"
#include "server/server.h"
#include "server/wire.h"
#include "stats/metrics.h"

namespace ringclu {
namespace {

using namespace std::chrono_literals;

// ---- FairScheduler -----------------------------------------------------

SchedEntry entry(const std::string& job, std::size_t task,
                 const std::string& client, PriorityClass priority,
                 std::uint64_t seq) {
  SchedEntry out;
  out.job_id = job;
  out.task = task;
  out.client = client;
  out.priority = priority;
  out.seq = seq;
  return out;
}

std::vector<std::string> drain(FairScheduler& scheduler) {
  std::vector<std::string> order;
  while (std::optional<SchedEntry> next = scheduler.dequeue()) {
    order.push_back(next->job_id);
  }
  return order;
}

// The policy is deterministic, so the expected order is exact: weighted
// round-robin across classes (4/2/1), round-robin across clients within
// a class, FIFO within a client.
TEST(FairScheduler, DequeueOrderIsExact) {
  FairScheduler scheduler;
  std::uint64_t seq = 0;
  scheduler.enqueue(entry("H1a", 0, "h1", PriorityClass::High, ++seq));
  scheduler.enqueue(entry("H1b", 0, "h1", PriorityClass::High, ++seq));
  scheduler.enqueue(entry("H1c", 0, "h1", PriorityClass::High, ++seq));
  scheduler.enqueue(entry("H2a", 0, "h2", PriorityClass::High, ++seq));
  scheduler.enqueue(entry("N1a", 0, "n1", PriorityClass::Normal, ++seq));
  scheduler.enqueue(entry("N1b", 0, "n1", PriorityClass::Normal, ++seq));
  scheduler.enqueue(entry("N2a", 0, "n2", PriorityClass::Normal, ++seq));
  scheduler.enqueue(entry("N2b", 0, "n2", PriorityClass::Normal, ++seq));
  scheduler.enqueue(entry("L1a", 0, "l1", PriorityClass::Low, ++seq));
  scheduler.enqueue(entry("L1b", 0, "l1", PriorityClass::Low, ++seq));
  EXPECT_EQ(scheduler.depth(), 10u);
  EXPECT_EQ(scheduler.depth(PriorityClass::High), 4u);

  const std::vector<std::string> expected = {"H1a", "H2a", "H1b", "H1c",
                                             "N1a", "N2a", "L1a", "N1b",
                                             "N2b", "L1b"};
  EXPECT_EQ(drain(scheduler), expected);
  EXPECT_TRUE(scheduler.empty());
}

// A large high-priority backlog cannot starve a low-priority client: the
// low task is dequeued within one WRR cycle (position 5 here, after the
// high class burns its 4 credits and the empty normal class is skipped).
TEST(FairScheduler, LowPriorityIsNeverStarved) {
  FairScheduler scheduler;
  std::uint64_t seq = 0;
  for (int i = 0; i < 10; ++i) {
    scheduler.enqueue(entry("high", 0, "big", PriorityClass::High, ++seq));
  }
  scheduler.enqueue(entry("low", 0, "small", PriorityClass::Low, ++seq));

  std::vector<std::string> first5;
  for (int i = 0; i < 5; ++i) first5.push_back(scheduler.dequeue()->job_id);
  EXPECT_EQ(first5[4], "low");
}

TEST(FairScheduler, WeightsSplitOneCycle421) {
  FairScheduler scheduler;
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    scheduler.enqueue(entry("H", 0, "a", PriorityClass::High, ++seq));
    scheduler.enqueue(entry("N", 0, "a", PriorityClass::Normal, ++seq));
    scheduler.enqueue(entry("L", 0, "a", PriorityClass::Low, ++seq));
  }
  const std::vector<std::string> cycle = {"H", "H", "H", "H", "N", "N", "L"};
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    EXPECT_EQ(scheduler.dequeue()->job_id, cycle[i]) << "position " << i;
  }
}

TEST(FairScheduler, ClientsInOneClassRoundRobin) {
  FairScheduler scheduler;
  std::uint64_t seq = 0;
  for (int i = 0; i < 3; ++i) {
    scheduler.enqueue(entry(std::string("A").append(std::to_string(i)), 0,
                            "alice", PriorityClass::Normal, ++seq));
  }
  scheduler.enqueue(entry("B0", 0, "bob", PriorityClass::Normal, ++seq));
  const std::vector<std::string> expected = {"A0", "B0", "A1", "A2"};
  EXPECT_EQ(drain(scheduler), expected);
}

TEST(FairScheduler, ParsePriorityClassRoundTrips) {
  for (const PriorityClass cls :
       {PriorityClass::High, PriorityClass::Normal, PriorityClass::Low}) {
    EXPECT_EQ(parse_priority_class(priority_class_name(cls)), cls);
  }
  EXPECT_FALSE(parse_priority_class("urgent").has_value());
  EXPECT_FALSE(parse_priority_class("").has_value());
}

// ---- JobJournal --------------------------------------------------------

class TempDir {
 public:
  TempDir() : path_(std::filesystem::path(testing::TempDir()) /
                    ("ringclu_server_test_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(counter_++))) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

TEST(JobJournal, AppendLoadRoundTrip) {
  TempDir dir;
  const std::string path = dir.file("journal.jsonl");
  {
    JobJournal journal(path);
    ASSERT_TRUE(journal.enabled());
    JournalRecord accepted;
    accepted.event = "accepted";
    accepted.id = "j000001";
    accepted.client = "alice";
    accepted.priority = "high";
    accepted.request =
        *json_parse(R"({"benchmark":"gzip","config":"Ring_4clus_1bus_2IW"})");
    journal.append(std::move(accepted));
    JournalRecord started;
    started.event = "started";
    started.id = "j000001";
    journal.append(std::move(started));
    JournalRecord failed;
    failed.event = "failed";
    failed.id = "j000001";
    failed.error = "boom";
    journal.append(std::move(failed));
  }
  JobJournal reader(path);
  const JobJournal::LoadResult loaded = reader.load();
  EXPECT_EQ(loaded.corrupt_lines, 0u);
  ASSERT_EQ(loaded.records.size(), 3u);
  EXPECT_EQ(loaded.records[0].event, "accepted");
  EXPECT_EQ(loaded.records[0].seq, 1u);
  EXPECT_EQ(loaded.records[0].client, "alice");
  EXPECT_EQ(loaded.records[0].priority, "high");
  ASSERT_NE(loaded.records[0].request.find("benchmark"), nullptr);
  EXPECT_EQ(loaded.records[0].request.find("benchmark")->string, "gzip");
  EXPECT_EQ(loaded.records[1].event, "started");
  EXPECT_EQ(loaded.records[2].event, "failed");
  EXPECT_EQ(loaded.records[2].error, "boom");

  // Appends after a load continue the sequence.
  JournalRecord next;
  next.event = "cancelled";
  next.id = "j000001";
  reader.append(std::move(next));
  JobJournal again(path);
  const JobJournal::LoadResult reloaded = again.load();
  ASSERT_EQ(reloaded.records.size(), 4u);
  EXPECT_EQ(reloaded.records[3].seq, 4u);
}

TEST(JobJournal, CorruptLinesAreSkippedNotFatal) {
  TempDir dir;
  const std::string path = dir.file("journal.jsonl");
  std::ofstream out(path);
  out << R"({"journal_schema":1,"seq":1,"event":"started","id":"j000001"})"
      << "\n";
  out << "this is not json\n";
  out << R"({"journal_schema":99,"seq":2,"event":"started","id":"j000002"})"
      << "\n";
  out << R"({"journal_schema":1,"seq":2,"event":"accepted","id":"j000003"})"
      << "\n";  // accepted without a request object: corrupt
  out << R"({"journal_schema":1,"seq":3,"event":"completed","id":"j000001"})"
      << "\n";
  out.close();

  JobJournal journal(path);
  const JobJournal::LoadResult loaded = journal.load();
  EXPECT_EQ(loaded.corrupt_lines, 3u);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_EQ(loaded.records[0].id, "j000001");
  EXPECT_EQ(loaded.records[1].event, "completed");
}

TEST(JobJournal, EmptyPathDisablesJournaling) {
  JobJournal journal("");
  EXPECT_FALSE(journal.enabled());
  JournalRecord record;
  record.event = "started";
  record.id = "j000001";
  journal.append(std::move(record));  // no-op, no crash
  EXPECT_TRUE(journal.load().records.empty());
}

// ---- Wire format -------------------------------------------------------

RunParams test_defaults() { return RunParams{2000, 200, 42}; }

const std::vector<std::string> kBenchmarks = {"gzip", "swim"};

TEST(Wire, SingleRunParsesWithDefaults) {
  std::string error;
  const std::optional<JobRequest> request = parse_job_request(
      R"({"config":"Ring_4clus_1bus_2IW","benchmark":"gzip"})",
      test_defaults(), kBenchmarks, &error);
  ASSERT_TRUE(request.has_value()) << error;
  EXPECT_FALSE(request->sweep);
  EXPECT_EQ(request->client, "anon");
  EXPECT_EQ(request->priority, PriorityClass::Normal);
  EXPECT_EQ(request->name, "Ring_4clus_1bus_2IW:gzip");
  ASSERT_EQ(request->tasks.size(), 1u);
  EXPECT_EQ(request->tasks[0].benchmark, "gzip");
  EXPECT_EQ(request->tasks[0].params.instrs, 2000u);
  EXPECT_EQ(request->tasks[0].params.warmup, 200u);
}

TEST(Wire, RunOverridesRescaleWarmup) {
  std::string error;
  const std::optional<JobRequest> request = parse_job_request(
      R"({"config":"Ring_4clus_1bus_2IW","benchmark":"gzip",)"
      R"("run":{"instrs":5000},"client":"alice","priority":"high",)"
      R"("interval":500})",
      test_defaults(), kBenchmarks, &error);
  ASSERT_TRUE(request.has_value()) << error;
  EXPECT_EQ(request->tasks[0].params.instrs, 5000u);
  EXPECT_EQ(request->tasks[0].params.warmup, 500u);  // instrs/10, not 200
  EXPECT_EQ(request->client, "alice");
  EXPECT_EQ(request->priority, PriorityClass::High);
  EXPECT_EQ(request->interval, 500u);
  EXPECT_EQ(request->tasks[0].params.interval, 500u);
}

TEST(Wire, RejectsBadRequests) {
  const struct {
    const char* body;
    const char* why;
  } cases[] = {
      {"", "empty"},
      {"not json", "malformed"},
      {"[1,2]", "not an object"},
      {R"({"config":"Ring_4clus_1bus_2IW"})", "missing benchmark"},
      {R"({"config":"Ring_4clus_1bus_2IW","benchmark":"nope"})",
       "unknown benchmark"},
      {R"({"config":"NoSuchPreset","benchmark":"gzip"})", "unknown preset"},
      {R"({"config":"Ring_4clus_1bus_2IW","benchmark":"gzip","bogus":1})",
       "unknown key"},
      {R"({"config":"Ring_4clus_1bus_2IW","benchmark":"gzip",)"
       R"("priority":"urgent"})",
       "bad priority"},
      {R"({"config":"Ring_4clus_1bus_2IW","benchmark":"gzip",)"
       R"("run":{"instrs":-5}})",
       "negative instrs"},
      {R"({"sweep":{"sweep_schema":1},"interval":100})",
       "interval on a sweep"},
  };
  for (const auto& bad : cases) {
    std::string error;
    EXPECT_FALSE(parse_job_request(bad.body, test_defaults(), kBenchmarks,
                                   &error)
                     .has_value())
        << bad.why;
    EXPECT_FALSE(error.empty()) << bad.why;
  }
}

TEST(Wire, SweepExpandsToTasks) {
  std::string error;
  const std::optional<JobRequest> request = parse_job_request(
      R"({"sweep":{"sweep_schema":1,"name":"s","base":"Ring_4clus_1bus_2IW",)"
      R"("axes":[{"field":"num_buses","values":[1,2]}]},"client":"bob"})",
      test_defaults(), kBenchmarks, &error);
  ASSERT_TRUE(request.has_value()) << error;
  EXPECT_TRUE(request->sweep);
  EXPECT_EQ(request->name, "s");
  // 2 design points x 2 default benchmarks.
  EXPECT_EQ(request->tasks.size(), 4u);
}

TEST(Wire, SplitTargetSeparatesPathAndQuery) {
  const SplitTarget plain = split_target("/v1/jobs/j000001");
  EXPECT_EQ(plain.path, "/v1/jobs/j000001");
  EXPECT_TRUE(plain.query.empty());

  const SplitTarget query = split_target("/v1/jobs/j1/result?task=3&x=y");
  EXPECT_EQ(query.path, "/v1/jobs/j1/result");
  EXPECT_EQ(query.query.at("task"), "3");
  EXPECT_EQ(query.query.at("x"), "y");
}

TEST(Wire, ErrorBodyIsValidJson) {
  const std::string body = error_body("bad \"thing\"");
  const std::optional<JsonValue> doc = json_parse(body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("error")->string, "bad \"thing\"");
}

// ---- MetricLineBuffer --------------------------------------------------

TEST(MetricLineBuffer, BuffersLinesAndUnblocksOnClose) {
  MetricLineBuffer buffer;
  MetricRunContext context;
  context.config_name = "cfg";
  context.benchmark = "gzip";
  context.interval_instrs = 100;
  IntervalSample sample;
  sample.index = 0;
  sample.interval_instrs = 100;
  buffer.on_interval(context, sample);

  const std::optional<std::string> line = buffer.wait_line(0);
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"type\":\"interval\""), std::string::npos);

  // A reader blocked past the end wakes with a line when one lands...
  std::thread writer([&buffer, &context] {
    std::this_thread::sleep_for(20ms);
    IntervalSample next;
    next.index = 1;
    buffer.on_interval(context, next);
    buffer.close();
  });
  EXPECT_TRUE(buffer.wait_line(1).has_value());
  // ...and with nullopt once the buffer is closed and drained.
  EXPECT_FALSE(buffer.wait_line(2).has_value());
  writer.join();
  // Closed buffers drop further pushes.
  buffer.on_interval(context, sample);
  EXPECT_FALSE(buffer.wait_line(2).has_value());
}

// ---- Gauge registry ----------------------------------------------------

TEST(Registry, SamplesGaugesInRegistrationOrder) {
  Registry<GaugeDesc> gauges;
  double depth = 3;
  GaugeDesc first;
  first.name = "queue_depth";
  first.unit = "tasks";
  first.description = "d";
  first.value = [&depth] { return depth; };
  gauges.add(std::move(first));
  GaugeDesc second;
  second.name = "in_flight";
  second.unit = "tasks";
  second.description = "d";
  second.value = [] { return 1.5; };
  gauges.add(std::move(second));

  EXPECT_EQ(gauges.size(), 2u);
  EXPECT_NE(gauges.try_find("queue_depth"), nullptr);
  EXPECT_EQ(gauges.try_find("missing"), nullptr);
  EXPECT_EQ(sample_to_json(gauges),
            "{\"queue_depth\":3,\"in_flight\":1.5}");
  depth = 4;
  EXPECT_NE(sample_to_json(gauges).find("\"queue_depth\":4"),
            std::string::npos);
}

// ---- SimServer endpoint conformance ------------------------------------

HttpRequest http_get(std::string target) {
  HttpRequest request;
  request.method = "GET";
  request.target = std::move(target);
  return request;
}

HttpRequest http_post(std::string target, std::string body) {
  HttpRequest request;
  request.method = "POST";
  request.target = std::move(target);
  request.body = std::move(body);
  return request;
}

SimServerOptions server_options(const std::string& journal_path,
                                StoreBackend backend = StoreBackend::Memory,
                                const std::string& cache_path = "") {
  SimServerOptions options;
  options.runner.instrs = 2000;
  options.runner.warmup = 200;
  options.runner.threads = 2;
  options.runner.verbose = false;
  options.runner.cache_backend = backend;
  options.runner.cache_path = cache_path;
  options.journal_path = journal_path;
  return options;
}

constexpr const char* kSubmitBody =
    R"({"config":"Ring_4clus_1bus_2IW","benchmark":"gzip","client":"t"})";

std::string submit_ok(SimServer& server, const std::string& body) {
  const HttpResponse response = server.handle(http_post("/v1/jobs", body));
  EXPECT_EQ(response.status, 202) << response.body;
  const std::optional<JsonValue> doc = json_parse(response.body);
  EXPECT_TRUE(doc.has_value());
  return doc->find("id")->string;
}

/// Polls GET /v1/jobs/{id} until the job is terminal; returns the state.
std::string wait_terminal(SimServer& server, const std::string& id) {
  for (int i = 0; i < 3000; ++i) {
    const HttpResponse response = server.handle(http_get("/v1/jobs/" + id));
    EXPECT_EQ(response.status, 200);
    const std::string state =
        json_parse(response.body)->find("state")->string;
    if (state == "completed" || state == "failed" || state == "cancelled") {
      return state;
    }
    std::this_thread::sleep_for(5ms);
  }
  return "timeout";
}

TEST(SimServer, ErrorStatusesCarryJsonBodies) {
  SimServer server(server_options(""));
  const struct {
    HttpRequest request;
    int status;
  } cases[] = {
      {http_get("/v1/nope"), 404},
      {http_get("/v1/jobs"), 405},
      {http_post("/v1/server/metrics", ""), 405},
      {http_get("/v1/shutdown"), 405},
      {http_post("/v1/jobs", "{broken"), 400},
      {http_post("/v1/jobs",
                 R"({"config":"Ring_4clus_1bus_2IW","benchmark":"nope"})"),
       400},
      {http_get("/v1/jobs/j999999"), 404},
      {http_get("/v1/jobs/j999999/result"), 404},
      {http_get("/v1/jobs/j999999/metrics"), 404},
      {http_get("/v1/jobs/j999999/bogus"), 404},
  };
  for (const auto& bad : cases) {
    const HttpResponse response = server.handle(bad.request);
    EXPECT_EQ(response.status, bad.status) << bad.request.target;
    const std::optional<JsonValue> doc = json_parse(response.body);
    ASSERT_TRUE(doc.has_value()) << response.body;
    EXPECT_NE(doc->find("error"), nullptr) << response.body;
  }
}

TEST(SimServer, SubmitRunFetchResultLifecycle) {
  SimServer server(server_options(""));
  const std::string id = submit_ok(server, kSubmitBody);
  EXPECT_EQ(id, "j000001");
  EXPECT_EQ(wait_terminal(server, id), "completed");

  const HttpResponse result =
      server.handle(http_get("/v1/jobs/" + id + "/result"));
  EXPECT_EQ(result.status, 200);
  // Single runs return exactly the `ringclu_sim --json` document.
  const std::optional<JsonValue> doc = json_parse(result.body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("type")->string, "result");
  EXPECT_EQ(doc->find("config")->string, "Ring_4clus_1bus_2IW");
  EXPECT_EQ(doc->find("benchmark")->string, "gzip");

  // Deterministic replay: the same submission is a store hit with an
  // identical simulated payload.
  const std::string id2 = submit_ok(server, kSubmitBody);
  EXPECT_EQ(wait_terminal(server, id2), "completed");
  EXPECT_EQ(server.service().stats().simulations, 1u);
  EXPECT_GE(server.service().stats().store_hits, 1u);
}

TEST(SimServer, ResultBeforeCompletionIs409) {
  SimServer server(server_options(""));
  server.service().pause();
  const std::string id = submit_ok(server, kSubmitBody);
  const HttpResponse early =
      server.handle(http_get("/v1/jobs/" + id + "/result"));
  EXPECT_EQ(early.status, 409);
  server.service().resume();
  EXPECT_EQ(wait_terminal(server, id), "completed");
  EXPECT_EQ(server.handle(http_get("/v1/jobs/" + id + "/result")).status,
            200);
}

TEST(SimServer, SweepResultListsEveryTask) {
  SimServer server(server_options(""));
  const std::string id = submit_ok(
      server,
      R"({"sweep":{"sweep_schema":1,"name":"s","base":"Ring_4clus_1bus_2IW",)"
      R"("axes":[{"field":"num_buses","values":[1,2]}],)"
      R"("benchmarks":["gzip"],"run":{"instrs":2000,"warmup":200}}})");
  EXPECT_EQ(wait_terminal(server, id), "completed");

  const HttpResponse result =
      server.handle(http_get("/v1/jobs/" + id + "/result"));
  ASSERT_EQ(result.status, 200);
  const std::optional<JsonValue> doc = json_parse(result.body);
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("tasks"), nullptr);
  EXPECT_EQ(doc->find("tasks")->array.size(), 2u);

  // ?task=N returns the bare per-task report; out-of-range is 404.
  const HttpResponse one =
      server.handle(http_get("/v1/jobs/" + id + "/result?task=1"));
  EXPECT_EQ(one.status, 200);
  EXPECT_EQ(json_parse(one.body)->find("type")->string, "result");
  EXPECT_EQ(
      server.handle(http_get("/v1/jobs/" + id + "/result?task=9")).status,
      404);
  EXPECT_EQ(
      server.handle(http_get("/v1/jobs/" + id + "/result?task=x")).status,
      400);
}

TEST(SimServer, MetricsStreamReplaysFullSeries) {
  SimServer server(server_options(""));
  const std::string id = submit_ok(
      server, R"({"config":"Ring_4clus_1bus_2IW","benchmark":"gzip",)"
              R"("interval":500})");
  EXPECT_EQ(wait_terminal(server, id), "completed");

  const HttpResponse stream =
      server.handle(http_get("/v1/jobs/" + id + "/metrics"));
  EXPECT_EQ(stream.status, 200);
  ASSERT_TRUE(static_cast<bool>(stream.streamer));
  std::string jsonl;
  stream.streamer([&jsonl](std::string_view chunk) {
    jsonl.append(chunk);
    return true;
  });
  // 2000 instrs / 500 interval -> interval lines, then the final result.
  EXPECT_NE(jsonl.find("\"type\":\"interval\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"result\""), std::string::npos);

  // Non-streaming jobs have no feed to attach to.
  const std::string plain = submit_ok(server, kSubmitBody);
  wait_terminal(server, plain);
  EXPECT_EQ(
      server.handle(http_get("/v1/jobs/" + plain + "/metrics")).status, 409);
}

TEST(SimServer, ShutdownDrainsAndRejectsNewWork) {
  SimServer server(server_options(""));
  const std::string id = submit_ok(server, kSubmitBody);
  const HttpResponse ack = server.handle(http_post("/v1/shutdown", ""));
  EXPECT_EQ(ack.status, 200);
  EXPECT_TRUE(server.shutdown_requested());
  EXPECT_EQ(server.handle(http_post("/v1/jobs", kSubmitBody)).status, 503);
  while (!server.wait_drained_ms(100)) {
  }
  EXPECT_EQ(wait_terminal(server, id), "completed");
}

/// The "state" field of a status reply.
std::string state_of(const HttpResponse& response) {
  return json_parse(response.body)->find("state")->string;
}

// A status long-poll returns as soon as its job is terminal, not when
// its wait ends.
TEST(SimServer, StatusLongPollReturnsWhenTheJobCompletes) {
  SimServer server(server_options(""));
  server.service().pause();
  const std::string id = submit_ok(server, kSubmitBody);
  std::chrono::steady_clock::time_point returned;
  HttpResponse polled;
  std::thread poller([&] {
    polled = server.handle(http_get("/v1/jobs/" + id + "?wait_ms=5000"));
    returned = std::chrono::steady_clock::now();
  });
  std::this_thread::sleep_for(50ms);
  server.service().resume();
  EXPECT_EQ(wait_terminal(server, id), "completed");
  const auto completed = std::chrono::steady_clock::now();
  poller.join();
  EXPECT_EQ(polled.status, 200);
  EXPECT_EQ(state_of(polled), "completed");
  EXPECT_LT(returned - completed, 200ms);
}

// On a job held in the queue the long-poll ends with its wait and
// reports the non-terminal state.
TEST(SimServer, StatusLongPollEndsWithItsWait) {
  SimServer server(server_options(""));
  server.service().pause();
  const std::string id = submit_ok(server, kSubmitBody);
  const auto start = std::chrono::steady_clock::now();
  const HttpResponse polled =
      server.handle(http_get("/v1/jobs/" + id + "?wait_ms=100"));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(polled.status, 200);
  const std::string state = state_of(polled);
  EXPECT_TRUE(state == "queued" || state == "running") << state;
  EXPECT_GE(waited, 100ms);
  EXPECT_LT(waited, 2000ms);
  server.service().resume();
  EXPECT_EQ(wait_terminal(server, id), "completed");
}

TEST(SimServer, StatusWaitOutsideItsBoundIs400) {
  SimServer server(server_options(""));
  const std::string id = submit_ok(server, kSubmitBody);
  for (const char* bad : {"-1", "30001", "abc", ""}) {
    const HttpResponse response = server.handle(
        http_get("/v1/jobs/" + id + "?wait_ms=" + std::string(bad)));
    EXPECT_EQ(response.status, 400) << bad;
    EXPECT_NE(response.body.find("0..30000"), std::string::npos)
        << response.body;
  }
  EXPECT_EQ(wait_terminal(server, id), "completed");
}

TEST(SimServer, ServerMetricsReportTheGaugeSet) {
  SimServer server(server_options(""));
  const std::string id = submit_ok(server, kSubmitBody);
  EXPECT_EQ(wait_terminal(server, id), "completed");
  const HttpResponse response =
      server.handle(http_get("/v1/server/metrics"));
  EXPECT_EQ(response.status, 200);
  const std::optional<JsonValue> doc = json_parse(response.body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("server_schema")->number, 1);
  const JsonValue* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  for (const char* name :
       {"queue_depth_high", "queue_depth_normal", "queue_depth_low",
        "tasks_in_flight", "jobs_total", "jobs_finished", "simulations_run",
        "store_hits", "coalesced_submissions", "workers_started",
        "aggregate_sim_instrs_per_second", "journal_replayed_jobs",
        "journal_corrupt_lines"}) {
    EXPECT_NE(gauges->find(name), nullptr) << name;
  }
  EXPECT_EQ(gauges->find("jobs_total")->number, 1);
  EXPECT_EQ(gauges->find("simulations_run")->number, 1);
}

// ---- Crash recovery ----------------------------------------------------

// Kill -9 equivalent: the journal records an accepted job, but the
// process dies before any task finishes (the service is paused, so
// destruction cancels the queued work without journaling a terminal —
// exactly the state a SIGKILL leaves behind).  A new server over the
// same journal re-submits and finishes the job.
TEST(SimServer, ReplayResubmitsJobsKilledMidRun) {
  TempDir dir;
  const std::string journal = dir.file("journal.jsonl");
  {
    SimServer crashed(server_options(journal));
    crashed.service().pause();
    const std::string id = submit_ok(crashed, kSubmitBody);
    EXPECT_EQ(id, "j000001");
  }

  SimServer recovered(server_options(journal));
  EXPECT_EQ(recovered.replayed_jobs(), 1u);
  EXPECT_EQ(recovered.journal_corrupt_lines(), 0u);
  EXPECT_EQ(wait_terminal(recovered, "j000001"), "completed");
  EXPECT_EQ(recovered.service().stats().simulations, 1u);
  // The replayed id is not reissued to new work.
  EXPECT_EQ(submit_ok(recovered, kSubmitBody), "j000002");
}

// Completed jobs are NOT re-simulated on restart: they come back as
// history, and their results re-materialize from the persistent result
// store as store hits on first fetch.
TEST(SimServer, ReplayNeverRerunsCompletedJobs) {
  TempDir dir;
  const std::string journal = dir.file("journal.jsonl");
  const std::string cache = dir.file("results.tsv");
  {
    SimServer first(
        server_options(journal, StoreBackend::Tsv, cache));
    const std::string id = submit_ok(first, kSubmitBody);
    EXPECT_EQ(wait_terminal(first, id), "completed");
    EXPECT_EQ(first.service().stats().simulations, 1u);
  }

  SimServer restarted(
      server_options(journal, StoreBackend::Tsv, cache));
  EXPECT_EQ(restarted.replayed_jobs(), 0u);
  const HttpResponse status =
      restarted.handle(http_get("/v1/jobs/j000001"));
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(json_parse(status.body)->find("state")->string, "completed");

  const HttpResponse result =
      restarted.handle(http_get("/v1/jobs/j000001/result"));
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(json_parse(result.body)->find("benchmark")->string, "gzip");
  EXPECT_EQ(restarted.service().stats().simulations, 0u);
  EXPECT_GE(restarted.service().stats().store_hits, 1u);
}

TEST(SimServer, ReplaySkipsCorruptJournalLines) {
  TempDir dir;
  const std::string journal = dir.file("journal.jsonl");
  {
    SimServer first(server_options(journal));
    const std::string id = submit_ok(first, kSubmitBody);
    EXPECT_EQ(wait_terminal(first, id), "completed");
  }
  {
    std::ofstream out(journal, std::ios::app);
    out << "{\"truncated\n";
  }
  SimServer restarted(server_options(journal));
  EXPECT_EQ(restarted.journal_corrupt_lines(), 1u);
  EXPECT_EQ(
      restarted.handle(http_get("/v1/jobs/j000001")).status, 200);
}

// ---- HttpServer framing over real sockets ------------------------------

/// A client socket connected to 127.0.0.1:port.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Reads from \p fd until \p marker has arrived (or the peer closes).
std::string read_until(int fd, const std::string& marker) {
  std::string reply;
  char buffer[4096];
  while (reply.find(marker) == std::string::npos) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  return reply;
}

/// One blocking request/response exchange against 127.0.0.1:port.
std::string http_exchange(int port, const std::string& raw) {
  const int fd = connect_loopback(port);
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

class HttpServerTest : public testing::Test {
 protected:
  void SetUp() override {
    HttpServerOptions options;
    options.port = 0;
    options.max_header_bytes = 1024;
    options.max_body_bytes = 2048;
    server_ = std::make_unique<HttpServer>(
        options, [](const HttpRequest& request) {
          HttpResponse response;
          response.body = "{\"method\":\"" + request.method +
                          "\",\"target\":\"" + request.target + "\"}";
          return response;
        });
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }
  void TearDown() override { server_->stop(); }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, RoutesWellFormedRequests) {
  const std::string reply = http_exchange(
      server_->port(), "GET /v1/ping HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("\"target\":\"/v1/ping\""), std::string::npos);
  EXPECT_NE(reply.find("Content-Type: application/json"),
            std::string::npos);
}

TEST_F(HttpServerTest, PostBodyIsDeliveredByContentLength) {
  const std::string reply = http_exchange(
      server_->port(),
      "POST /v1/jobs HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}");
  EXPECT_NE(reply.find("\"method\":\"POST\""), std::string::npos);
}

TEST_F(HttpServerTest, RejectsMalformedFraming) {
  EXPECT_NE(http_exchange(server_->port(), "GARBAGE\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_exchange(server_->port(),
                          "GET /x HTTP/2.0\r\n\r\n")
                .find("HTTP/1.1 505"),
            std::string::npos);
  const std::string huge_header = "GET /x HTTP/1.1\r\nX-Big: " +
                                  std::string(4096, 'a') + "\r\n\r\n";
  EXPECT_NE(http_exchange(server_->port(), huge_header)
                .find("HTTP/1.1 431"),
            std::string::npos);
  const std::string huge_body =
      "POST /x HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
  EXPECT_NE(http_exchange(server_->port(), huge_body)
                .find("HTTP/1.1 413"),
            std::string::npos);
}

// Keep-alive is sequential request/response on one connection (the
// server rejects pipelined bytes with 400 by design).
TEST_F(HttpServerTest, KeepAliveServesSequentialRequests) {
  const int fd = connect_loopback(server_->port());
  const std::string first = "GET /one HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, first.data(), first.size(), 0),
            static_cast<ssize_t>(first.size()));
  EXPECT_NE(read_until(fd, "\"target\":\"/one\"").find("HTTP/1.1 200"),
            std::string::npos);

  const std::string second = "GET /two HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, second.data(), second.size(), 0),
            static_cast<ssize_t>(second.size()));
  EXPECT_NE(
      read_until(fd, "\"target\":\"/two\"").find("\"target\":\"/two\""),
      std::string::npos);
  ::close(fd);
}

// Head and body leave in one write.  Written separately, Nagle's
// algorithm holds the body until the client's delayed ACK of the head,
// about 40 ms per response.
TEST_F(HttpServerTest, KeepAliveResponsesDoNotStall) {
  const int fd = connect_loopback(server_->port());
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    const std::string target = "/r" + std::to_string(i);
    const std::string request = "GET " + target + " HTTP/1.1\r\n\r\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    const std::string marker = "\"target\":\"" + target + "\"";
    ASSERT_NE(read_until(fd, marker).find(marker), std::string::npos) << i;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 200ms);
  ::close(fd);
}

/// Threads of this process.
std::size_t proc_task_count() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

/// Memory mappings of this process.
std::size_t proc_mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t count = 0;
  std::string line;
  while (std::getline(maps, line)) ++count;
  return count;
}

// The thread of a closed connection is joined while the server runs, not
// at stop().  An exited thread leaves /proc/self/task at once, but until
// it is joined its stack stays mapped, so the mapping count is what grows
// when finished threads pile up (two mappings per thread).
TEST_F(HttpServerTest, ClosedConnectionThreadsAreJoined) {
  const auto exchange_batch = [&] {
    for (int i = 0; i < 200; ++i) {
      ASSERT_NE(http_exchange(server_->port(), "GET /x HTTP/1.1\r\n\r\n")
                    .find("HTTP/1.1 200"),
                std::string::npos)
          << i;
    }
  };
  // A first batch lets the thread runtime (and TSan's per-thread state)
  // reach its steady set of mappings; the bounds apply to the second.
  exchange_batch();
  const std::size_t tasks_before = proc_task_count();
  const std::size_t mappings_before = proc_mapping_count();
  exchange_batch();
  EXPECT_LE(proc_task_count(), tasks_before + 4);
  EXPECT_LE(proc_mapping_count(), mappings_before + 64);
}

// ringclu_simd stops the HTTP server as soon as POST /v1/shutdown has
// drained the service, while that request's connection still owes its
// reply.  stop() must let the reply finish.  The handler lingers after
// accepting the shutdown, as a slow reply would, so every round's stop()
// begins before the reply is written.
TEST(HttpServerShutdown, ShutdownReplyArrivesWhileTheServerStops) {
  for (int round = 0; round < 50; ++round) {
    SimServer service(server_options(""));
    HttpServer http(HttpServerOptions{},
                    [&service](const HttpRequest& request) {
                      HttpResponse response = service.handle(request);
                      std::this_thread::sleep_for(2ms);
                      return response;
                    });
    std::string error;
    ASSERT_TRUE(http.start(&error)) << error;
    // What ringclu_simd's main does.
    std::thread stopper([&] {
      while (!service.wait_drained_ms(200)) {
      }
      http.stop();
    });
    const std::string reply =
        http_exchange(http.port(),
                      "POST /v1/shutdown HTTP/1.1\r\n"
                      "Content-Length: 0\r\n\r\n");
    stopper.join();
    ASSERT_NE(reply.find("\"ok\":true"), std::string::npos)
        << "round " << round << ": reply lost: '" << reply << "'";
  }
}

// A shutdown ends every status long-poll at once, so the drain and the
// HTTP server's stop() never wait for one: the long-poll on a job held
// in the queue returns long before its 30 s wait, and the daemon's stop
// sequence completes once the job drains.
TEST(HttpServerShutdown, ShutdownEndsAnOutstandingLongPoll) {
  SimServer service(server_options(""));
  service.service().pause();
  const std::string id = submit_ok(service, kSubmitBody);
  HttpServer http(HttpServerOptions{}, [&service](const HttpRequest& request) {
    return service.handle(request);
  });
  std::string error;
  ASSERT_TRUE(http.start(&error)) << error;
  std::string long_poll;
  std::thread poller([&] {
    long_poll = http_exchange(
        http.port(), "GET /v1/jobs/" + id + "?wait_ms=30000 HTTP/1.1\r\n\r\n");
  });
  std::this_thread::sleep_for(100ms);
  const auto shutdown_at = std::chrono::steady_clock::now();
  const std::string reply = http_exchange(
      http.port(), "POST /v1/shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  poller.join();
  EXPECT_LT(std::chrono::steady_clock::now() - shutdown_at, 5s);
  EXPECT_NE(long_poll.find("HTTP/1.1 200"), std::string::npos) << long_poll;
  EXPECT_EQ(long_poll.find("\"state\":\"completed\""), std::string::npos)
      << long_poll;
  // What ringclu_simd's main does once the held job may run.
  service.service().resume();
  while (!service.wait_drained_ms(200)) {
  }
  http.stop();
  EXPECT_EQ(wait_terminal(service, id), "completed");
}

}  // namespace
}  // namespace ringclu
