// Tests for SimService: the fair-share queue policy (exact dequeue
// order), duplicate in-flight coalescing, completion-callback ordering,
// store interaction (hits, force), and a randomized multi-submitter
// stress test over both ResultStore backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "harness/sim_service.h"
#include "stats/metric_sink.h"

namespace ringclu {
namespace {

constexpr const char* kPreset = "Ring_4clus_1bus_2IW";

SimJob make_job(const std::string& benchmark, std::uint64_t instrs = 2000,
                std::uint64_t seed = 42) {
  return SimJob{ArchConfig::preset(kPreset), benchmark,
                RunParams{instrs, instrs / 10, seed}};
}

SimServiceOptions paused_options(int threads) {
  SimServiceOptions options;
  options.threads = threads;
  options.start_paused = true;
  return options;
}

std::unique_ptr<ResultStore> memory_store() {
  return make_result_store(StoreBackend::Memory, "", /*verbose=*/false);
}

TEST(SimServiceTest, SubmitRunsOneSimulationToDone) {
  SimService service(memory_store());
  JobHandle handle = service.submit(make_job("gzip"));
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.wait(), JobStatus::Done);
  EXPECT_EQ(handle.status(), JobStatus::Done);
  EXPECT_EQ(handle.result().benchmark, "gzip");
  EXPECT_EQ(handle.result().config_name, kPreset);
  EXPECT_GE(handle.result().counters.committed, 2000u);
  EXPECT_EQ(service.simulations_run(), 1u);
  EXPECT_EQ(service.store_hits(), 0u);
}

// The tentpole acceptance test: N identical concurrent submissions run
// exactly one simulation, and every handle observes the same result.
TEST(SimServiceTest, CoalescesDuplicateInFlightJobs) {
  constexpr std::size_t kDuplicates = 8;
  SimService service(memory_store(), paused_options(2));

  std::vector<JobHandle> handles;
  for (std::size_t i = 0; i < kDuplicates; ++i) {
    handles.push_back(service.submit(make_job("swim")));
  }
  // All handles share one cache key, so all but the first coalesce while
  // the job is still queued (the service is paused: nothing ran yet).
  for (const JobHandle& handle : handles) {
    EXPECT_EQ(handle.key(), handles.front().key());
    EXPECT_EQ(handle.status(), JobStatus::Queued);
  }
  EXPECT_EQ(service.coalesced_submissions(), kDuplicates - 1);

  service.resume();
  for (const JobHandle& handle : handles) {
    EXPECT_EQ(handle.wait(), JobStatus::Done);
  }
  EXPECT_EQ(service.simulations_run(), 1u);
  EXPECT_EQ(service.store_hits(), 0u);
  for (const JobHandle& handle : handles) {
    EXPECT_EQ(serialize_result(handle.result()),
              serialize_result(handles.front().result()));
  }
}

TEST(SimServiceTest, BatchCoalescesDuplicatesAndKeepsInputOrder) {
  SimService service(memory_store(), paused_options(2));
  std::vector<SimJob> jobs;
  jobs.push_back(make_job("swim"));
  jobs.push_back(make_job("gzip"));
  jobs.push_back(make_job("swim"));  // duplicate of [0]
  jobs.push_back(make_job("art"));
  jobs.push_back(make_job("gzip"));  // duplicate of [1]

  std::vector<JobHandle> handles = service.submit_batch(std::move(jobs));
  ASSERT_EQ(handles.size(), 5u);
  EXPECT_EQ(handles[0].key(), handles[2].key());
  EXPECT_EQ(handles[1].key(), handles[4].key());
  EXPECT_EQ(service.coalesced_submissions(), 2u);

  service.resume();
  for (const JobHandle& handle : handles) {
    ASSERT_EQ(handle.wait(), JobStatus::Done);
  }
  // Handles come back in input order, whatever order the batch ran in.
  EXPECT_EQ(handles[0].result().benchmark, "swim");
  EXPECT_EQ(handles[1].result().benchmark, "gzip");
  EXPECT_EQ(handles[2].result().benchmark, "swim");
  EXPECT_EQ(handles[3].result().benchmark, "art");
  EXPECT_EQ(handles[4].result().benchmark, "gzip");
  EXPECT_EQ(service.simulations_run(), 3u);
}

TEST(SimServiceTest, StoreHitSkipsSimulation) {
  auto store = memory_store();
  const SimJob job = make_job("mcf");
  SimResult canned;
  canned.config_name = kPreset;
  canned.benchmark = "mcf";
  canned.counters.cycles = 123456789;
  canned.counters.committed = 987654321;
  store->put(sim_cache_key(job), canned);

  SimService service(std::move(store));
  JobHandle handle = service.submit(job);
  // Served synchronously at submission: already Done.
  EXPECT_EQ(handle.status(), JobStatus::Done);
  EXPECT_EQ(handle.wait(), JobStatus::Done);
  EXPECT_EQ(handle.result().counters.cycles, canned.counters.cycles);
  EXPECT_EQ(service.simulations_run(), 0u);
  EXPECT_EQ(service.store_hits(), 1u);
}

TEST(SimServiceTest, ForceBypassesStoreReads) {
  auto store = memory_store();
  const SimJob job = make_job("mcf");
  SimResult poisoned;
  poisoned.config_name = kPreset;
  poisoned.benchmark = "mcf";
  poisoned.counters.cycles = 123456789;
  store->put(sim_cache_key(job), poisoned);

  SimServiceOptions options;
  options.force = true;
  SimService service(std::move(store), options);
  JobHandle handle = service.submit(job);
  EXPECT_EQ(handle.wait(), JobStatus::Done);
  EXPECT_NE(handle.result().counters.cycles, poisoned.counters.cycles);
  EXPECT_EQ(service.simulations_run(), 1u);
  EXPECT_EQ(service.store_hits(), 0u);
}

TEST(SimServiceTest, CompletedJobRepopulatesFromStoreNotCoalescing) {
  SimService service(memory_store());
  JobHandle first = service.submit(make_job("equake"));
  EXPECT_EQ(first.wait(), JobStatus::Done);
  // The in-flight index drops completed jobs; an identical later submit
  // is a store hit, not a coalesced duplicate.
  JobHandle second = service.submit(make_job("equake"));
  EXPECT_EQ(second.wait(), JobStatus::Done);
  EXPECT_EQ(service.simulations_run(), 1u);
  EXPECT_EQ(service.store_hits(), 1u);
  EXPECT_EQ(service.coalesced_submissions(), 0u);
  EXPECT_EQ(serialize_result(second.result()),
            serialize_result(first.result()));
}

TEST(SimServiceTest, CallbacksRunInRegistrationOrder) {
  SimService service(memory_store(), paused_options(1));
  JobHandle handle = service.submit(make_job("gzip"));

  std::mutex order_mutex;
  std::vector<int> order;
  std::atomic<int> fired{0};
  for (int i = 1; i <= 4; ++i) {
    handle.on_complete([&order_mutex, &order, &fired, i](const SimResult&) {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(i);
      fired.fetch_add(1);
    });
  }

  service.resume();
  EXPECT_EQ(handle.wait(), JobStatus::Done);
  // wait() can return before the worker has drained the callback list;
  // callbacks have their own completion signal.
  while (fired.load() < 4) std::this_thread::yield();

  // Registered after completion: runs inline, after all earlier ones.
  handle.on_complete([&order_mutex, &order](const SimResult& result) {
    EXPECT_EQ(result.benchmark, "gzip");
    const std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(5);
  });

  const std::lock_guard<std::mutex> lock(order_mutex);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(SimServiceTest, CallbacksFromEveryCoalescedHandleFire) {
  SimService service(memory_store(), paused_options(2));
  JobHandle first = service.submit(make_job("art"));
  JobHandle second = service.submit(make_job("art"));

  std::atomic<int> fired{0};
  first.on_complete([&fired](const SimResult&) { fired.fetch_add(1); });
  second.on_complete([&fired](const SimResult&) { fired.fetch_add(1); });

  service.resume();
  EXPECT_EQ(first.wait(), JobStatus::Done);
  EXPECT_EQ(second.wait(), JobStatus::Done);
  while (fired.load() < 2) std::this_thread::yield();
  EXPECT_EQ(service.simulations_run(), 1u);
}

// The queue is fair-share: on one worker, a high-priority job submitted
// after a low-priority backlog runs first, and one client's jobs in one
// class run in submission order.
TEST(SimServiceTest, QueueServesPriorityThenSubmissionOrder) {
  SimService service(memory_store(), paused_options(1));
  std::mutex order_mutex;
  std::vector<std::string> order;
  std::atomic<std::size_t> fired{0};
  std::vector<JobHandle> handles;
  const auto submit = [&](const char* benchmark, const char* client,
                          PriorityClass priority) {
    SimJob job = make_job(benchmark);
    job.client = client;
    job.priority = priority;
    handles.push_back(service.submit(std::move(job)));
    handles.back().on_complete([&](const SimResult& result) {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(result.benchmark);
      fired.fetch_add(1);
    });
  };
  submit("gzip", "a", PriorityClass::Low);
  submit("swim", "a", PriorityClass::Low);
  submit("art", "a", PriorityClass::Low);
  submit("mcf", "b", PriorityClass::High);

  service.resume();
  for (const JobHandle& handle : handles) {
    EXPECT_EQ(handle.wait(), JobStatus::Done);
  }
  // The worker runs each callback before it takes the next job.
  while (fired.load() < handles.size()) std::this_thread::yield();
  const std::lock_guard<std::mutex> lock(order_mutex);
  EXPECT_EQ(order,
            (std::vector<std::string>{"mcf", "gzip", "swim", "art"}));
}

/// A sink that holds its run open in on_run_complete until release():
/// the job it is attached to keeps running for as long as a test needs.
class GateSink final : public MetricSink {
 public:
  void on_interval(const MetricRunContext&, const IntervalSample&) override {}
  void on_run_complete(const MetricRunContext&, const SimResult&) override {
    std::unique_lock<std::mutex> lock(mutex_);
    released_cv_.wait(lock, [this] { return released_; });
  }
  [[nodiscard]] std::string describe() const override { return "gate"; }

  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    released_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable released_cv_;
  bool released_ = false;
};

// Workers put each result into the store before publishing Done: once
// wait() returns Done the store hits, and a callback registered before
// completion finds its key there.  A job that finishes while an earlier
// submission is still running completes at once instead of waiting for
// it.
TEST(SimServiceTest, WaitAndCallbacksFollowTheStoreWrite) {
  SimService service(memory_store(), paused_options(2));

  GateSink gate;
  SimJob held_job = make_job("swim");
  held_job.params.interval = 1000;
  held_job.sink = &gate;
  JobHandle held = service.submit(held_job);
  JobHandle quick = service.submit(make_job("gzip"));
  const std::string quick_key = quick.key();
  std::atomic<int> stored_at_callback{-1};
  quick.on_complete([&service, &quick_key,
                     &stored_at_callback](const SimResult&) {
    stored_at_callback.store(
        service.store().get(quick_key).has_value() ? 1 : 0);
  });

  service.resume();
  EXPECT_EQ(quick.wait(), JobStatus::Done);
  EXPECT_TRUE(service.store().get(quick_key).has_value());
  EXPECT_EQ(held.status(), JobStatus::Running);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (stored_at_callback.load() == -1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(stored_at_callback.load(), 1);

  gate.release();
  EXPECT_EQ(held.wait(), JobStatus::Done);
  EXPECT_TRUE(service.store().get(held.key()).has_value());
}

TEST(SimServiceTest, UnknownBenchmarkFailsAtSubmission) {
  SimService service(memory_store());
  JobHandle handle = service.submit(make_job("nosuchbench"));
  EXPECT_EQ(handle.status(), JobStatus::Failed);
  EXPECT_EQ(handle.wait(), JobStatus::Failed);
  EXPECT_NE(handle.error().find("nosuchbench"), std::string::npos);
  EXPECT_NE(handle.error().find("gzip"), std::string::npos);  // valid list
  EXPECT_EQ(service.simulations_run(), 0u);

  // Callbacks never fire for failed jobs.
  std::atomic<bool> fired{false};
  handle.on_complete([&fired](const SimResult&) { fired.store(true); });
  EXPECT_FALSE(fired.load());
}

TEST(SimServiceTest, DestructionCancelsQueuedJobs) {
  JobHandle handle;
  {
    SimService service(memory_store(), paused_options(1));
    handle = service.submit(make_job("gzip"));
    EXPECT_EQ(handle.status(), JobStatus::Queued);
    // Service destroyed while paused: the queued job must not run, and
    // the destructor must not deadlock.  (The handle is dangling after
    // this scope — not touched again.)
  }
  SUCCEED();
}

// ---- FairScheduler -----------------------------------------------------

using Scheduler = FairScheduler<std::string>;

SchedEntry<std::string> entry(const std::string& job,
                              const std::string& client,
                              PriorityClass priority, std::uint64_t seq) {
  return SchedEntry<std::string>{job, client, priority, seq};
}

std::vector<std::string> drain(Scheduler& scheduler) {
  std::vector<std::string> order;
  while (std::optional<SchedEntry<std::string>> next = scheduler.dequeue()) {
    order.push_back(next->item);
  }
  return order;
}

// The policy is deterministic, so the expected order is exact: weighted
// round-robin across classes (4/2/1), round-robin across clients within
// a class, FIFO within a client.
TEST(FairScheduler, DequeueOrderIsExact) {
  Scheduler scheduler;
  std::uint64_t seq = 0;
  scheduler.enqueue(entry("H1a", "h1", PriorityClass::High, ++seq));
  scheduler.enqueue(entry("H1b", "h1", PriorityClass::High, ++seq));
  scheduler.enqueue(entry("H1c", "h1", PriorityClass::High, ++seq));
  scheduler.enqueue(entry("H2a", "h2", PriorityClass::High, ++seq));
  scheduler.enqueue(entry("N1a", "n1", PriorityClass::Normal, ++seq));
  scheduler.enqueue(entry("N1b", "n1", PriorityClass::Normal, ++seq));
  scheduler.enqueue(entry("N2a", "n2", PriorityClass::Normal, ++seq));
  scheduler.enqueue(entry("N2b", "n2", PriorityClass::Normal, ++seq));
  scheduler.enqueue(entry("L1a", "l1", PriorityClass::Low, ++seq));
  scheduler.enqueue(entry("L1b", "l1", PriorityClass::Low, ++seq));
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
  Scheduler scheduler;
  std::uint64_t seq = 0;
  for (int i = 0; i < 10; ++i) {
    scheduler.enqueue(entry("high", "big", PriorityClass::High, ++seq));
  }
  scheduler.enqueue(entry("low", "small", PriorityClass::Low, ++seq));

  std::vector<std::string> first5;
  for (int i = 0; i < 5; ++i) first5.push_back(scheduler.dequeue()->item);
  EXPECT_EQ(first5[4], "low");
}

TEST(FairScheduler, WeightsSplitOneCycle421) {
  Scheduler scheduler;
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    scheduler.enqueue(entry("H", "a", PriorityClass::High, ++seq));
    scheduler.enqueue(entry("N", "a", PriorityClass::Normal, ++seq));
    scheduler.enqueue(entry("L", "a", PriorityClass::Low, ++seq));
  }
  const std::vector<std::string> cycle = {"H", "H", "H", "H", "N", "N", "L"};
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    EXPECT_EQ(scheduler.dequeue()->item, cycle[i]) << "position " << i;
  }
}

TEST(FairScheduler, ClientsInOneClassRoundRobin) {
  Scheduler scheduler;
  std::uint64_t seq = 0;
  for (int i = 0; i < 3; ++i) {
    scheduler.enqueue(entry(std::string("A").append(std::to_string(i)),
                            "alice", PriorityClass::Normal, ++seq));
  }
  scheduler.enqueue(entry("B0", "bob", PriorityClass::Normal, ++seq));
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

// ---- Randomized stress over both backends -----------------------------

class SimServiceStressTest
    : public ::testing::TestWithParam<StoreBackend> {};

TEST_P(SimServiceStressTest, ManySubmittersRandomCancelsStayConsistent) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) /
      ("ringclu_service_stress_" +
       std::string(store_backend_name(GetParam())));
  std::filesystem::remove_all(root);
  const std::string store_path = (root / "results.tsv").string();

  const std::vector<std::string> benchmarks = {"gzip", "swim", "art", "mcf"};
  constexpr std::uint64_t kInstrs = 400;

  // Ground truth, simulated once outside the service.
  std::vector<std::string> reference(benchmarks.size());
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    reference[i] = serialize_result(run_sim_job(make_job(benchmarks[i],
                                                         kInstrs)));
  }

  SimServiceOptions options;
  options.threads = 4;
  SimService service(
      make_result_store(GetParam(), store_path, /*verbose=*/false), options);

  constexpr int kSubmitters = 4;
  constexpr int kJobsPerSubmitter = 24;
  struct Outcome {
    std::size_t benchmark_index;
    JobHandle handle;
  };
  std::mutex outcomes_mutex;
  std::vector<Outcome> outcomes;

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t]() {
      std::mt19937 rng(1234u + static_cast<unsigned>(t));
      std::uniform_int_distribution<std::size_t> pick(0,
                                                      benchmarks.size() - 1);
      for (int i = 0; i < kJobsPerSubmitter; ++i) {
        const std::size_t which = pick(rng);
        JobHandle handle =
            service.submit(make_job(benchmarks[which], kInstrs));
        const std::lock_guard<std::mutex> lock(outcomes_mutex);
        outcomes.push_back(Outcome{which, std::move(handle)});
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();

  std::size_t done = 0;
  for (Outcome& outcome : outcomes) {
    ASSERT_EQ(outcome.handle.wait(), JobStatus::Done);
    EXPECT_EQ(serialize_result(outcome.handle.result()),
              reference[outcome.benchmark_index]);
    ++done;
  }
  EXPECT_EQ(done, static_cast<std::size_t>(kSubmitters * kJobsPerSubmitter));

  // At most one completed simulation per distinct key, ever: coalescing
  // covers concurrent duplicates, the store covers sequential ones.
  EXPECT_LE(service.simulations_run(), benchmarks.size());
  // Submission accounting: every submit was newly queued, coalesced onto
  // an in-flight duplicate, or served from the store, and every queued
  // job simulated.
  EXPECT_EQ(service.simulations_run() + service.coalesced_submissions() +
                service.store_hits(),
            done);
  std::filesystem::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SimServiceStressTest,
    ::testing::Values(StoreBackend::Tsv, StoreBackend::Memory),
    [](const ::testing::TestParamInfo<StoreBackend>& param_info) {
      return std::string(store_backend_name(param_info.param));
    });

}  // namespace
}  // namespace ringclu
