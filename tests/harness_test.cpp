// Tests for src/harness: result serialization, RunnerOptions and the
// SimService it configures (caching across instances, store backends), and
// the figure aggregation helpers.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "harness/report.h"
#include "harness/runner.h"
#include "harness/sim_service.h"

namespace ringclu {
namespace {

SimResult make_result(const std::string& config, const std::string& bench,
                      std::uint64_t cycles, std::uint64_t committed) {
  SimResult result;
  result.config_name = config;
  result.benchmark = bench;
  result.counters.cycles = cycles;
  result.counters.committed = committed;
  result.counters.comms = committed / 4;
  result.counters.comm_distance_sum = committed / 2;
  result.counters.dispatched_per_cluster = {1, 2, 3, 4};
  return result;
}

/// Runs every (preset, benchmark) pair through \p service, config-major,
/// with \p options' run parameters, and waits for all of them.
std::vector<SimResult> run_all(SimService& service,
                               const RunnerOptions& options,
                               const std::vector<std::string>& presets,
                               const std::vector<std::string>& benchmarks) {
  std::vector<SimJob> jobs;
  for (const std::string& preset : presets) {
    for (const std::string& benchmark : benchmarks) {
      jobs.push_back(
          SimJob{ArchConfig::preset(preset), benchmark, options.run_params()});
    }
  }
  std::vector<SimResult> results;
  for (const JobHandle& handle : service.submit_batch(std::move(jobs))) {
    EXPECT_EQ(handle.wait(), JobStatus::Done);
    results.push_back(handle.result());
  }
  return results;
}

SimResult run_one(SimService& service, const RunnerOptions& options,
                  const std::string& preset, const std::string& benchmark) {
  return run_all(service, options, {preset}, {benchmark}).front();
}

TEST(Serialization, RoundTrip) {
  const SimResult original = make_result("Ring_8clus_1bus_2IW", "swim",
                                         123456, 50000);
  const SimResult copy = deserialize_result(serialize_result(original));
  EXPECT_EQ(copy.config_name, original.config_name);
  EXPECT_EQ(copy.benchmark, original.benchmark);
  EXPECT_EQ(copy.counters.cycles, original.counters.cycles);
  EXPECT_EQ(copy.counters.committed, original.counters.committed);
  EXPECT_EQ(copy.counters.comms, original.counters.comms);
  EXPECT_EQ(copy.counters.dispatched_per_cluster,
            original.counters.dispatched_per_cluster);
  EXPECT_DOUBLE_EQ(copy.ipc(), original.ipc());
}

TEST(Runner, CachesResultsAcrossInstances) {
  const std::string cache = "/tmp/ringclu_harness_test_cache.tsv";
  std::remove(cache.c_str());

  RunnerOptions options;
  options.instrs = 3000;
  options.warmup = 300;
  options.threads = 2;
  options.cache_path = cache;
  options.verbose = false;

  SimService first(options);
  const std::vector<SimResult> a =
      run_all(first, options, {"Ring_4clus_1bus_2IW"}, {"gzip", "swim"});
  ASSERT_EQ(a.size(), 2u);
  EXPECT_TRUE(std::filesystem::exists(cache));

  // A second service must reproduce identical numbers purely from cache.
  SimService second(options);
  const std::vector<SimResult> b =
      run_all(second, options, {"Ring_4clus_1bus_2IW"}, {"gzip", "swim"});
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a[i].counters.cycles, b[i].counters.cycles);
    EXPECT_EQ(a[i].counters.comms, b[i].counters.comms);
  }
  std::remove(cache.c_str());
}

TEST(Runner, DifferentInstrBudgetMissesCache) {
  const std::string cache = "/tmp/ringclu_harness_test_cache2.tsv";
  std::remove(cache.c_str());
  RunnerOptions options;
  options.instrs = 2000;
  options.warmup = 200;
  options.cache_path = cache;
  options.verbose = false;
  SimService service(options);
  const SimResult small =
      run_one(service, options, "Ring_4clus_1bus_2IW", "gzip");
  options.instrs = 4000;
  SimService bigger(options);
  const SimResult large =
      run_one(bigger, options, "Ring_4clus_1bus_2IW", "gzip");
  EXPECT_GT(large.counters.committed, small.counters.committed);
  std::remove(cache.c_str());
}

// Mirrors sim_cache_key (pinned format: the on-disk cache is
// an interchange surface, so a format change must be deliberate and shows
// up here).
std::string make_cache_key(const std::string& config,
                           const std::string& benchmark,
                           std::uint64_t instrs, std::uint64_t warmup,
                           std::uint64_t seed, int schema_version) {
  return config + "|" + benchmark + "|" + std::to_string(instrs) + "|" +
         std::to_string(warmup) + "|" + std::to_string(seed) + "|v" +
         std::to_string(schema_version);
}

RunnerOptions small_options(const std::string& cache) {
  RunnerOptions options;
  options.instrs = 1500;
  options.warmup = 150;
  options.seed = 42;
  options.threads = 2;
  options.cache_path = cache;
  options.verbose = false;
  return options;
}

/// A recognizably-poisoned result for cache-hit detection.
SimResult poisoned_result(const std::string& config,
                          const std::string& bench) {
  SimResult result = make_result(config, bench, 123456789, 987654321);
  return result;
}

TEST(Serialization, TryDeserializeRejectsCorruptLines) {
  const SimResult valid = make_result("Ring_4clus_1bus_2IW", "gzip", 10, 5);
  const std::string good = serialize_result(valid);
  EXPECT_TRUE(try_deserialize_result(good).has_value());

  EXPECT_FALSE(try_deserialize_result("").has_value());
  EXPECT_FALSE(try_deserialize_result("not a result").has_value());
  // Truncated mid-line (torn write).
  EXPECT_FALSE(
      try_deserialize_result(good.substr(0, good.size() / 2)).has_value());
  // Non-numeric counter field.
  std::string garbled = good;
  garbled[garbled.find('\t', garbled.find('\t') + 1) + 1] = 'x';
  EXPECT_FALSE(try_deserialize_result(garbled).has_value());
  // Extra field.
  EXPECT_FALSE(try_deserialize_result(good + "\t0").has_value());
}

TEST(Runner, CorruptCacheLinesAreSkippedNotFatal) {
  const std::string cache = "/tmp/ringclu_harness_test_corrupt.tsv";
  std::remove(cache.c_str());
  RunnerOptions options = small_options(cache);

  // Seed the cache with one genuine entry...
  SimService first(options);
  const SimResult fresh =
      run_one(first, options, "Ring_4clus_1bus_2IW", "gzip");

  // ...then vandalize the file around it.
  {
    std::ofstream out(cache, std::ios::app);
    out << "complete garbage, no tabs at all\n";
    out << "key-with-tab\ttruncated\tpayload\n";
    out << "\n";
  }

  // Loading must survive, and the genuine entry must still hit: identical
  // counters with no re-simulation (poisoning detection not needed here —
  // cycles are deterministic, so equality proves the hit or the re-run
  // agrees; either way, no abort is the property under test).
  SimService second(options);
  const SimResult again =
      run_one(second, options, "Ring_4clus_1bus_2IW", "gzip");
  EXPECT_EQ(again.counters.cycles, fresh.counters.cycles);
  std::remove(cache.c_str());
}

TEST(Runner, SchemaVersionMismatchInvalidatesStaleEntries) {
  const std::string cache = "/tmp/ringclu_harness_test_schema.tsv";
  std::remove(cache.c_str());
  RunnerOptions options = small_options(cache);
  const std::string config = "Ring_4clus_1bus_2IW";
  const std::string bench = "gzip";
  const SimResult poison = poisoned_result(config, bench);

  // A poisoned entry under the *previous* schema version must be ignored...
  {
    std::ofstream out(cache);
    out << make_cache_key(config, bench, options.instrs, options.warmup,
                          options.seed, kSimSchemaVersion - 1)
        << "\t" << serialize_result(poison) << "\n";
  }
  SimService stale(options);
  const SimResult resimulated = run_one(stale, options, config, bench);
  EXPECT_NE(resimulated.counters.cycles, poison.counters.cycles);

  // ...while the same entry under the *current* version is served verbatim,
  // proving the miss above was the version field and not the key shape.
  std::remove(cache.c_str());
  {
    std::ofstream out(cache);
    out << make_cache_key(config, bench, options.instrs, options.warmup,
                          options.seed, kSimSchemaVersion)
        << "\t" << serialize_result(poison) << "\n";
  }
  SimService current(options);
  const SimResult served = run_one(current, options, config, bench);
  EXPECT_EQ(served.counters.cycles, poison.counters.cycles);
  EXPECT_EQ(served.counters.committed, poison.counters.committed);
  std::remove(cache.c_str());
}

TEST(Runner, ForceBypassesCacheHits) {
  const std::string cache = "/tmp/ringclu_harness_test_force.tsv";
  std::remove(cache.c_str());
  RunnerOptions options = small_options(cache);
  const std::string config = "Ring_4clus_1bus_2IW";
  const std::string bench = "gzip";
  const SimResult poison = poisoned_result(config, bench);
  {
    std::ofstream out(cache);
    out << make_cache_key(config, bench, options.instrs, options.warmup,
                          options.seed, kSimSchemaVersion)
        << "\t" << serialize_result(poison) << "\n";
  }

  // force=true (RINGCLU_FORCE=1) must ignore the poisoned hit and
  // re-simulate.
  options.force = true;
  SimService forced(options);
  const SimResult fresh = run_one(forced, options, config, bench);
  EXPECT_NE(fresh.counters.cycles, poison.counters.cycles);
  EXPECT_GE(fresh.counters.committed, options.instrs);
  std::remove(cache.c_str());
}

TEST(Runner, MatrixOrderingIsConfigMajorUnderThreads) {
  const std::string cache = "/tmp/ringclu_harness_test_order.tsv";
  std::remove(cache.c_str());
  RunnerOptions options = small_options(cache);
  options.threads = 4;  // > 1: completion order is nondeterministic
  options.force = true;
  SimService service(options);

  const std::vector<std::string> configs = {"Ring_4clus_1bus_2IW",
                                            "Conv_4clus_1bus_2IW"};
  const std::vector<std::string> benchmarks = {"gzip", "swim", "art"};
  const std::vector<SimResult> results =
      run_all(service, options, configs, benchmarks);
  ASSERT_EQ(results.size(), configs.size() * benchmarks.size());
  std::size_t slot = 0;
  for (const std::string& config : configs) {
    for (const std::string& benchmark : benchmarks) {
      EXPECT_EQ(results[slot].config_name, config) << "slot " << slot;
      EXPECT_EQ(results[slot].benchmark, benchmark) << "slot " << slot;
      ++slot;
    }
  }
  std::remove(cache.c_str());
}

TEST(Runner, ThreadsDefaultMatchesDocumentedEnvDefault) {
  // runner.h documents RINGCLU_THREADS as defaulting to the hardware
  // thread count; the struct default must agree with from_env()'s fallback.
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(default_thread_count(),
            hw > 0 ? static_cast<int>(hw) : 2);
  EXPECT_EQ(RunnerOptions{}.threads, default_thread_count());
}

TEST(Runner, DefaultBenchmarksAreTheSuite) {
  // (Assumes RINGCLU_BENCHMARKS is unset in the test environment.)
  const std::vector<std::string> names = default_benchmarks();
  EXPECT_GE(names.size(), 1u);
  if (names.size() == 26) {
    EXPECT_EQ(names.front(), "ammp");
    EXPECT_EQ(names.back(), "wupwise");
  }
}

TEST(Runner, ValidateBenchmarkNamesAcceptsSuiteRejectsUnknown) {
  EXPECT_FALSE(validate_benchmark_names({"gzip", "swim", "art"}).has_value());
  const std::optional<std::string> error =
      validate_benchmark_names({"gzip", "nosuchbench"});
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("nosuchbench"), std::string::npos);
  EXPECT_NE(error->find("gzip"), std::string::npos);  // lists valid names
}

TEST(RunnerDeathTest, UnknownBenchmarkInEnvFailsWithValidNames) {
  // RINGCLU_BENCHMARKS must not silently accept unknown names: the
  // process exits with a diagnostic listing the valid ones.
  ::setenv("RINGCLU_BENCHMARKS", "gzip,nosuchbench", 1);
  EXPECT_EXIT({ (void)default_benchmarks(); }, ::testing::ExitedWithCode(2),
              "nosuchbench.*valid benchmarks.*wupwise");
  ::unsetenv("RINGCLU_BENCHMARKS");
}

// Malformed RINGCLU_* knob values must produce a diagnostic naming the
// variable and exit 2 — never abort, wrap around or silently clamp.
// setenv runs inside the EXPECT_EXIT statement so only the forked child
// sees the poisoned environment.

TEST(RunnerDeathTest, NonNumericWarmupEnvExitsWithDiagnostic) {
  EXPECT_EXIT(
      {
        ::setenv("RINGCLU_WARMUP", "abc", 1);
        (void)RunnerOptions::from_env();
      },
      ::testing::ExitedWithCode(2), "RINGCLU_WARMUP=abc");
}

TEST(RunnerDeathTest, OverflowingInstrsEnvExitsWithDiagnostic) {
  EXPECT_EXIT(
      {
        ::setenv("RINGCLU_INSTRS", "99999999999999999999999999", 1);
        (void)RunnerOptions::from_env();
      },
      ::testing::ExitedWithCode(2), "RINGCLU_INSTRS");
}

TEST(RunnerDeathTest, NegativeIntervalEnvExitsWithDiagnostic) {
  EXPECT_EXIT(
      {
        ::setenv("RINGCLU_INTERVAL", "-5", 1);
        (void)RunnerOptions::from_env();
      },
      ::testing::ExitedWithCode(2), "RINGCLU_INTERVAL=-5");
}

TEST(RunnerDeathTest, UnknownBooleanForceEnvExitsWithDiagnostic) {
  EXPECT_EXIT(
      {
        ::setenv("RINGCLU_FORCE", "maybe", 1);
        (void)RunnerOptions::from_env();
      },
      ::testing::ExitedWithCode(2), "RINGCLU_FORCE=maybe");
}

TEST(RunnerDeathTest, MalformedSnapshotIntervalEnvExitsWithDiagnostic) {
  EXPECT_EXIT(
      {
        ::setenv("RINGCLU_SNAPSHOT_INTERVAL", "10s", 1);
        (void)RunnerOptions::from_env();
      },
      ::testing::ExitedWithCode(2), "RINGCLU_SNAPSHOT_INTERVAL");
}

TEST(Runner, CheckpointKnobsReadFromEnv) {
  ::setenv("RINGCLU_CHECKPOINT_DIR", "/tmp/ringclu_ckpts", 1);
  ::setenv("RINGCLU_SNAPSHOT_INTERVAL", "50000", 1);
  ::setenv("RINGCLU_RESUME", "1", 1);
  const RunnerOptions options = RunnerOptions::from_env();
  EXPECT_EQ(options.checkpoint_dir, "/tmp/ringclu_ckpts");
  EXPECT_EQ(options.snapshot_interval, 50000u);
  EXPECT_TRUE(options.resume);
  EXPECT_TRUE(options.checkpoint_options().enabled());
  EXPECT_TRUE(options.checkpoint_options().resume);
  EXPECT_EQ(options.run_params().snapshot_interval, 50000u);
  ::unsetenv("RINGCLU_CHECKPOINT_DIR");
  ::unsetenv("RINGCLU_SNAPSHOT_INTERVAL");
  ::unsetenv("RINGCLU_RESUME");
}

TEST(Runner, CacheBackendFromEnv) {
  ::setenv("RINGCLU_CACHE_BACKEND", "memory", 1);
  EXPECT_EQ(RunnerOptions::from_env().cache_backend, StoreBackend::Memory);
  // The default path is the tsv file whatever the backend; memory
  // ignores it.
  EXPECT_EQ(RunnerOptions::from_env().cache_path, "bench_cache/results.tsv");
  ::unsetenv("RINGCLU_CACHE_BACKEND");
  EXPECT_EQ(RunnerOptions::from_env().cache_backend, StoreBackend::Tsv);
  EXPECT_EQ(RunnerOptions::from_env().cache_path, "bench_cache/results.tsv");
}

TEST(RunnerDeathTest, UnknownCacheBackendFailsWithValidNames) {
  ::setenv("RINGCLU_CACHE_BACKEND", "redis", 1);
  EXPECT_EXIT({ (void)RunnerOptions::from_env(); },
              ::testing::ExitedWithCode(2), "redis.*tsv, memory");
  // The retired sharded store is an unknown backend like any other.
  ::setenv("RINGCLU_CACHE_BACKEND", "sharded", 1);
  EXPECT_EXIT({ (void)RunnerOptions::from_env(); },
              ::testing::ExitedWithCode(2), "sharded.*tsv, memory");
  ::unsetenv("RINGCLU_CACHE_BACKEND");
}

TEST(Runner, MemoryBackendKeepsResultsWithinOneRunnerOnly) {
  RunnerOptions options = small_options("ignored-path");
  options.cache_backend = StoreBackend::Memory;

  SimService service(options);
  const SimResult a = run_one(service, options, "Ring_4clus_1bus_2IW", "gzip");
  const SimResult b = run_one(service, options, "Ring_4clus_1bus_2IW", "gzip");
  // Deterministic either way; the point is nothing was written to disk.
  EXPECT_EQ(serialize_result(a), serialize_result(b));
  EXPECT_FALSE(std::filesystem::exists("ignored-path"));
}

TEST(Runner, OptionsBuildAServiceOverTheChosenStore) {
  RunnerOptions options = small_options("ignored-path");
  options.cache_backend = StoreBackend::Memory;
  SimService service(options);
  const SimResult result =
      run_one(service, options, "Ring_4clus_1bus_2IW", "swim");
  EXPECT_EQ(result.benchmark, "swim");
  EXPECT_EQ(service.simulations_run(), 1u);
  EXPECT_EQ(service.store().describe(), "memory");
}

TEST(Report, GroupMeansSplitIntFp) {
  std::vector<SimResult> results;
  results.push_back(make_result("c", "swim", 100, 200));   // FP: ipc 2
  results.push_back(make_result("c", "gzip", 100, 100));   // INT: ipc 1
  EXPECT_DOUBLE_EQ(group_mean(results, BenchGroup::Fp,
                              [](const SimResult& r) { return r.ipc(); }),
                   2.0);
  EXPECT_DOUBLE_EQ(group_mean(results, BenchGroup::Int,
                              [](const SimResult& r) { return r.ipc(); }),
                   1.0);
  EXPECT_DOUBLE_EQ(group_mean(results, BenchGroup::All,
                              [](const SimResult& r) { return r.ipc(); }),
                   1.5);
}

TEST(Report, SpeedupGeometricMean) {
  std::vector<SimResult> ring;
  std::vector<SimResult> conv;
  ring.push_back(make_result("r", "swim", 100, 220));  // 2.2 IPC
  conv.push_back(make_result("c", "swim", 100, 200));  // 2.0 IPC
  ring.push_back(make_result("r", "gzip", 100, 110));
  conv.push_back(make_result("c", "gzip", 100, 100));
  EXPECT_NEAR(group_speedup(ring, conv, BenchGroup::All), 0.10, 1e-9);
  EXPECT_NEAR(group_speedup(ring, conv, BenchGroup::Fp), 0.10, 1e-9);
}

TEST(Report, GroupNames) {
  EXPECT_EQ(group_name(BenchGroup::All), "AVERAGE");
  EXPECT_EQ(group_name(BenchGroup::Int), "INT");
  EXPECT_EQ(group_name(BenchGroup::Fp), "FP");
}

TEST(Report, FindResult) {
  std::vector<SimResult> results;
  results.push_back(make_result("c", "swim", 1, 1));
  results.push_back(make_result("c", "art", 1, 1));
  EXPECT_EQ(find_result(results, "art").benchmark, "art");
}

TEST(Report, TryFindResultReturnsNullWhenAbsent) {
  std::vector<SimResult> results;
  results.push_back(make_result("ring", "swim", 1, 1));
  results.push_back(make_result("conv", "swim", 1, 1));

  const SimResult* by_bench = try_find_result(results, "swim");
  ASSERT_NE(by_bench, nullptr);
  EXPECT_EQ(by_bench->config_name, "ring");  // first match wins
  EXPECT_EQ(try_find_result(results, "gzip"), nullptr);

  const SimResult* by_pair = try_find_result(results, "conv", "swim");
  ASSERT_NE(by_pair, nullptr);
  EXPECT_EQ(by_pair->config_name, "conv");
  EXPECT_EQ(try_find_result(results, "conv", "gzip"), nullptr);
  EXPECT_EQ(try_find_result(results, "ssa", "swim"), nullptr);
  EXPECT_EQ(try_find_result({}, "swim"), nullptr);
}

TEST(Report, FindResultDiesWhenAbsent) {
  std::vector<SimResult> results;
  results.push_back(make_result("c", "swim", 1, 1));
  EXPECT_DEATH((void)find_result(results, "gzip"), "not present");
}

TEST(Report, EmptyGroupMeanIsZero) {
  const std::vector<SimResult> empty;
  EXPECT_EQ(group_mean(empty, BenchGroup::All,
                       [](const SimResult& r) { return r.ipc(); }),
            0.0);
  // An all-INT result set has an empty FP group.
  std::vector<SimResult> int_only;
  int_only.push_back(make_result("c", "gzip", 100, 200));
  EXPECT_EQ(group_mean(int_only, BenchGroup::Fp,
                       [](const SimResult& r) { return r.ipc(); }),
            0.0);
  EXPECT_EQ(group_speedup(empty, empty, BenchGroup::All), 0.0);
}

TEST(Report, GroupMeanByRegisteredMetricName) {
  std::vector<SimResult> results;
  results.push_back(make_result("c", "swim", 100, 200));  // ipc 2
  results.push_back(make_result("c", "gzip", 100, 100));  // ipc 1
  EXPECT_DOUBLE_EQ(group_mean(results, BenchGroup::All, "ipc"), 1.5);
  EXPECT_DOUBLE_EQ(group_mean(results, BenchGroup::All, "cycles"), 100.0);
  EXPECT_DOUBLE_EQ(
      group_mean(results, BenchGroup::Int, "comms_per_instr"),
      results[1].comms_per_instr());
}

TEST(Report, GroupMeanByUnknownMetricNameDies) {
  std::vector<SimResult> results;
  results.push_back(make_result("c", "swim", 100, 200));
  EXPECT_DEATH((void)group_mean(results, BenchGroup::All, "no_such"),
               "unknown metric");
}

TEST(Report, ZeroIpcSpeedupEntryDies) {
  // A zero-IPC entry would make the geometric mean ill-defined; the
  // contract is an abort, not a NaN propagating into a figure.
  std::vector<SimResult> ring;
  std::vector<SimResult> conv;
  ring.push_back(make_result("r", "swim", 100, 0));  // 0 IPC
  conv.push_back(make_result("c", "swim", 100, 200));
  EXPECT_DEATH((void)group_speedup(ring, conv, BenchGroup::All), "ratio");
}

TEST(Report, MisalignedSpeedupSpansDie) {
  std::vector<SimResult> ring;
  std::vector<SimResult> conv;
  ring.push_back(make_result("r", "swim", 100, 220));
  // Size mismatch dies on the span-length precondition.
  EXPECT_DEATH((void)group_speedup(ring, conv, BenchGroup::All), "size");
  // Equal sizes but different benchmark order dies on the alignment check.
  conv.push_back(make_result("c", "gzip", 100, 200));
  EXPECT_DEATH((void)group_speedup(ring, conv, BenchGroup::All),
               "benchmark");
}

}  // namespace
}  // namespace ringclu
