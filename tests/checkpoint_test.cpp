// Checkpoint/restore contract tests.
//
// The hard bar (DESIGN.md §10): restoring a checkpoint into a freshly
// constructed Processor over a fresh trace source is bit-identical to
// having simulated the saved prefix cold.  These tests pin that for
//   - warmup checkpoints (save after warmup(), restore, measure()),
//   - mid-measure crash-resume snapshots (save inside a RunHooks
//     on_snapshot callback, restore, finish the measurement),
//   - the harness layers (run_sim_job with CheckpointOptions, SimService
//     with SimServiceOptions::checkpoint),
// and pin the invalidation rules: corrupt, truncated, version-bumped or
// identity-mismatched files are rejected gracefully (restore_checkpoint
// returns false with a diagnostic; nothing aborts) so callers fall back
// to a cold run.
//
// Alongside lives the warmup/reset correctness audit: run() must equal
// warmup()+measure() field for field, and measured counters must exclude
// every warmup-phase event (the stats-reset-at-boundary regression).

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "core/arch_config.h"
#include "core/checkpoint.h"
#include "core/processor.h"
#include "core/sim_observer.h"
#include "harness/result_store.h"
#include "harness/runner.h"
#include "harness/sim_service.h"
#include "trace/synth/suite.h"

namespace ringclu {
namespace {

constexpr std::uint64_t kWarmup = 2000;
constexpr std::uint64_t kMeasure = 15000;
constexpr std::uint64_t kSeed = 42;

void expect_identical(const SimCounters& a, const SimCounters& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.comms, b.comms);
  EXPECT_EQ(a.comm_distance_sum, b.comm_distance_sum);
  EXPECT_EQ(a.comm_contention_sum, b.comm_contention_sum);
  EXPECT_EQ(a.nready_sum, b.nready_sum);
  ASSERT_EQ(a.dispatched_per_cluster.size(), b.dispatched_per_cluster.size());
  for (std::size_t c = 0; c < a.dispatched_per_cluster.size(); ++c) {
    EXPECT_EQ(a.dispatched_per_cluster[c], b.dispatched_per_cluster[c])
        << "cluster " << c;
  }
  EXPECT_EQ(a.branches, b.branches);
  EXPECT_EQ(a.mispredicts, b.mispredicts);
  EXPECT_EQ(a.icache_stall_cycles, b.icache_stall_cycles);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.load_forwards, b.load_forwards);
  EXPECT_EQ(a.l1d_accesses, b.l1d_accesses);
  EXPECT_EQ(a.l1d_misses, b.l1d_misses);
  EXPECT_EQ(a.l2_accesses, b.l2_accesses);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.steer_stall_cycles, b.steer_stall_cycles);
  EXPECT_EQ(a.rob_stall_cycles, b.rob_stall_cycles);
  EXPECT_EQ(a.lsq_stall_cycles, b.lsq_stall_cycles);
  EXPECT_EQ(a.copy_evictions, b.copy_evictions);
  EXPECT_EQ(a.rob_occupancy_sum, b.rob_occupancy_sum);
  EXPECT_EQ(a.regs_in_use_sum, b.regs_in_use_sum);
}

/// Fresh per-test scratch directory under gtest's temp root.
std::filesystem::path fresh_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("ringclu_ckpt_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Cold reference: one monolithic run().
SimResult cold_run(const ArchConfig& config, const std::string& benchmark,
                   std::uint64_t warmup = kWarmup,
                   std::uint64_t measure = kMeasure) {
  auto trace = make_benchmark_trace(benchmark, kSeed);
  Processor processor(config, kSeed);
  return processor.run(*trace, warmup, measure);
}

/// Warms a fresh processor and saves a warmup checkpoint to \p path.
void save_warmup_checkpoint(const ArchConfig& config,
                            const std::string& benchmark,
                            const std::string& path) {
  auto trace = make_benchmark_trace(benchmark, kSeed);
  Processor processor(config, kSeed);
  processor.warmup(*trace, kWarmup);
  CheckpointMeta meta;
  meta.seed = kSeed;
  std::string error;
  ASSERT_TRUE(save_checkpoint(path, processor, *trace, meta, &error)) << error;
}

CheckpointExpectation expectation(const ArchConfig& config,
                                  const std::string& benchmark) {
  CheckpointExpectation expect;
  expect.config_fingerprint = config.fingerprint();
  expect.workload = benchmark;
  expect.seed = kSeed;
  return expect;
}

struct Scenario {
  const char* preset;
  const char* benchmark;
};

class CheckpointRoundTrip : public ::testing::TestWithParam<Scenario> {};

TEST_P(CheckpointRoundTrip, WarmRestoreIsBitIdenticalToColdRun) {
  const ArchConfig config = ArchConfig::preset(GetParam().preset);
  const std::string benchmark = GetParam().benchmark;
  const std::filesystem::path dir =
      fresh_dir(std::string("round_") + GetParam().preset + "_" + benchmark);
  const std::string path = (dir / "warm.ckpt").string();

  const SimResult cold = cold_run(config, benchmark);
  save_warmup_checkpoint(config, benchmark, path);

  Processor restored(config, kSeed);
  auto trace = make_benchmark_trace(benchmark, kSeed);
  CheckpointMeta meta;
  std::string error;
  ASSERT_TRUE(restore_checkpoint(path, restored, *trace,
                                 expectation(config, benchmark), &meta,
                                 &error))
      << error;
  EXPECT_GE(meta.committed, kWarmup);
  EXPECT_EQ(meta.trace_position, trace->position());
  EXPECT_FALSE(restored.mid_measure());

  const SimResult warm = restored.measure(*trace, kMeasure);
  ASSERT_GT(cold.counters.committed, 0u);
  expect_identical(cold.counters, warm.counters);
}

INSTANTIATE_TEST_SUITE_P(
    BothMachines, CheckpointRoundTrip,
    ::testing::Values(Scenario{"Ring_8clus_1bus_2IW", "gcc"},
                      Scenario{"Conv_8clus_1bus_2IW", "gcc"},
                      Scenario{"Ring_4clus_1bus_2IW", "swim"},
                      Scenario{"Ring_8clus_1bus_2IW+SSA", "mcf"}),
    [](const ::testing::TestParamInfo<Scenario>& param_info) {
      std::string name = std::string(param_info.param.preset) + "_" +
                         param_info.param.benchmark;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(CheckpointRoundTrip, OneWarmupCheckpointServesMultipleBudgets) {
  // The sweep-sharing property: a single warmup checkpoint feeds every
  // measurement budget (budgets differ only after the warmup boundary).
  const ArchConfig config = ArchConfig::preset("Ring_8clus_1bus_2IW");
  const std::string benchmark = "gzip";
  const std::filesystem::path dir = fresh_dir("budgets");
  const std::string path = (dir / "warm.ckpt").string();
  save_warmup_checkpoint(config, benchmark, path);

  for (const std::uint64_t budget : {5000ull, 12000ull}) {
    Processor restored(config, kSeed);
    auto trace = make_benchmark_trace(benchmark, kSeed);
    std::string error;
    ASSERT_TRUE(restore_checkpoint(path, restored, *trace,
                                   expectation(config, benchmark), nullptr,
                                   &error))
        << error;
    const SimResult warm = restored.measure(*trace, budget);
    const SimResult cold = cold_run(config, benchmark, kWarmup, budget);
    expect_identical(cold.counters, warm.counters);
  }
}

// The commits before a checkpoint were restored, not simulated, so a
// restored run's total_committed (and the sim rate derived from it)
// leaves them out.
TEST(CheckpointRoundTrip, RestoredRunCountsOnlyItsOwnCommits) {
  const ArchConfig config = ArchConfig::preset("Ring_8clus_1bus_2IW");
  const std::string benchmark = "gcc";
  const std::filesystem::path dir = fresh_dir("total_committed");
  const std::string path = (dir / "warm.ckpt").string();

  const SimResult cold = cold_run(config, benchmark);
  save_warmup_checkpoint(config, benchmark, path);

  Processor restored(config, kSeed);
  auto trace = make_benchmark_trace(benchmark, kSeed);
  CheckpointMeta meta;
  std::string error;
  ASSERT_TRUE(restore_checkpoint(path, restored, *trace,
                                 expectation(config, benchmark), &meta,
                                 &error))
      << error;
  ASSERT_GE(meta.committed, kWarmup);
  const SimResult warm = restored.measure(*trace, kMeasure);
  EXPECT_EQ(warm.total_committed, cold.total_committed - meta.committed);
}

TEST(CheckpointRoundTrip, MetaHeaderRecordsIdentity) {
  const ArchConfig config = ArchConfig::preset("Ring_4clus_1bus_2IW");
  const std::string benchmark = "art";
  const std::filesystem::path dir = fresh_dir("meta");
  const std::string path = (dir / "warm.ckpt").string();
  save_warmup_checkpoint(config, benchmark, path);

  std::string error;
  const auto meta = read_checkpoint_meta(path, &error);
  ASSERT_TRUE(meta.has_value()) << error;
  EXPECT_EQ(meta->format_version, kCheckpointFormatVersion);
  EXPECT_EQ(meta->sim_schema, kSimSchemaVersion);
  EXPECT_EQ(meta->config_fingerprint, config.fingerprint());
  EXPECT_EQ(meta->workload, benchmark);
  EXPECT_EQ(meta->seed, kSeed);
  EXPECT_GE(meta->committed, kWarmup);
  EXPECT_GT(meta->trace_position, 0u);
}

// ---- Invalidation rules ------------------------------------------------

class CheckpointRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = ArchConfig::preset("Ring_4clus_1bus_2IW");
    // One directory per test: ctest runs these in parallel processes.
    dir_ = fresh_dir(
        std::string("reject_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    path_ = (dir_ / "warm.ckpt").string();
    save_warmup_checkpoint(config_, benchmark_, path_);
  }

  /// Restore must fail gracefully: false + non-empty diagnostic, no abort.
  void expect_rejected(const std::string& path,
                       const CheckpointExpectation& expect) {
    Processor processor(config_, kSeed);
    auto trace = make_benchmark_trace(benchmark_, kSeed);
    std::string error;
    EXPECT_FALSE(
        restore_checkpoint(path, processor, *trace, expect, nullptr, &error));
    EXPECT_FALSE(error.empty());
  }

  void corrupt_byte(std::size_t offset, char delta) {
    std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(offset));
    file.put(static_cast<char>(byte + delta));
  }

  ArchConfig config_;
  std::string benchmark_ = "gcc";
  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(CheckpointRejection, MissingFile) {
  expect_rejected((dir_ / "nope.ckpt").string(),
                  expectation(config_, benchmark_));
}

TEST_F(CheckpointRejection, CorruptMagic) {
  corrupt_byte(0, 1);
  expect_rejected(path_, expectation(config_, benchmark_));
}

TEST_F(CheckpointRejection, WrongFormatVersion) {
  corrupt_byte(8, 1);  // format_version u32 follows the u64 magic
  expect_rejected(path_, expectation(config_, benchmark_));
}

TEST_F(CheckpointRejection, TruncatedStream) {
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size / 2);
  expect_rejected(path_, expectation(config_, benchmark_));
}

TEST_F(CheckpointRejection, FlippedBodyByteFailsValidation) {
  // Deep in the processor section, past the header identity checks: the
  // bounds/consistency checks must still catch it or the sections no
  // longer parse — either way restore fails instead of silently
  // producing a corrupted simulation.  Flipping a payload byte can
  // legitimately survive (e.g. a counter value), so flip a section
  // length byte near the end where parse structure must break.
  const auto size = std::filesystem::file_size(path_);
  corrupt_byte(static_cast<std::size_t>(size) - 9, 37);
  Processor processor(config_, kSeed);
  auto trace = make_benchmark_trace(benchmark_, kSeed);
  std::string error;
  const bool restored = restore_checkpoint(
      path_, processor, *trace, expectation(config_, benchmark_), nullptr,
      &error);
  if (!restored) {
    EXPECT_FALSE(error.empty());
  }
}

TEST_F(CheckpointRejection, FingerprintMismatch) {
  CheckpointExpectation expect = expectation(config_, benchmark_);
  expect.config_fingerprint =
      ArchConfig::preset("Conv_8clus_1bus_2IW").fingerprint();
  expect_rejected(path_, expect);
}

TEST_F(CheckpointRejection, WorkloadMismatch) {
  CheckpointExpectation expect = expectation(config_, benchmark_);
  expect.workload = "swim";
  expect_rejected(path_, expect);
}

TEST_F(CheckpointRejection, SeedMismatch) {
  CheckpointExpectation expect = expectation(config_, benchmark_);
  expect.seed = kSeed + 1;
  expect_rejected(path_, expect);
}

// ---- Crash-resume snapshots --------------------------------------------

TEST(CheckpointSnapshot, MidMeasureResumeIsBitIdenticalToUninterrupted) {
  const ArchConfig config = ArchConfig::preset("Ring_8clus_1bus_2IW");
  const std::string benchmark = "gcc";
  const std::filesystem::path dir = fresh_dir("snapshot");
  const std::string snap = (dir / "snap.ckpt").string();

  const SimResult uninterrupted = cold_run(config, benchmark);

  // The "interrupted" run: snapshot once mid-measure, then throw the
  // processor away as a crash would.
  {
    auto trace = make_benchmark_trace(benchmark, kSeed);
    Processor processor(config, kSeed);
    processor.warmup(*trace, kWarmup);
    bool saved = false;
    RunHooks hooks;
    hooks.snapshot_interval_instrs = 4000;
    hooks.on_snapshot = [&] {
      if (saved) return;
      saved = true;
      EXPECT_TRUE(processor.mid_measure());
      CheckpointMeta meta;
      meta.seed = kSeed;
      std::string error;
      EXPECT_TRUE(save_checkpoint(snap, processor, *trace, meta, &error))
          << error;
    };
    (void)processor.measure(*trace, kMeasure, hooks);
    ASSERT_TRUE(saved);
  }

  Processor resumed(config, kSeed);
  auto trace = make_benchmark_trace(benchmark, kSeed);
  CheckpointMeta meta;
  std::string error;
  ASSERT_TRUE(restore_checkpoint(snap, resumed, *trace,
                                 expectation(config, benchmark), &meta,
                                 &error))
      << error;
  EXPECT_TRUE(resumed.mid_measure());
  EXPECT_GE(meta.committed, kWarmup + 4000);

  const SimResult finished = resumed.measure(*trace, kMeasure);
  expect_identical(uninterrupted.counters, finished.counters);
  EXPECT_EQ(finished.total_committed,
            uninterrupted.total_committed - meta.committed);
}

// ---- Harness integration -----------------------------------------------

SimJob make_job(const std::string& benchmark) {
  SimJob job;
  job.config = ArchConfig::preset("Ring_8clus_1bus_2IW");
  job.benchmark = benchmark;
  job.params.instrs = kMeasure;
  job.params.warmup = kWarmup;
  job.params.seed = kSeed;
  return job;
}

TEST(CheckpointHarness, RunSimJobReusesTheWarmupCheckpoint) {
  const std::filesystem::path dir = fresh_dir("harness");
  CheckpointOptions checkpoint;
  checkpoint.dir = dir.string();

  const SimResult plain = run_sim_job(make_job("gzip"));

  const SimResult first = run_sim_job(make_job("gzip"), checkpoint);
  EXPECT_FALSE(first.warmup_restored);  // cold: writes the checkpoint
  expect_identical(plain.counters, first.counters);

  std::size_t warm_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    warm_files += entry.path().filename().string().rfind("warm_", 0) == 0;
  }
  EXPECT_EQ(warm_files, 1u);

  const SimResult second = run_sim_job(make_job("gzip"), checkpoint);
  EXPECT_TRUE(second.warmup_restored);
  EXPECT_GE(second.warmup_amortized_seconds, 0.0);
  expect_identical(plain.counters, second.counters);
}

TEST(CheckpointHarness, DifferentWorkloadsGetDifferentCheckpoints) {
  const std::filesystem::path dir = fresh_dir("harness_two");
  CheckpointOptions checkpoint;
  checkpoint.dir = dir.string();

  (void)run_sim_job(make_job("gzip"), checkpoint);
  (void)run_sim_job(make_job("swim"), checkpoint);

  std::size_t warm_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    warm_files += entry.path().filename().string().rfind("warm_", 0) == 0;
  }
  EXPECT_EQ(warm_files, 2u);

  // And each workload restores its own.
  const SimResult again = run_sim_job(make_job("swim"), checkpoint);
  EXPECT_TRUE(again.warmup_restored);
  expect_identical(run_sim_job(make_job("swim")).counters, again.counters);
}

TEST(CheckpointHarness, ServiceWorkersRestoreWarmupCheckpoints) {
  const std::filesystem::path dir = fresh_dir("service");
  SimServiceOptions options;
  options.threads = 1;
  options.force = true;  // bypass the store so the second submit simulates
  options.checkpoint.dir = dir.string();
  SimService service(make_result_store(StoreBackend::Memory, "", false),
                     options);

  JobHandle first = service.submit(make_job("mcf"));
  ASSERT_EQ(first.wait(), JobStatus::Done);
  EXPECT_FALSE(first.result().warmup_restored);

  JobHandle second = service.submit(make_job("mcf"));
  ASSERT_EQ(second.wait(), JobStatus::Done);
  EXPECT_TRUE(second.result().warmup_restored);
  expect_identical(first.result().counters, second.result().counters);
}

// ---- Warmup/reset correctness audit ------------------------------------

TEST(WarmupBoundary, SplitPhasesEqualMonolithicRun) {
  const ArchConfig config = ArchConfig::preset("Ring_8clus_1bus_2IW");
  const SimResult monolithic = cold_run(config, "gcc");

  auto trace = make_benchmark_trace("gcc", kSeed);
  Processor processor(config, kSeed);
  processor.warmup(*trace, kWarmup);
  const SimResult split = processor.measure(*trace, kMeasure);

  expect_identical(monolithic.counters, split.counters);
}

TEST(WarmupBoundary, MeasuredCountersExcludeWarmup) {
  // The stats reset at the warmup boundary: measured committed covers the
  // measurement window only, never warmup commits.
  const ArchConfig config = ArchConfig::preset("Ring_8clus_1bus_2IW");
  const SimResult result = cold_run(config, "gcc");
  EXPECT_GE(result.counters.committed, kMeasure);
  EXPECT_LT(result.counters.committed, kWarmup + kMeasure);

  // Same window measured with zero warmup commits more than the warmed
  // window's cycles would suggest identical state — i.e. warmup actually
  // changed initial conditions, so the boundary reset has teeth.
  const SimResult unwarmed = cold_run(config, "gcc", 0, kMeasure);
  EXPECT_NE(serialize_result(unwarmed), serialize_result(result));
}

// ---- Satellite: warmup default tracks instrs/10 ------------------------

TEST(WarmupDefaults, RunnerOptionsWarmupIsTenPercentOfInstrs) {
  EXPECT_EQ(RunnerOptions{}.warmup, 20000u);  // documented default budget
  const RunnerOptions scaled{.instrs = 500000};
  EXPECT_EQ(scaled.warmup, 50000u);  // tracks a designated-initializer instrs
}

TEST(WarmupDefaults, RunParamsWarmupIsTenPercentOfInstrs) {
  EXPECT_EQ(RunParams{}.warmup, 20000u);
  const RunParams scaled{.instrs = 500000};
  EXPECT_EQ(scaled.warmup, 50000u);
}

TEST(WarmupDefaults, EnvDefaultMatchesDocs) {
  // README/runner.h document RINGCLU_WARMUP's default as instrs/10; the
  // env reader must agree with the struct default (this pin is what
  // caught the hard-coded 20000 divergence).
  ::unsetenv("RINGCLU_INSTRS");
  ::unsetenv("RINGCLU_WARMUP");
  const RunnerOptions defaults = RunnerOptions::from_env();
  EXPECT_EQ(defaults.warmup, defaults.instrs / 10);

  ::setenv("RINGCLU_INSTRS", "400000", 1);
  const RunnerOptions scaled = RunnerOptions::from_env();
  EXPECT_EQ(scaled.instrs, 400000u);
  EXPECT_EQ(scaled.warmup, 40000u);
  ::unsetenv("RINGCLU_INSTRS");
}

}  // namespace
}  // namespace ringclu
