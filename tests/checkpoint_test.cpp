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
//   - completeness: a loaded processor equals the one that saved the
//     bytes and loaded them back (CheckpointEquality),
// and pin the invalidation rules: corrupt, truncated, version-bumped or
// identity-mismatched files are rejected gracefully (restore_checkpoint
// returns false with a diagnostic; nothing aborts) so callers fall back
// to a cold run.
//
// Alongside lives the warmup/reset correctness audit: run() must equal
// warmup()+measure() field for field, and measured counters must exclude
// every warmup-phase event (the stats-reset-at-boundary regression).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/arch_config.h"
#include "core/checkpoint.h"
#include "core/processor.h"
#include "core/sim_observer.h"
#include "harness/result_store.h"
#include "harness/runner.h"
#include "harness/sim_service.h"
#include "steer/registry.h"
#include "trace/synth/suite.h"
#include "trace/vector_source.h"
#include "util/rng.h"

namespace ringclu {
namespace {

constexpr std::uint64_t kWarmup = 2000;
constexpr std::uint64_t kMeasure = 15000;
constexpr std::uint64_t kSeed = 42;

void expect_identical(const SimCounters& a, const SimCounters& b) {
  for (const CounterField& field : kCounterFields) {
    EXPECT_EQ(a.*field.member, b.*field.member) << field.name;
  }
  ASSERT_EQ(a.dispatched_per_cluster.size(), b.dispatched_per_cluster.size());
  for (std::size_t c = 0; c < a.dispatched_per_cluster.size(); ++c) {
    EXPECT_EQ(a.dispatched_per_cluster[c], b.dispatched_per_cluster[c])
        << "cluster " << c;
  }
}

/// Fresh per-test scratch directory under gtest's temp root.  The name
/// includes the running test's, so tests that ctest runs in parallel
/// processes never share (and wipe) one directory.
std::filesystem::path fresh_dir(const std::string& tag) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "ringclu_ckpt_" + std::string(test->test_suite_name()) +
                     "." + test->name() + "_" + tag;
  std::replace(name.begin(), name.end(), '/', '_');
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
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
                      Scenario{"Ring_8clus_1bus_2IW+SSA", "mcf"},
                      // Memory-bound: many loads gated on older stores are
                      // in flight at the warmup boundary.
                      Scenario{"Conv_8clus_1bus_2IW", "ammp"},
                      Scenario{"Ring_8clus_1bus_2IW", "art"}),
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

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Offset of the first section tagged \p tag (four ASCII characters).
std::size_t section_offset(const std::string& bytes, const char* tag) {
  const std::size_t at = bytes.find(tag);
  EXPECT_NE(at, std::string::npos) << tag;
  return at;
}

// A corrupt record count is rejected by the count check itself, before
// restore reserves or pushes anything for it.  The value map below claims
// 2^20 values (166 bytes each) in a section that holds only the count: a
// restore that trusted the count would build 2^20 values from zeros and
// fail only after its loop, on the truncated section.
TEST_F(CheckpointRejection, CorruptCountFailsBeforeAllocating) {
  std::string bytes = read_bytes(path_);
  // Section: u32 tag, u64 payload length, then the payload, which for the
  // value map starts with the u64 value count.
  const std::size_t values = section_offset(bytes, "VMAP");
  ASSERT_LT(values + 20, bytes.size());
  const auto put_u64 = [&](std::size_t at, std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + static_cast<std::size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xFF);
    }
  };
  put_u64(values + 4, 8);
  put_u64(values + 12, 1u << 20);
  write_bytes(path_, bytes);
  Processor processor(config_, kSeed);
  auto trace = make_benchmark_trace(benchmark_, kSeed);
  std::string error;
  EXPECT_FALSE(restore_checkpoint(path_, processor, *trace,
                                  expectation(config_, benchmark_), nullptr,
                                  &error));
  EXPECT_NE(error.find("cannot fit"), std::string::npos) << error;
}

// Every truncation length (at a stride) and a byte flip at every k-th
// offset of the processor section of small Ring and Conv warmup
// checkpoints: restore returns false with a diagnostic, or true.  It never
// aborts on a contract or, under the ASan/UBSan build, touches memory it
// does not own.
TEST(CheckpointCorruption, TruncationsAndByteFlipsNeverAbort) {
  for (const char* preset : {"Ring_4clus_1bus_2IW", "Conv_4clus_1bus_2IW"}) {
    const ArchConfig config = ArchConfig::preset(preset);
    const std::filesystem::path dir = fresh_dir(preset);
    const std::string warm = (dir / "warm.ckpt").string();
    const std::string path = (dir / "corrupt.ckpt").string();
    save_warmup_checkpoint(config, "gcc", warm);
    const std::string bytes = read_bytes(warm);
    const std::size_t processor_at = section_offset(bytes, "PROC");
    int rejected = 0;
    const auto attempt = [&](const std::string& corrupt) {
      write_bytes(path, corrupt);
      Processor processor(config, kSeed);
      auto trace = make_benchmark_trace("gcc", kSeed);
      std::string error;
      if (!restore_checkpoint(path, processor, *trace,
                              expectation(config, "gcc"), nullptr, &error)) {
        EXPECT_FALSE(error.empty());
        ++rejected;
      }
    };
    for (std::size_t length = 0; length < bytes.size(); length += 4099) {
      attempt(bytes.substr(0, length));
    }
    for (std::size_t at = processor_at; at < bytes.size(); at += 1021) {
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(flipped[at] ^ 0x5a);
      attempt(flipped);
    }
    EXPECT_GT(rejected, 0) << preset;
  }
}

// ---- Crash-resume snapshots --------------------------------------------

/// What the processor held when the snapshot was taken.
struct SnapshotPoint {
  std::size_t lsq = 0;
  std::size_t parked = 0;
  bool steer_stall_held = false;
};

/// Snapshots once mid-measure, throws that processor away as a crash
/// would, resumes from the snapshot and checks the finished run equals an
/// uninterrupted one.  The snapshot is taken at the first crossing of a
/// \p interval boundary (at least 4000 instructions in) where \p take
/// accepts the processor.
SnapshotPoint expect_snapshot_resume_is_exact(
    const char* preset, const std::string& benchmark,
    std::uint64_t interval = 4000,
    const std::function<bool(const Processor&)>& take =
        [](const Processor&) { return true; }) {
  const ArchConfig config = ArchConfig::preset(preset);
  const std::filesystem::path dir = fresh_dir("snapshot_" + benchmark);
  const std::string snap = (dir / "snap.ckpt").string();

  const SimResult uninterrupted = cold_run(config, benchmark);

  SnapshotPoint at_snapshot;
  {
    auto trace = make_benchmark_trace(benchmark, kSeed);
    Processor processor(config, kSeed);
    processor.warmup(*trace, kWarmup);
    bool saved = false;
    RunHooks hooks;
    hooks.snapshot_interval_instrs = interval;
    hooks.on_snapshot = [&] {
      if (saved || processor.committed_total() < kWarmup + 4000 ||
          !take(processor)) {
        return;
      }
      saved = true;
      at_snapshot.lsq = processor.lsq_size();
      at_snapshot.parked = processor.parked_loads();
      at_snapshot.steer_stall_held = processor.steer_stall_held();
      EXPECT_TRUE(processor.mid_measure());
      CheckpointMeta meta;
      meta.seed = kSeed;
      std::string error;
      EXPECT_TRUE(save_checkpoint(snap, processor, *trace, meta, &error))
          << error;
    };
    (void)processor.measure(*trace, kMeasure, hooks);
    EXPECT_TRUE(saved);
    if (!saved) return at_snapshot;
  }

  Processor resumed(config, kSeed);
  auto trace = make_benchmark_trace(benchmark, kSeed);
  CheckpointMeta meta;
  std::string error;
  const bool restored = restore_checkpoint(
      snap, resumed, *trace, expectation(config, benchmark), &meta, &error);
  EXPECT_TRUE(restored) << error;
  if (!restored) return at_snapshot;
  EXPECT_TRUE(resumed.mid_measure());
  EXPECT_GE(meta.committed, kWarmup + 4000);

  const SimResult finished = resumed.measure(*trace, kMeasure);
  expect_identical(uninterrupted.counters, finished.counters);
  EXPECT_EQ(finished.total_committed,
            uninterrupted.total_committed - meta.committed);
  return at_snapshot;
}

TEST(CheckpointSnapshot, MidMeasureResumeIsBitIdenticalToUninterrupted) {
  (void)expect_snapshot_resume_is_exact("Ring_8clus_1bus_2IW", "gcc");
}

// ammp keeps loads waiting on older stores in the LSQ, so the snapshot
// carries disambiguation state that restore must rebuild exactly.
TEST(CheckpointSnapshot, MidMeasureResumeWithLoadsInFlightIsExact) {
  EXPECT_GT(
      expect_snapshot_resume_is_exact("Conv_8clus_1bus_2IW", "ammp").lsq,
      0u);
}

// Parked loads are saved merged into the active list in arrival order and
// re-parked by the first memory stage after restore: a snapshot taken
// while some are parked must resume exactly.
TEST(CheckpointSnapshot, MidMeasureResumeWithParkedLoadsIsExact) {
  EXPECT_GT(expect_snapshot_resume_is_exact(
                "Ring_8clus_1bus_2IW", "equake", 100,
                [](const Processor& processor) {
                  return processor.parked_loads() > 1;
                })
                .parked,
            1u);
}

// A remembered steer stall is not saved: the restored processor asks the
// policy again on its first dispatch, which must stall the same way.
TEST(CheckpointSnapshot, MidMeasureResumeWhileASteerStallIsHeldIsExact) {
  EXPECT_TRUE(expect_snapshot_resume_is_exact(
                  "Conv_8clus_1bus_2IW", "ammp", 10,
                  [](const Processor& processor) {
                    return processor.steer_stall_held();
                  })
                  .steer_stall_held);
}

// ---- Load equality: a checkpoint holds every member --------------------

/// A configuration and workload whose snapshots the equality test loads.
struct EqualityCase {
  ArchConfig config;
  std::string workload;  ///< a benchmark, or kForwardingLoop
};

constexpr const char* kForwardingLoop = "fwd";

/// store [A] = x; y = load [A], looped: the one workload that forwards
/// from the LSQ.
std::unique_ptr<TraceSource> forwarding_loop() {
  MicroOp store;
  store.cls = OpClass::Store;
  store.src[0] = RegId::int_reg(0);
  store.src[1] = RegId::int_reg(2);
  store.mem_addr = 0x2000;
  MicroOp load;
  load.cls = OpClass::Load;
  load.dst = RegId::int_reg(3);
  load.src[0] = RegId::int_reg(0);
  load.mem_addr = 0x2000;
  std::vector<MicroOp> loop = {store, load};
  return std::make_unique<VectorTraceSource>(std::move(loop), true,
                                             kForwardingLoop);
}

/// Together the cases drive every counter and so every component: Ring
/// and Conv with each built-in policy, two buses, a tiny LSQ and register
/// file (LSQ stalls, copy evictions), eager copy release with a 1 KiB L1I
/// (i-cache stalls), and the forwarding loop.
std::vector<EqualityCase> equality_cases() {
  const ArchConfig ring = ArchConfig::preset("Ring_8clus_1bus_2IW");
  ArchConfig random = ArchConfig::preset("Conv_8clus_2bus_2IW");
  EXPECT_FALSE(random.set_steering("random").has_value());
  ArchConfig round_robin = ring;
  EXPECT_FALSE(round_robin.set_steering("round_robin").has_value());
  ArchConfig small = ArchConfig::preset("Conv_4clus_1bus_2IW");
  small.lsq_size = 8;
  small.regs_per_class = 40;
  ArchConfig eager = ring;
  eager.eager_copy_release = true;
  eager.mem.l1i.size_bytes = 1024;
  return {
      {ring, "ammp"},
      {ArchConfig::preset("Conv_8clus_1bus_2IW"), "ammp"},
      {ArchConfig::preset("Ring_8clus_1bus_2IW+SSA"), "gcc"},
      {random, "equake"},
      {round_robin, "crafty"},
      {small, "art"},
      {eager, "gzip"},
      {ring, kForwardingLoop},
  };
}

// Loading must overwrite every member.  Each snapshot is loaded into a
// fresh processor and back into the one that saved it, which puts both in
// the same canonical layout (ordinals rebased, heaps rebuilt, derived
// state recomputed); the two must then compare equal.  A member that
// transfer() skips keeps its live value in one and its constructor value
// in the other, and a new member joins the defaulted operator== without
// being listed anywhere.  Snapshots come from inside measure(), where the
// counters are synced; every counter must be nonzero at some snapshot, so
// each one's source holds live state when it is compared.
TEST(CheckpointEquality, LoadingASnapshotOverwritesEveryMember) {
  constexpr std::uint64_t kEqualityMeasure = 12000;
  std::vector<bool> counted(std::size(kCounterFields), false);
  for (const EqualityCase& test_case : equality_cases()) {
    auto trace = test_case.workload == kForwardingLoop
                     ? forwarding_loop()
                     : make_benchmark_trace(test_case.workload, kSeed);
    Processor saver(test_case.config, kSeed);
    saver.warmup(*trace, kWarmup);
    int snapshots = 0;
    RunHooks hooks;
    hooks.snapshot_interval_instrs = 4001;
    hooks.on_snapshot = [&] {
      ++snapshots;
      CheckpointWriter out;
      out.save(saver);
      Processor fresh(test_case.config, kSeed);
      CheckpointReader into_fresh(out.bytes());
      fresh.transfer(into_fresh);
      CheckpointReader into_saver(out.bytes());
      saver.transfer(into_saver);
      ASSERT_TRUE(into_fresh.ok()) << into_fresh.error();
      ASSERT_TRUE(into_saver.ok()) << into_saver.error();
      EXPECT_TRUE(saver == fresh)
          << test_case.config.name << "/" << test_case.workload
          << ", snapshot " << snapshots
          << ": a member is not transferred (or not reset on load)";
      for (std::size_t i = 0; i < std::size(kCounterFields); ++i) {
        if (saver.counters().*kCounterFields[i].member != 0) {
          counted[i] = true;
        }
      }
    };
    (void)saver.measure(*trace, kEqualityMeasure, hooks);
    EXPECT_GT(snapshots, 0) << test_case.config.name << "/"
                            << test_case.workload;
  }
  for (std::size_t i = 0; i < std::size(kCounterFields); ++i) {
    EXPECT_TRUE(counted[i]) << kCounterFields[i].name
                            << " is zero at every snapshot";
  }
}

// ---- Pinned checkpoint bytes -------------------------------------------

/// FNV-1a digest of a warmup checkpoint file, with the header's host-timed
/// prefix_wall_seconds masked: every other byte is simulator state.
std::uint64_t warmup_checkpoint_digest(const char* preset,
                                       const std::string& benchmark,
                                       std::size_t* lsq_size) {
  const ArchConfig config = ArchConfig::preset(preset);
  const std::filesystem::path dir =
      fresh_dir(std::string("digest_") + preset + "_" + benchmark);
  const std::string path = (dir / "warm.ckpt").string();
  {
    auto trace = make_benchmark_trace(benchmark, kSeed);
    Processor processor(config, kSeed);
    processor.warmup(*trace, kWarmup);
    *lsq_size = processor.lsq_size();
    CheckpointMeta meta;
    meta.seed = kSeed;
    meta.prefix_wall_seconds = 1.5;  // stands in for a host timing
    std::string error;
    EXPECT_TRUE(save_checkpoint(path, processor, *trace, meta, &error))
        << error;
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // Header: magic u64, format u32, schema i64, fingerprint and workload as
  // u32-length strings, seed/committed/trace position u64, then the f64.
  const std::size_t wall_offset = 8 + 4 + 8 + 4 +
                                  config.fingerprint().size() + 4 +
                                  benchmark.size() + 3 * 8;
  EXPECT_GE(bytes.size(), wall_offset + 8);
  if (bytes.size() < wall_offset + 8) return 0;
  EXPECT_EQ(bytes.substr(wall_offset, 8),
            std::string("\0\0\0\0\0\0\xf8\x3f", 8))  // 1.5, LE
      << "prefix_wall_seconds is not where the digest masks it";
  bytes.replace(wall_offset, 8, 8, '\0');
  return fnv1a(bytes);
}

// Restore-exactness tests compare a restored run with a cold one, so a
// change that alters what is written (and how it is read back) in step
// would pass them.  These digests pin the bytes themselves.
TEST(CheckpointGolden, WarmupCheckpointBytesArePinned) {
  struct Pinned {
    const char* preset;
    const char* benchmark;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {"Ring_8clus_1bus_2IW", "ammp", 0x8007d5f67ad38c9bULL},
      {"Conv_8clus_1bus_2IW", "ammp", 0x20b1f4ee1d5617ffULL},
  };
  for (const Pinned& pin : pinned) {
    std::size_t lsq_size = 0;
    const std::uint64_t digest =
        warmup_checkpoint_digest(pin.preset, pin.benchmark, &lsq_size);
    EXPECT_GT(lsq_size, 0u) << pin.preset;
    EXPECT_EQ(digest, pin.digest)
        << pin.preset << "/" << pin.benchmark << ": checkpoint bytes changed"
        << " (actual digest 0x" << std::hex << digest << ")";
  }
}

/// FNV-1a digest of a run's measured counters followed by its end-of-run
/// state (its saved bytes: everything a checkpoint holds).
std::uint64_t end_of_run_digest(const ArchConfig& config,
                                const std::string& benchmark,
                                SimCounters* measured) {
  auto trace = make_benchmark_trace(benchmark, kSeed);
  Processor processor(config, kSeed);
  *measured = processor.run(*trace, kWarmup, kMeasure).counters;
  CheckpointWriter out;
  out.save(*measured);
  out.save(processor);
  return fnv1a(out.bytes());
}

// steer=random draws from its RNG on every steer(), stalled or not, and
// Conv ammp stalls in steering on a large share of its cycles.  A
// quiescent-cycle skip that repeated a stall without its draw would move
// the RNG state and every later placement.  Generated before the skip
// existed.
TEST(CheckpointGolden, RandomSteeringRunIsPinned) {
  ArchConfig config = ArchConfig::preset("Conv_8clus_1bus_2IW");
  ASSERT_FALSE(config.set_steering("random").has_value());
  SimCounters measured;
  const std::uint64_t digest = end_of_run_digest(config, "ammp", &measured);
  EXPECT_GT(measured.steer_stall_cycles * 5, measured.cycles)
      << "no longer steer-stall heavy";
  EXPECT_EQ(digest, 0x3d3ed98b8d042206ULL)
      << "actual digest 0x" << std::hex << digest;
}

// With a 3-cycle address transfer a load reaches the cache cluster after
// cycles in which nothing else may happen: its load_due_ time is then the
// only trigger that ends a quiescent-cycle skip.  (At the paper's 1-cycle
// transfer it always follows an active cycle.)  Generated before the skip
// existed.
TEST(CheckpointGolden, SlowAddressTransferRunIsPinned) {
  ArchConfig config = ArchConfig::preset("Ring_8clus_1bus_2IW");
  config.dcache_transfer = 3;
  SimCounters measured;
  const std::uint64_t digest =
      end_of_run_digest(config, "equake", &measured);
  EXPECT_EQ(digest, 0x341373f63d6e69ccULL)
      << "actual digest 0x" << std::hex << digest;
}

// A mid-measure snapshot taken while loads are parked: save merges the
// parking lists into the active list by arrival, which must reproduce
// the one arrival-ordered list the format has always held.  Generated
// before parking existed.
TEST(CheckpointGolden, SnapshotWithParkedLoadsIsPinned) {
  constexpr std::uint64_t kSnapshotAt = kWarmup + 2300;
  const ArchConfig config = ArchConfig::preset("Ring_8clus_1bus_2IW");
  auto trace = make_benchmark_trace("equake", kSeed);
  Processor processor(config, kSeed);
  processor.warmup(*trace, kWarmup);
  std::string bytes;
  std::size_t parked = 0;
  RunHooks hooks;
  hooks.snapshot_interval_instrs = 100;
  hooks.on_snapshot = [&] {
    if (!bytes.empty() || processor.committed_total() < kSnapshotAt) return;
    parked = processor.parked_loads();
    CheckpointWriter out;
    out.save(processor);
    bytes = out.bytes();
  };
  (void)processor.measure(*trace, kMeasure, hooks);
  EXPECT_GE(parked, 4u);
  const std::uint64_t digest = fnv1a(bytes);
  EXPECT_EQ(digest, 0xb1cd11b3a1e7b8cbULL)
      << "actual digest 0x" << std::hex << digest;
}

// ---- Watched steer stalls ----------------------------------------------

/// steer() calls the counting wrappers below have seen.
struct SteerTally {
  std::uint64_t calls = 0;
  std::uint64_t stalls = 0;
};
SteerTally g_steer_tally;

/// Wraps the machine's built-in policy and counts its steer() calls.  With
/// \p forward_purity it forwards stalled_steer_is_pure(), so the core holds
/// watched stalls and skips steer-stalled quiet cycles; without, it keeps
/// the default and the core asks on every steer-stalled cycle.
class CountingSteering final : public SteeringPolicy {
 public:
  CountingSteering(std::unique_ptr<SteeringPolicy> inner, bool forward_purity)
      : inner_(std::move(inner)), forward_purity_(forward_purity) {}

  [[nodiscard]] SteerDecision steer(const SteerRequest& request,
                                    const SteerContext& context) override {
    SteerDecision decision = inner_->steer(request, context);
    ++g_steer_tally.calls;
    g_steer_tally.stalls += decision.stall;
    return decision;
  }
  void on_dispatch(int cluster) override { inner_->on_dispatch(cluster); }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] bool stalled_steer_is_pure() const override {
    return forward_purity_ && inner_->stalled_steer_is_pure();
  }
  void save_state(CheckpointWriter& out) const override {
    inner_->save_state(out);
  }
  void restore_state(CheckpointReader& in) override {
    inner_->restore_state(in);
  }

 private:
  std::unique_ptr<SteeringPolicy> inner_;
  bool forward_purity_;
};

/// \p preset with its steering wrapped by a CountingSteering.  A
/// "+eager" suffix turns on eager copy release: only then can a source of
/// a held stall lose a copy (change its mapped mask) while dispatch waits.
ArchConfig counting_config(std::string preset, bool forward_purity) {
  const std::string eager_suffix = "+eager";
  const bool eager = preset.ends_with(eager_suffix);
  if (eager) preset.resize(preset.size() - eager_suffix.size());
  static const bool registered = [] {
    for (const bool forward : {true, false}) {
      SteeringRegistry::global().register_policy(
          forward ? "test_counting_pure" : "test_counting_plain",
          [forward](const SteerFactoryArgs& args) {
            return std::make_unique<CountingSteering>(
                SteeringRegistry::global().create("enhanced", args), forward);
          });
    }
    return true;
  }();
  (void)registered;
  ArchConfig config = ArchConfig::preset(preset);
  config.eager_copy_release = eager;
  EXPECT_FALSE(config
                   .set_steering(forward_purity ? "test_counting_pure"
                                                : "test_counting_plain")
                   .has_value());
  return config;
}

/// Measured counters and end-of-run state bytes of one run, and the
/// steer() calls it made.
struct CountedRun {
  SimCounters counters;
  std::string state;
  SteerTally tally;
};

CountedRun counted_run(const std::string& preset, const std::string& benchmark,
                       bool forward_purity, std::uint64_t warmup = kWarmup,
                       std::uint64_t measure = kMeasure) {
  const ArchConfig config = counting_config(preset, forward_purity);
  auto trace = make_benchmark_trace(benchmark, kSeed);
  Processor processor(config, kSeed);
  g_steer_tally = SteerTally{};
  CountedRun run;
  run.counters = processor.run(*trace, warmup, measure).counters;
  run.tally = g_steer_tally;
  CheckpointWriter out;
  out.save(processor);
  run.state = out.bytes();
  return run;
}

// Holding a stall until a watched resource frees (and skipping the quiet
// cycles it allows) must be invisible: the same counters and the same
// end-of-run checkpoint bytes as asking the policy on every stalled cycle.
TEST(WatchedSteerStall, HoldingStallsMatchesAskingEveryCycle) {
  const std::pair<const char*, const char*> runs[] = {
      {"Ring_8clus_1bus_2IW", "ammp"},  {"Ring_8clus_1bus_2IW", "art"},
      {"Ring_8clus_1bus_2IW", "crafty"}, {"Conv_8clus_1bus_2IW", "ammp"},
      {"Conv_8clus_1bus_2IW", "art"},  {"Conv_8clus_1bus_2IW", "crafty"},
      {"Conv_8clus_2bus_2IW", "ammp"}, {"Conv_8clus_1bus_2IW@2cyc", "ammp"},
      {"Ring_8clus_1bus_2IW+eager", "ammp"},
      {"Conv_8clus_1bus_2IW+eager", "ammp"},
      {"Conv_8clus_1bus_2IW+eager", "crafty"},
  };
  int stalling_runs = 0;
  for (const auto& [preset, benchmark] : runs) {
    SCOPED_TRACE(std::string(preset) + " " + benchmark);
    const CountedRun held = counted_run(preset, benchmark, true);
    const CountedRun asked = counted_run(preset, benchmark, false);
    expect_identical(held.counters, asked.counters);
    EXPECT_TRUE(held.state == asked.state) << "end-of-run state differs";
    EXPECT_LE(held.tally.stalls, asked.tally.stalls);
    stalling_runs += held.tally.stalls < asked.tally.stalls;
  }
  // Ring art stalls too rarely to matter; the rest hold stalls.
  EXPECT_GE(stalling_runs, 9);
}

// On Conv ammp most steer-stalled cycles end with no watched resource
// freed, so holding the stall spares most stalled steer() calls.
TEST(WatchedSteerStall, SparesMostStalledCallsOnConvAmmp) {
  const CountedRun held = counted_run("Conv_8clus_1bus_2IW", "ammp", true,
                                      10000, 50000);
  const CountedRun asked = counted_run("Conv_8clus_1bus_2IW", "ammp", false,
                                       10000, 50000);
  // Asking every cycle stalls once per steer-stalled cycle.
  EXPECT_GE(asked.tally.stalls, asked.counters.steer_stall_cycles);
  EXPECT_LE(held.tally.stalls * 5, asked.tally.stalls)
      << held.tally.stalls << " held vs " << asked.tally.stalls
      << " asked stalled calls";
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
