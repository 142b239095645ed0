// TraceSource conformance suite: every source — all 26 synthetic
// benchmarks, VectorTraceSource (looping and finite) and TracePackReader —
// must honor the base-class contracts the checkpoint machinery depends on:
//   - reset() replays the stream byte-identically from the beginning,
//   - position() counts exactly the ops handed out since the last reset,
//   - restore_pos() into a freshly constructed same-config source yields
//     exactly the remainder the original source would have yielded.
// A source that violates any of these silently breaks warmup-checkpoint
// restore (the trace would resume at the wrong op), so this suite is the
// safety net under DESIGN.md §10's position contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "trace/pack/pack_format.h"
#include "trace/pack/pack_reader.h"
#include "trace/pack/pack_writer.h"
#include "trace/synth/suite.h"
#include "trace/trace_source.h"
#include "trace/vector_source.h"

namespace ringclu {
namespace {

constexpr std::uint64_t kSeed = 42;

void expect_same_op(const MicroOp& a, const MicroOp& b, std::size_t index) {
  EXPECT_EQ(a.pc, b.pc) << "op " << index;
  EXPECT_EQ(a.cls, b.cls) << "op " << index;
  EXPECT_EQ(a.dst, b.dst) << "op " << index;
  EXPECT_EQ(a.src[0], b.src[0]) << "op " << index;
  EXPECT_EQ(a.src[1], b.src[1]) << "op " << index;
  EXPECT_EQ(a.mem_addr, b.mem_addr) << "op " << index;
  EXPECT_EQ(a.mem_size, b.mem_size) << "op " << index;
  EXPECT_EQ(a.branch_kind, b.branch_kind) << "op " << index;
  EXPECT_EQ(a.taken, b.taken) << "op " << index;
  EXPECT_EQ(a.target, b.target) << "op " << index;
}

/// Pulls up to \p limit ops (sources may end earlier).
std::vector<MicroOp> pull(TraceSource& source, std::size_t limit) {
  std::vector<MicroOp> ops;
  MicroOp op;
  while (ops.size() < limit && source.next(op)) ops.push_back(op);
  return ops;
}

/// A small hand-built sequence exercising every MicroOp field.
std::vector<MicroOp> sample_ops() {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 17; ++i) {
    MicroOp op;
    op.pc = 0x1000 + static_cast<std::uint64_t>(i) * 4;
    op.cls = static_cast<OpClass>(i % kNumOpClasses);
    if (op.cls != OpClass::Nop) {
      op.dst = RegId::int_reg(i % 32);
      op.src[0] = RegId::int_reg((i + 7) % 32);
      if (i % 3 == 0) op.src[1] = RegId::fp_reg(i % 32);
    }
    if (op.is_mem()) {
      op.mem_addr = 0x8000 + static_cast<std::uint64_t>(i) * 16;
      op.mem_size = 4;
    }
    if (op.cls == OpClass::Branch) {
      op.branch_kind = BranchKind::Conditional;
      op.taken = (i % 2) == 0;
      op.target = 0x2000;
    }
    ops.push_back(op);
  }
  return ops;
}

/// Writes the first 1200 gzip ops to an RCLP pack in the test temp
/// directory.  ctest runs tests in parallel processes that all write the
/// same bytes here; the writer's atomic rename means a reader never sees
/// a partial file.
std::string write_conf_pack(const std::string& stem,
                            std::uint32_t block_ops) {
  const std::filesystem::path file =
      std::filesystem::path(::testing::TempDir()) / (stem + ".rclp");
  auto source = make_benchmark_trace("gzip", kSeed);
  TracePackWriter writer(file.string(), block_ops);
  MicroOp op;
  for (int i = 0; i < 1200 && source->next(op); ++i) writer.append(op);
  std::string error;
  if (!writer.close(&error)) {
    ADD_FAILURE() << "pack write failed: " << error;
  }
  return file.string();
}

/// The pack every test in the binary shares, in 256-op blocks so the 1200
/// ops span several blocks and the conformance positions (357, 600) land
/// mid-block, exercising the seek-restore index walk.
const std::string& shared_pack_file() {
  static const std::string path = write_conf_pack("ringclu_conf", 256);
  return path;
}

/// The same ops at the writer's default block size: a single block, as a
/// short recorded pack is.
const std::string& one_block_pack_file() {
  static const std::string path =
      write_conf_pack("ringclu_conf_one_block", kPackDefaultBlockOps);
  return path;
}

std::unique_ptr<TracePackReader> open_pack(const std::string& path) {
  std::string error;
  auto reader = TracePackReader::open(path, &error);
  EXPECT_NE(reader, nullptr) << error;
  return reader;
}

std::unique_ptr<TracePackReader> open_shared_pack() {
  return open_pack(shared_pack_file());
}

struct SourceCase {
  std::string label;
  std::function<std::unique_ptr<TraceSource>()> make;  ///< fresh instance
  bool finite;  ///< stream may end
};

std::vector<SourceCase> all_sources() {
  std::vector<SourceCase> cases;
  for (const BenchmarkDesc& bench : spec2000_benchmarks()) {
    const std::string name(bench.name);
    cases.push_back({"synth_" + name,
                     [name] { return make_benchmark_trace(name, kSeed); },
                     false});
  }
  cases.push_back({"vector_loop",
                   [] {
                     return std::make_unique<VectorTraceSource>(
                         sample_ops(), /*loop=*/true);
                   },
                   false});
  cases.push_back({"vector_finite",
                   [] {
                     return std::make_unique<VectorTraceSource>(
                         sample_ops(), /*loop=*/false);
                   },
                   true});
  cases.push_back({"trace_pack_one_block",
                   []() -> std::unique_ptr<TraceSource> {
                     return open_pack(one_block_pack_file());
                   },
                   true});
  cases.push_back(
      {"trace_pack",
       []() -> std::unique_ptr<TraceSource> { return open_shared_pack(); },
       true});
  return cases;
}

class TraceConformance : public ::testing::TestWithParam<std::size_t> {
 protected:
  const SourceCase& source_case() const {
    static const std::vector<SourceCase> cases = all_sources();
    return cases[GetParam()];
  }
};

TEST_P(TraceConformance, ResetReplaysIdentically) {
  const SourceCase& scase = source_case();
  SCOPED_TRACE(scase.label);
  auto source = scase.make();

  const std::vector<MicroOp> first = pull(*source, 600);
  source->reset();
  const std::vector<MicroOp> second = pull(*source, 600);

  ASSERT_EQ(first.size(), second.size());
  ASSERT_FALSE(first.empty());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_same_op(first[i], second[i], i);
  }
}

TEST_P(TraceConformance, PositionCountsHandedOutOps) {
  const SourceCase& scase = source_case();
  SCOPED_TRACE(scase.label);
  auto source = scase.make();
  EXPECT_EQ(source->position(), 0u);

  MicroOp op;
  std::uint64_t handed_out = 0;
  for (int i = 0; i < 100; ++i) {
    if (!source->next(op)) break;
    ++handed_out;
  }
  EXPECT_EQ(source->position(), handed_out);

  if (scase.finite) {
    // Drain to the end: failed next() calls must not advance position.
    std::uint64_t total = handed_out;
    while (source->next(op)) ++total;
    EXPECT_EQ(source->position(), total);
    EXPECT_FALSE(source->next(op));
    EXPECT_EQ(source->position(), total);
  }

  source->reset();
  EXPECT_EQ(source->position(), 0u);
}

TEST_P(TraceConformance, RestorePosYieldsIdenticalRemainder) {
  const SourceCase& scase = source_case();
  SCOPED_TRACE(scase.label);

  auto original = scase.make();
  const std::vector<MicroOp> prefix = pull(*original, 357);
  ASSERT_FALSE(prefix.empty());

  CheckpointWriter writer;
  original->save_pos(writer);

  auto fresh = scase.make();
  CheckpointReader reader(writer.bytes());
  fresh->restore_pos(reader);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(fresh->position(), original->position());

  const std::vector<MicroOp> tail_a = pull(*original, 200);
  const std::vector<MicroOp> tail_b = pull(*fresh, 200);
  ASSERT_EQ(tail_a.size(), tail_b.size());
  for (std::size_t i = 0; i < tail_a.size(); ++i) {
    expect_same_op(tail_a[i], tail_b[i], i);
  }

  // Both sources must agree on end-of-stream from here on.
  MicroOp op;
  EXPECT_EQ(original->next(op), fresh->next(op));
}

// ---------------------------------------------------------------------------
// Seek-vs-skip pins.  The pack reader overrides restore_pos with a
// block-index jump instead of the base class's reset-and-skip replay.
// These tests pin the optimized path bit-identical to the skip path at
// every interesting position — including block boundaries and
// end-of-stream — because a seek that lands one op off silently corrupts
// every checkpoint resume.

/// Positions worth pinning for a 1200-op stream in 256-op blocks.
std::vector<std::uint64_t> pin_positions() {
  return {0, 1, 255, 256, 257, 511, 512, 700, 1199, 1200};
}

/// Restores \p saved into a fresh source and checks the remainder matches
/// \p skip (a same-config source advanced purely via next()).
void expect_seek_matches_skip(TraceSource& seeked, TraceSource& skip,
                              std::uint64_t position) {
  SCOPED_TRACE("position " + std::to_string(position));
  EXPECT_EQ(seeked.position(), skip.position());
  const std::vector<MicroOp> tail_seek = pull(seeked, 300);
  const std::vector<MicroOp> tail_skip = pull(skip, 300);
  ASSERT_EQ(tail_seek.size(), tail_skip.size());
  for (std::size_t i = 0; i < tail_seek.size(); ++i) {
    expect_same_op(tail_seek[i], tail_skip[i], i);
  }
}

TEST(TraceSeekPin, PackRestoreMatchesSkipAtEveryBoundary) {
  for (const std::uint64_t position : pin_positions()) {
    auto walker = open_shared_pack();
    ASSERT_NE(walker, nullptr);
    MicroOp op;
    for (std::uint64_t i = 0; i < position; ++i) ASSERT_TRUE(walker->next(op));

    CheckpointWriter writer;
    walker->save_pos(writer);

    auto seeked = open_shared_pack();
    ASSERT_NE(seeked, nullptr);
    CheckpointReader reader(writer.bytes());
    seeked->restore_pos(reader);
    ASSERT_TRUE(reader.ok()) << reader.error();

    // The skip path: a fresh reader advanced with plain next() calls.
    auto skip = open_shared_pack();
    ASSERT_NE(skip, nullptr);
    for (std::uint64_t i = 0; i < position; ++i) ASSERT_TRUE(skip->next(op));

    expect_seek_matches_skip(*seeked, *skip, position);
  }
}

/// Restoring past the end of the stream must fail the checkpoint read
/// (sticky), not crash or yield ops.
TEST(TraceSeekPin, PackRestoreBeyondEndFailsCleanly) {
  CheckpointWriter writer;
  writer.u64(5000);  // > 1200 total ops
  auto reader_source = open_shared_pack();
  ASSERT_NE(reader_source, nullptr);
  CheckpointReader reader(writer.bytes());
  reader_source->restore_pos(reader);
  EXPECT_FALSE(reader.ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllSources, TraceConformance,
    ::testing::Range<std::size_t>(0, all_sources().size()),
    [](const ::testing::TestParamInfo<std::size_t>& param_info) {
      static const std::vector<SourceCase> cases = all_sources();
      std::string name = cases[param_info.param].label;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ringclu
