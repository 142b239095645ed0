// RCLP trace-pack suite: the block codec (record encoding + LZ
// compressor), writer/reader round-trips across block boundaries, the
// content digest's format independence (synth stream == pack), and —
// most importantly — the corruption contract: every reader in the trace
// layer must diagnose adversarial bytes with a sticky error instead of
// aborting or invoking UB.  The fuzz tests here run the same deterministic
// mutations under the CI ASan/UBSan jobs, which is what "hardened" means
// in practice.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "trace/pack/block_codec.h"
#include "trace/pack/pack_format.h"
#include "trace/pack/pack_reader.h"
#include "trace/pack/pack_writer.h"
#include "trace/synth/suite.h"
#include "trace/trace_source.h"
#include "util/format.h"

#ifndef RINGCLU_GOLDEN_DIR
#error "RINGCLU_GOLDEN_DIR must point at the golden data directory"
#endif

namespace ringclu {
namespace {

/// \p name in a temp directory of the running test's own: ctest runs the
/// tests of this binary in parallel processes, and the corruption fixture
/// rewrites its files in every test.
std::filesystem::path temp_path(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (std::string("ringclu_pack_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::filesystem::create_directories(dir);
  return dir / name;
}

std::vector<MicroOp> synth_ops(const std::string& benchmark,
                               std::uint64_t seed, std::size_t count) {
  auto source = make_benchmark_trace(benchmark, seed);
  std::vector<MicroOp> ops;
  MicroOp op;
  while (ops.size() < count && source->next(op)) ops.push_back(op);
  return ops;
}

std::uint64_t digest_of(std::span<const MicroOp> ops) {
  TraceDigest digest;
  for (const MicroOp& op : ops) digest.add(op);
  return digest.value();
}

void write_pack(const std::string& path, std::span<const MicroOp> ops,
                std::uint32_t block_ops = kPackDefaultBlockOps) {
  TracePackWriter writer(path, block_ops);
  for (const MicroOp& op : ops) writer.append(op);
  std::string error;
  ASSERT_TRUE(writer.close(&error)) << error;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

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

// ---------------------------------------------------------------------------
// Block codec.

TEST(BlockCodec, RecordRoundTrip) {
  const std::vector<MicroOp> ops = synth_ops("gcc", 3, 500);
  std::vector<std::uint8_t> raw;
  encode_ops_block(ops, raw);

  std::vector<MicroOp> back;
  std::string error;
  ASSERT_TRUE(decode_ops_block(raw, static_cast<std::uint32_t>(ops.size()),
                               back, &error))
      << error;
  ASSERT_EQ(back.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    expect_same_op(ops[i], back[i], i);
  }
}

TEST(BlockCodec, DecodeRejectsTrailingBytes) {
  const std::vector<MicroOp> ops = synth_ops("gzip", 1, 10);
  std::vector<std::uint8_t> raw;
  encode_ops_block(ops, raw);
  raw.push_back(0);  // trailing garbage

  std::vector<MicroOp> back;
  std::string error;
  EXPECT_FALSE(decode_ops_block(raw, 10, back, &error));
  EXPECT_FALSE(error.empty());
}

TEST(BlockCodec, DecodeRejectsTruncation) {
  const std::vector<MicroOp> ops = synth_ops("gzip", 1, 10);
  std::vector<std::uint8_t> raw;
  encode_ops_block(ops, raw);

  for (std::size_t cut = 0; cut < raw.size(); cut += 3) {
    std::vector<std::uint8_t> clipped(raw.begin(),
                                      raw.begin() + static_cast<long>(cut));
    std::vector<MicroOp> back;
    std::string error;
    EXPECT_FALSE(decode_ops_block(clipped, 10, back, &error))
        << "cut at " << cut;
  }
}

TEST(BlockCodec, DecodeRejectsOversizedVarint) {
  // 11 continuation bytes: a varint that cannot fit in 64 bits.  Build a
  // record whose pc-delta field is that varint.
  std::vector<std::uint8_t> raw = {0 /*flags*/, 0 /*cls Nop*/, 0 /*kind*/};
  for (int i = 0; i < 10; ++i) raw.push_back(0xff);
  raw.push_back(0x01);
  std::vector<MicroOp> back;
  std::string error;
  EXPECT_FALSE(decode_ops_block(raw, 1, back, &error));
  EXPECT_NE(error.find("varint"), std::string::npos) << error;
}

TEST(BlockCodec, CompressorRoundTripsStructuredAndRandomBytes) {
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> raw;
    const std::size_t size = static_cast<std::size_t>(rng() % 5000);
    if (trial % 2 == 0) {
      // Compressible: repeated phrases with occasional noise.
      while (raw.size() < size) {
        const std::uint8_t phrase = static_cast<std::uint8_t>(rng() % 7);
        for (int i = 0; i < 37 && raw.size() < size; ++i) {
          raw.push_back(static_cast<std::uint8_t>(phrase + (i % 3)));
        }
        raw.push_back(static_cast<std::uint8_t>(rng()));
      }
    } else {
      for (std::size_t i = 0; i < size; ++i) {
        raw.push_back(static_cast<std::uint8_t>(rng()));
      }
    }

    std::vector<std::uint8_t> comp;
    pack_compress(raw, comp);
    std::vector<std::uint8_t> back;
    std::string error;
    ASSERT_TRUE(pack_decompress(comp, raw.size(), back, &error))
        << "trial " << trial << ": " << error;
    EXPECT_EQ(back, raw) << "trial " << trial;
  }
}

TEST(BlockCodec, DecompressorSurvivesAdversarialBytes) {
  // Deterministic fuzz: random byte strings fed straight to the
  // decompressor must either decode or fail cleanly — never read out of
  // bounds (ASan) or loop forever.
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> comp(rng() % 128);
    for (std::uint8_t& byte : comp) byte = static_cast<std::uint8_t>(rng());
    std::vector<std::uint8_t> out;
    std::string error;
    const bool ok = pack_decompress(comp, 256, out, &error);
    if (!ok) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(BlockCodec, DecompressRejectsBadDistanceAndOverflow) {
  {
    // Match before any bytes were produced: distance 1 with 0 output.
    const std::vector<std::uint8_t> comp = {(0 << 1) | 1, 1};
    std::vector<std::uint8_t> out;
    std::string error;
    EXPECT_FALSE(pack_decompress(comp, 16, out, &error));
  }
  {
    // Literal run longer than raw_size.
    std::vector<std::uint8_t> comp = {static_cast<std::uint8_t>(9 << 1)};
    for (int i = 0; i < 10; ++i) comp.push_back(0xaa);
    std::vector<std::uint8_t> out;
    std::string error;
    EXPECT_FALSE(pack_decompress(comp, 4, out, &error));
  }
}

// ---------------------------------------------------------------------------
// Writer/reader round trips.

TEST(TracePack, RoundTripAcrossBlockBoundaries) {
  const std::vector<MicroOp> ops = synth_ops("mcf", 9, 1000);
  const std::string path = temp_path("roundtrip.rclp").string();
  write_pack(path, ops, /*block_ops=*/128);  // 1000 ops -> 8 blocks

  std::string error;
  auto reader = TracePackReader::open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->total_ops(), ops.size());
  EXPECT_EQ(reader->block_count(), 8u);
  EXPECT_EQ(reader->content_digest(), digest_of(ops));

  MicroOp op;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(reader->next(op)) << "op " << i;
    expect_same_op(ops[i], op, i);
  }
  EXPECT_FALSE(reader->next(op));
  EXPECT_TRUE(reader->ok()) << reader->error();
}

TEST(TracePack, EmptyPackRoundTrips) {
  const std::string path = temp_path("empty.rclp").string();
  TracePackWriter writer(path);
  std::string error;
  ASSERT_TRUE(writer.close(&error)) << error;
  EXPECT_EQ(writer.ops_written(), 0u);
  EXPECT_EQ(writer.content_digest(), TraceDigest().value());

  auto reader = TracePackReader::open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->total_ops(), 0u);
  MicroOp op;
  EXPECT_FALSE(reader->next(op));
  EXPECT_TRUE(reader->ok());
}

/// Files in \p path's directory whose names start with its name plus
/// ".tmp": the writer's temp files.
int temp_files_beside(const std::string& path) {
  const std::string prefix =
      std::filesystem::path(path).filename().string() + ".tmp";
  int temps = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(path).parent_path())) {
    if (entry.path().filename().string().starts_with(prefix)) ++temps;
  }
  return temps;
}

TEST(TracePack, WriterIsAtomicNoPartialFileOnUnclosedWriter) {
  // A writer destroyed without close() abandons the pack: with batches
  // still in flight it stops and joins its threads, removes the temp file
  // and never creates the destination.
  const std::string path = temp_path("atomic.rclp").string();
  std::filesystem::remove(path);
  // A killed earlier run may have left its temp file here.
  const int stale = temp_files_beside(path);
  {
    TracePackWriter writer(path, 64);
    const std::vector<MicroOp> ops = synth_ops("gzip", 2, 100000);
    for (const MicroOp& op : ops) writer.append(op);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_EQ(temp_files_beside(path), stale + 1);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(temp_files_beside(path), stale);
}

TEST(TracePack, FullDeviceFailsCloseAndRemovesTemp) {
  if (!std::filesystem::exists("/dev/full") ||
      !std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "needs /dev/full and /proc/self/fd";
  }
  const std::string path = temp_path("full.rclp").string();
  std::filesystem::remove(path);
  TracePackWriter writer(path);
  // Point the writer's open temp file at /dev/full, so every write to it
  // fails with ENOSPC.
  int temp_fd = -1;
  std::string temp_name;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const std::filesystem::path target =
        std::filesystem::read_symlink(entry.path(), ec);
    if (!ec && target.filename().string().starts_with("full.rclp.tmp")) {
      temp_fd = std::stoi(entry.path().filename().string());
      temp_name = target.string();
    }
  }
  ASSERT_GE(temp_fd, 0) << "writer's temp file is not open";
  const int full_fd = ::open("/dev/full", O_WRONLY);
  ASSERT_GE(full_fd, 0);
  ASSERT_EQ(::dup2(full_fd, temp_fd), temp_fd);
  ::close(full_fd);

  for (const MicroOp& op : synth_ops("gcc", 4, 50000)) writer.append(op);
  std::string error;
  EXPECT_FALSE(writer.close(&error));
  EXPECT_NE(error.find("short write to"), std::string::npos) << error;
  EXPECT_FALSE(std::filesystem::exists(temp_name));
  EXPECT_FALSE(std::filesystem::exists(path));
  // The failure sticks.
  std::string again;
  EXPECT_FALSE(writer.close(&again));
  EXPECT_EQ(again, error);
}

TEST(TracePack, OneOpBlocksRoundTrip) {
  const std::vector<MicroOp> ops = synth_ops("art", 6, 20000);
  const std::string path = temp_path("one_op_blocks.rclp").string();
  write_pack(path, ops, /*block_ops=*/1);

  std::string error;
  auto reader = TracePackReader::open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->block_count(), ops.size());
  EXPECT_EQ(reader->content_digest(), digest_of(ops));
  MicroOp op;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(reader->next(op)) << "op " << i;
    expect_same_op(ops[i], op, i);
  }
  EXPECT_FALSE(reader->next(op));
  EXPECT_TRUE(reader->ok()) << reader->error();
}

TEST(TracePack, CountersAfterCloseMatchSerialDigest) {
  // Several batches and a partial last block at each block size.
  const std::vector<MicroOp> ops = synth_ops("equake", 8, 70001);
  TraceDigest serial;
  for (const MicroOp& op : ops) serial.add(op);
  for (const std::uint32_t block_ops : {1000u, 4096u, 50000u}) {
    TracePackWriter writer(
        temp_path(str_format("counters_%u.rclp", block_ops)).string(),
        block_ops);
    for (const MicroOp& op : ops) writer.append(op);
    EXPECT_EQ(writer.ops_written(), ops.size());
    std::string error;
    ASSERT_TRUE(writer.close(&error)) << error;
    EXPECT_EQ(writer.ops_written(), serial.ops()) << block_ops;
    EXPECT_EQ(writer.content_digest(), serial.value()) << block_ops;
  }
}

TEST(TracePack, DigestMatchesAcrossSynthV1AndPack) {
  const std::vector<MicroOp> ops = synth_ops("swim", 11, 600);
  const std::uint64_t want = digest_of(ops);

  // Pack header digest and replayed-stream digest.
  const std::string pack = temp_path("digest.rclp").string();
  write_pack(pack, ops, 100);
  std::string error;
  auto pack_reader = TracePackReader::open(pack, &error);
  ASSERT_NE(pack_reader, nullptr) << error;
  EXPECT_EQ(pack_reader->content_digest(), want);
  TraceDigest pack_digest;
  MicroOp op;
  while (pack_reader->next(op)) pack_digest.add(op);
  EXPECT_EQ(pack_digest.value(), want);
}

TEST(TracePack, ReaderNameIsContentKeyed) {
  const std::vector<MicroOp> ops = synth_ops("gzip", 7, 50);
  const std::string path = temp_path("keyed_name.rclp").string();
  write_pack(path, ops);
  std::string error;
  auto reader = TracePackReader::open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->name(), "trace:keyed_name@" +
                                format_digest(reader->content_digest()));
}

// ---------------------------------------------------------------------------
// Golden streams and pack bytes: tests/golden/trace_digests.tsv holds, per
// synthetic benchmark at seed 42, the TraceDigest of its first
// kGoldenOps ops and the fnv1a64 of the whole pack TracePackWriter writes
// of them at block_ops 4096 and 1000.  A generator or writer change that
// moves one op or one pack byte fails here.  To regenerate after an
// intentional change:
//   RINGCLU_REGEN_GOLDEN=1 build/tests/trace_pack_test
//   (add --gtest_filter=TracePackGolden.* to run only this test)

constexpr std::uint64_t kGoldenSeed = 42;
constexpr std::size_t kGoldenOps = 200000;

std::uint64_t pack_file_hash(std::span<const MicroOp> ops,
                             std::uint32_t block_ops) {
  const std::string path =
      temp_path(str_format("golden_%u.rclp", block_ops)).string();
  write_pack(path, ops, block_ops);
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  return fnv1a64(bytes.data(), bytes.size());
}

TEST(TracePackGolden, StreamsAndPackBytesMatchGoldenFile) {
  std::vector<std::string> actual;
  for (const BenchmarkDesc& desc : spec2000_benchmarks()) {
    const std::string name(desc.name);
    const std::vector<MicroOp> ops = synth_ops(name, kGoldenSeed, kGoldenOps);
    ASSERT_EQ(ops.size(), kGoldenOps) << name;
    actual.push_back(str_format(
        "%s\t%s\t%s\t%s", name.c_str(), format_digest(digest_of(ops)).c_str(),
        format_digest(pack_file_hash(ops, 4096)).c_str(),
        format_digest(pack_file_hash(ops, 1000)).c_str()));
  }

  const std::string path =
      std::string(RINGCLU_GOLDEN_DIR) + "/trace_digests.tsv";
  const char* regen = std::getenv("RINGCLU_REGEN_GOLDEN");
  if (regen != nullptr && regen[0] == '1') {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    for (const std::string& line : actual) out << line << "\n";
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run with RINGCLU_REGEN_GOLDEN=1 to create it";
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(in, line)) expected.push_back(line);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i])
        << "benchmark stream or pack bytes changed (columns: benchmark, "
           "stream digest, pack hash at block_ops 4096, at 1000)";
  }
}

// ---------------------------------------------------------------------------
// Corruption: every malformed-input class must produce a clean diagnostic.

class TracePackCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    ops_ = synth_ops("gcc", 5, 700);
    path_ = temp_path("corrupt.rclp").string();
    write_pack(path_, ops_, /*block_ops=*/128);
    bytes_ = read_bytes(path_);
    ASSERT_GT(bytes_.size(), kPackHeaderSize);
  }

  /// Writes \p bytes to a scratch file and opens it.
  std::unique_ptr<TracePackReader> open_mutated(
      const std::vector<std::uint8_t>& bytes, std::string* error) {
    const std::string mutated = temp_path("corrupt_mut.rclp").string();
    write_bytes(mutated, bytes);
    return TracePackReader::open(mutated, error);
  }

  std::vector<MicroOp> ops_;
  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(TracePackCorruption, TruncatedHeaderRejected) {
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{15}, kPackHeaderSize - 1}) {
    std::vector<std::uint8_t> clipped(bytes_.begin(),
                                      bytes_.begin() + static_cast<long>(size));
    std::string error;
    EXPECT_EQ(open_mutated(clipped, &error), nullptr) << "size " << size;
    EXPECT_FALSE(error.empty());
  }
}

TEST_F(TracePackCorruption, BadMagicRejected) {
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[0] ^= 0xff;
  std::string error;
  EXPECT_EQ(open_mutated(bytes, &error), nullptr);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST_F(TracePackCorruption, HeaderBitFlipsCaughtByHeaderChecksum) {
  // Any flip in the checksummed region must be rejected at open().
  for (const std::size_t offset : {4u, 8u, 16u, 24u, 32u, 36u, 40u}) {
    std::vector<std::uint8_t> bytes = bytes_;
    bytes[offset] ^= 0x01;
    std::string error;
    EXPECT_EQ(open_mutated(bytes, &error), nullptr) << "offset " << offset;
    EXPECT_FALSE(error.empty());
  }
}

TEST_F(TracePackCorruption, IndexBitFlipRejectedAtOpen) {
  // The index footer lives at the end; flip a byte in its middle.
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[bytes.size() - 24] ^= 0x10;
  std::string error;
  EXPECT_EQ(open_mutated(bytes, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST_F(TracePackCorruption, BlockBitFlipIsStickyStreamError) {
  // Flip a byte inside the first block's compressed payload: open()
  // succeeds (blocks validate lazily), streaming hits the checksum.
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[kPackHeaderSize + 3] ^= 0x40;
  std::string error;
  auto reader = open_mutated(bytes, &error);
  ASSERT_NE(reader, nullptr) << error;

  MicroOp op;
  std::size_t delivered = 0;
  while (reader->next(op)) ++delivered;
  EXPECT_LT(delivered, ops_.size());
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("block"), std::string::npos)
      << reader->error();
  // Sticky: further next() calls keep failing without resetting the error.
  EXPECT_FALSE(reader->next(op));
  EXPECT_FALSE(reader->ok());
}

TEST_F(TracePackCorruption, TruncatedFileRejected) {
  for (std::size_t keep = kPackHeaderSize; keep < bytes_.size();
       keep += bytes_.size() / 13 + 1) {
    std::vector<std::uint8_t> clipped(bytes_.begin(),
                                      bytes_.begin() + static_cast<long>(keep));
    std::string error;
    auto reader = open_mutated(clipped, &error);
    if (reader == nullptr) continue;  // rejected at open: fine
    // Opened (truncation hit only block payloads): streaming must fail
    // cleanly, not crash.
    MicroOp op;
    while (reader->next(op)) {
    }
    EXPECT_FALSE(reader->ok()) << "keep " << keep;
  }
}

TEST_F(TracePackCorruption, DeterministicFuzzNeverCrashes) {
  // 200 single/multi-byte mutations at seeded-random offsets.  Every
  // mutant must either open-and-stream or fail with a diagnostic; the
  // assertions are the absence of crashes under ASan/UBSan plus the
  // sticky-error contract.
  std::mt19937_64 rng(0xA11CE);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> bytes = bytes_;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < flips; ++i) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1 + rng() % 255);
    }
    std::string error;
    auto reader = open_mutated(bytes, &error);
    if (reader == nullptr) {
      EXPECT_FALSE(error.empty()) << "trial " << trial;
      continue;
    }
    MicroOp op;
    std::uint64_t count = 0;
    while (reader->next(op) && count <= 2 * ops_.size()) ++count;
    EXPECT_LE(count, ops_.size()) << "trial " << trial;
    if (!reader->ok()) {
      EXPECT_FALSE(reader->error().empty());
    }
  }
}

}  // namespace
}  // namespace ringclu
