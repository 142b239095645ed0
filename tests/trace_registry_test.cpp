// Trace benchmark registry suite: directory discovery, name validation
// through the shared harness entry points, content-digest cache keying,
// and the acceptance bar for the whole ingestion pipeline — a pack
// recorded from any synthetic benchmark simulates bit-identically to the
// live synthetic source, through the plain runner, the checkpoint path,
// and the daemon wire format.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.h"
#include "harness/sim_service.h"
#include "server/http.h"
#include "server/server.h"
#include "trace/pack/pack_format.h"
#include "trace/pack/pack_writer.h"
#include "trace/registry.h"
#include "trace/synth/suite.h"
#include "trace/trace_source.h"
#include "util/json.h"

namespace ringclu {
namespace {

using namespace std::chrono_literals;

constexpr const char* kPreset = "Ring_4clus_1bus_2IW";

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Records \p ops ops of \p benchmark into \p dir/<stem>.rclp.
std::string record_pack(const std::filesystem::path& dir,
                        const std::string& stem, const std::string& benchmark,
                        std::uint64_t seed, std::size_t ops) {
  const std::string path = (dir / (stem + ".rclp")).string();
  auto source = make_benchmark_trace(benchmark, seed);
  TracePackWriter writer(path);
  MicroOp op;
  for (std::size_t i = 0; i < ops && source->next(op); ++i) {
    writer.append(op);
  }
  std::string error;
  EXPECT_TRUE(writer.close(&error)) << error;
  return path;
}

/// Registry tests mutate the process-global registry; reset around each.
class TraceRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { TraceBenchmarkRegistry::global().clear(); }
  void TearDown() override { TraceBenchmarkRegistry::global().clear(); }
};

TEST_F(TraceRegistryTest, DiscoversPacksAndSkipsInvalidFiles) {
  const std::filesystem::path dir = fresh_dir("registry_discover");
  record_pack(dir, "mypack", "gzip", 7, 500);
  record_pack(dir, "other", "gcc", 3, 400);
  {
    std::ofstream junk(dir / "broken.rclp", std::ios::binary);
    junk << "not a pack";
  }
  {
    std::ofstream ignored(dir / "readme.txt");
    ignored << "not a pack either";
  }

  TraceBenchmarkRegistry& registry = TraceBenchmarkRegistry::global();
  EXPECT_EQ(registry.add_dir(dir.string()), 2);

  const auto found = registry.find("trace:mypack");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->name, "trace:mypack");
  EXPECT_EQ(found->total_ops, 500u);
  EXPECT_NE(found->digest, 0u);

  EXPECT_FALSE(registry.find("trace:broken").has_value());
  EXPECT_FALSE(registry.find("trace:readme").has_value());

  const std::vector<TraceBenchmarkInfo> all = registry.list();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "trace:mypack");  // sorted
  EXPECT_EQ(all[1].name, "trace:other");
  EXPECT_EQ(registry.names_joined(), "trace:mypack, trace:other");

  // Re-scanning the same directory registers nothing new.
  EXPECT_EQ(registry.add_dir(dir.string()), 0);
}

TEST_F(TraceRegistryTest, EnvVarDirectoriesAreScannedLazily) {
  const std::filesystem::path dir_a = fresh_dir("registry_env_a");
  const std::filesystem::path dir_b = fresh_dir("registry_env_b");
  record_pack(dir_a, "enva", "gzip", 1, 300);
  record_pack(dir_b, "envb", "gcc", 2, 300);

  const std::string joined = dir_a.string() + ":" + dir_b.string();
  ASSERT_EQ(setenv("RINGCLU_TRACE_DIR", joined.c_str(), 1), 0);
  TraceBenchmarkRegistry::global().clear();  // re-arm the env scan
  EXPECT_TRUE(
      TraceBenchmarkRegistry::global().find("trace:enva").has_value());
  EXPECT_TRUE(
      TraceBenchmarkRegistry::global().find("trace:envb").has_value());
  ASSERT_EQ(unsetenv("RINGCLU_TRACE_DIR"), 0);
}

TEST_F(TraceRegistryTest, ValidateBenchmarkNamesCoversTraceNamespace) {
  const std::filesystem::path dir = fresh_dir("registry_validate");
  record_pack(dir, "known", "gzip", 7, 300);
  TraceBenchmarkRegistry::global().add_dir(dir.string());

  EXPECT_FALSE(validate_benchmark_names({"gzip", "trace:known"}).has_value());

  const auto unknown = validate_benchmark_names({"trace:nope"});
  ASSERT_TRUE(unknown.has_value());
  EXPECT_NE(unknown->find("trace:nope"), std::string::npos) << *unknown;
  EXPECT_NE(unknown->find("trace:known"), std::string::npos) << *unknown;

  const auto bogus = validate_benchmark_names({"not_a_benchmark"});
  ASSERT_TRUE(bogus.has_value());
}

TEST_F(TraceRegistryTest, KeyedWorkloadNameFoldsContentDigest) {
  const std::filesystem::path dir = fresh_dir("registry_keyed");
  record_pack(dir, "keyed", "gzip", 7, 300);
  TraceBenchmarkRegistry::global().add_dir(dir.string());

  const auto info = TraceBenchmarkRegistry::global().find("trace:keyed");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(keyed_workload_name("trace:keyed"),
            "trace:keyed@" + format_digest(info->digest));
  // Synthetic names pass through untouched.
  EXPECT_EQ(keyed_workload_name("gzip"), "gzip");

  // Same content under a different filename keys identically — rename
  // never aliases cached results.
  record_pack(dir, "keyed_copy", "gzip", 7, 300);
  TraceBenchmarkRegistry::global().clear();
  TraceBenchmarkRegistry::global().add_dir(dir.string());
  const std::string key_a = keyed_workload_name("trace:keyed");
  const std::string key_b = keyed_workload_name("trace:keyed_copy");
  EXPECT_EQ(key_a.substr(key_a.find('@')), key_b.substr(key_b.find('@')));
}

TEST_F(TraceRegistryTest, MakeWorkloadTraceDispatchesBothNamespaces) {
  const std::filesystem::path dir = fresh_dir("registry_dispatch");
  record_pack(dir, "disp", "gzip", 7, 300);
  TraceBenchmarkRegistry::global().add_dir(dir.string());

  auto synth = make_workload_trace("gzip", 7);
  auto pack = make_workload_trace("trace:disp", /*seed ignored*/ 0);
  ASSERT_NE(synth, nullptr);
  ASSERT_NE(pack, nullptr);
  MicroOp a;
  MicroOp b;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(synth->next(a)) << i;
    ASSERT_TRUE(pack->next(b)) << i;
    EXPECT_EQ(a.pc, b.pc) << i;
    EXPECT_EQ(a.cls, b.cls) << i;
  }
  EXPECT_FALSE(pack->next(b));  // the recording ends; synth would not
}

// ---------------------------------------------------------------------------
// The acceptance bar: record -> pack -> simulate must be bit-identical to
// simulating the live synthetic source, for every benchmark in the suite.

class TracePipelineParity : public TraceRegistryTest {};

TEST_F(TracePipelineParity, AllSuiteBenchmarksSimulateBitIdentically) {
  const std::filesystem::path dir = fresh_dir("parity_packs");
  constexpr std::uint64_t kInstrs = 1500;
  constexpr std::uint64_t kWarmup = 150;
  constexpr std::uint64_t kSeed = 42;
  // Fetch runs ahead of commit, so the pack needs slack beyond
  // warmup+instrs; 4096 ops is far more than any frontend lookahead.
  constexpr std::size_t kPackOps = kInstrs + kWarmup + 4096;

  for (const BenchmarkDesc& bench : spec2000_benchmarks()) {
    const std::string name(bench.name);
    record_pack(dir, name, name, kSeed, kPackOps);
  }
  TraceBenchmarkRegistry::global().add_dir(dir.string());

  const ArchConfig config = ArchConfig::preset(kPreset);
  for (const BenchmarkDesc& bench : spec2000_benchmarks()) {
    const std::string name(bench.name);
    const SimResult synth = run_sim_job(
        SimJob{config, name, RunParams{kInstrs, kWarmup, kSeed}});
    const SimResult packed = run_sim_job(
        SimJob{config, "trace:" + name, RunParams{kInstrs, kWarmup, kSeed}});
    EXPECT_TRUE(synth.counters == packed.counters) << name;
    EXPECT_EQ(synth.counters.cycles, packed.counters.cycles) << name;
  }
}

TEST_F(TracePipelineParity, CheckpointSeekResumeMatchesColdRun) {
  const std::filesystem::path packs = fresh_dir("parity_ckpt_packs");
  const std::filesystem::path ckpt_dir = fresh_dir("parity_ckpt");
  // Enough ops for warmup+instrs+lookahead.
  record_pack(packs, "ck", "gcc", 11, 8000);
  TraceBenchmarkRegistry::global().add_dir(packs.string());

  const SimJob job{ArchConfig::preset(kPreset), "trace:ck",
                   RunParams{2000, 500, 11}};
  const SimResult cold = run_sim_job(job);

  CheckpointOptions checkpoint;
  checkpoint.dir = ckpt_dir.string();
  // First run simulates warmup cold and writes the checkpoint; the second
  // restores it via TracePackReader::restore_pos (the block-index seek).
  const SimResult first = run_sim_job(job, checkpoint);
  const SimResult second = run_sim_job(job, checkpoint);
  EXPECT_FALSE(std::filesystem::is_empty(ckpt_dir));

  EXPECT_TRUE(first.counters == cold.counters);
  EXPECT_TRUE(second.counters == cold.counters);
  EXPECT_EQ(second.counters.cycles, cold.counters.cycles);
}

// Real-program frontends produce op shapes the synthetic suite never
// emits: prefetch-like loads with no destination (x86 `leave`, hint
// loads) and stores with no register operands (push-immediate).  The
// core must retire them without wedging.
TEST_F(TracePipelineParity, DestinationlessMemoryOpsSimulate) {
  const std::filesystem::path dir = fresh_dir("parity_noreg_mem");
  const std::string path = (dir / "noreg.rclp").string();
  {
    TracePackWriter writer(path);
    constexpr std::uint64_t kOps = 6000;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      MicroOp op;
      op.pc = 0x400000 + i * 4;
      switch (i % 4) {
        case 0:  // producer the store below forwards to the load from
          op.cls = OpClass::Store;
          op.src[0] = RegId::int_reg(1);
          op.mem_addr = 0x1000 + (i % 64) * 8;
          op.mem_size = 8;
          break;
        case 1:  // destinationless load, same line as the store
          op.cls = OpClass::Load;
          op.mem_addr = 0x1000 + ((i - 1) % 64) * 8;
          op.mem_size = 8;
          break;
        case 2:  // store with no register operands (push-immediate)
          op.cls = OpClass::Store;
          op.mem_addr = 0x2000 + (i % 32) * 8;
          op.mem_size = 8;
          break;
        default:
          op.cls = OpClass::IntAlu;
          op.dst = RegId::int_reg(1);
          op.src[0] = RegId::int_reg(2);
          break;
      }
      writer.append(op);
    }
    std::string error;
    ASSERT_TRUE(writer.close(&error)) << error;
  }
  TraceBenchmarkRegistry::global().add_dir(dir.string());

  const SimJob job{ArchConfig::preset(kPreset), "trace:noreg",
                   RunParams{1000, 100, 1}};
  const SimResult result = run_sim_job(job);
  EXPECT_EQ(result.counters.committed, 1000u);
  EXPECT_GT(result.counters.loads, 0u);
  EXPECT_GT(result.counters.stores, 0u);
}

// ---------------------------------------------------------------------------
// Server end to end: a trace benchmark submitted over the wire format.

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

TEST_F(TraceRegistryTest, ServerRunsTraceBenchmarkEndToEnd) {
  const std::filesystem::path dir = fresh_dir("registry_server");
  record_pack(dir, "served", "gzip", 7, 8000);
  TraceBenchmarkRegistry::global().add_dir(dir.string());

  SimServerOptions options;
  options.runner.instrs = 2000;
  options.runner.warmup = 200;
  options.runner.threads = 2;
  options.runner.verbose = false;
  SimServer server(options);

  // Unknown trace names are rejected at submit time with a diagnostic.
  const HttpResponse rejected = server.handle(http_post(
      "/v1/jobs",
      R"({"config":"Ring_4clus_1bus_2IW","benchmark":"trace:absent"})"));
  EXPECT_EQ(rejected.status, 400) << rejected.body;

  const HttpResponse accepted = server.handle(http_post(
      "/v1/jobs",
      R"({"config":"Ring_4clus_1bus_2IW","benchmark":"trace:served"})"));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const std::optional<JsonValue> doc = json_parse(accepted.body);
  ASSERT_TRUE(doc.has_value());
  const std::string id = doc->find("id")->string;

  std::string state = "timeout";
  for (int i = 0; i < 3000; ++i) {
    const HttpResponse poll = server.handle(http_get("/v1/jobs/" + id));
    ASSERT_EQ(poll.status, 200);
    state = json_parse(poll.body)->find("state")->string;
    if (state == "completed" || state == "failed") {
      break;
    }
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(state, "completed");

  const HttpResponse result =
      server.handle(http_get("/v1/jobs/" + id + "/result"));
  ASSERT_EQ(result.status, 200) << result.body;
  const std::optional<JsonValue> result_doc = json_parse(result.body);
  ASSERT_TRUE(result_doc.has_value());
  // The result reports the content-keyed workload name — provenance of
  // exactly which trace bytes ran, not just the submitted filename stem.
  EXPECT_EQ(result_doc->find("benchmark")->string,
            keyed_workload_name("trace:served"));

  // The wire result must be bit-identical to a direct run of the pack.
  const SimResult direct =
      run_sim_job(SimJob{ArchConfig::preset(kPreset), "trace:served",
                         RunParams{2000, 200, 42}});
  const JsonValue* counters = result_doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(counters->find("cycles")->number),
            direct.counters.cycles);
}

}  // namespace
}  // namespace ringclu
