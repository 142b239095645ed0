// Conformance suite for every ResultStore backend (tsv, memory), plus
// backend-specific coverage: atomic cross-instance TSV appends (the
// multi-process bench_cache regression) and corrupt line tolerance.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/result_store.h"

namespace ringclu {
namespace {

SimResult make_result(const std::string& config, const std::string& bench,
                      std::uint64_t salt) {
  SimResult result;
  result.config_name = config;
  result.benchmark = bench;
  result.counters.cycles = 1000 + salt;
  result.counters.committed = 500 + salt * 3;
  result.counters.comms = salt;
  result.counters.comm_distance_sum = salt * 2;
  result.counters.loads = 17 + salt;
  result.counters.dispatched_per_cluster = {salt, salt + 1, salt + 2,
                                            salt + 3};
  return result;
}

/// The conformance contract compares serialized forms: host-only fields
/// (wall_seconds, total_committed) are outside the schema and persistent
/// backends legitimately drop them.
void expect_equal_payload(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(serialize_result(a), serialize_result(b));
}

struct BackendCase {
  StoreBackend backend;
  const char* name;
};

class ResultStoreConformance : public ::testing::TestWithParam<BackendCase> {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(::testing::TempDir()) /
            ("ringclu_store_" + std::string(GetParam().name) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }

  void TearDown() override { std::filesystem::remove_all(root_); }

  /// Path handed to the factory: the TSV file, ignored for memory.
  [[nodiscard]] std::string store_path() const {
    return (root_ / "results.tsv").string();
  }

  [[nodiscard]] std::unique_ptr<ResultStore> make_store() const {
    return make_result_store(GetParam().backend, store_path(),
                             /*verbose=*/false);
  }

  std::filesystem::path root_;
};

TEST_P(ResultStoreConformance, GetAfterPutRoundTrips) {
  const auto store = make_store();
  const SimResult original = make_result("Ring_8clus_1bus_2IW", "swim", 7);
  store->put("key-a", original);

  const std::optional<SimResult> loaded = store->get("key-a");
  ASSERT_TRUE(loaded.has_value());
  expect_equal_payload(*loaded, original);
  EXPECT_EQ(store->size(), 1u);
}

TEST_P(ResultStoreConformance, MissReturnsNullopt) {
  const auto store = make_store();
  EXPECT_FALSE(store->get("no-such-key").has_value());
  EXPECT_EQ(store->size(), 0u);
}

TEST_P(ResultStoreConformance, DuplicatePutIsFirstWriteWins) {
  const auto store = make_store();
  const SimResult first = make_result("cfg", "gzip", 1);
  const SimResult second = make_result("cfg", "gzip", 2);
  store->put("key", first);
  store->put("key", second);

  const std::optional<SimResult> loaded = store->get("key");
  ASSERT_TRUE(loaded.has_value());
  expect_equal_payload(*loaded, first);
  EXPECT_EQ(store->size(), 1u);
}

TEST_P(ResultStoreConformance, ManyDistinctKeysAllSurvive) {
  const auto store = make_store();
  constexpr std::size_t kKeys = 100;
  for (std::size_t i = 0; i < kKeys; ++i) {
    store->put("key-" + std::to_string(i), make_result("cfg", "art", i));
  }
  EXPECT_EQ(store->size(), kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::optional<SimResult> loaded =
        store->get("key-" + std::to_string(i));
    ASSERT_TRUE(loaded.has_value()) << "key-" << i;
    expect_equal_payload(*loaded, make_result("cfg", "art", i));
  }
}

TEST_P(ResultStoreConformance, PersistenceAcrossInstancesMatchesCapability) {
  {
    const auto store = make_store();
    store->put("key-p", make_result("cfg", "mcf", 11));
  }
  const auto reloaded = make_store();
  const std::optional<SimResult> loaded = reloaded->get("key-p");
  if (reloaded->persistent()) {
    ASSERT_TRUE(loaded.has_value());
    expect_equal_payload(*loaded, make_result("cfg", "mcf", 11));
  } else {
    EXPECT_FALSE(loaded.has_value());
  }
}

TEST_P(ResultStoreConformance, ConcurrentPutsAndGetsAreSafe) {
  const auto store = make_store();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key =
            "key-" + std::to_string(t) + "-" + std::to_string(i);
        store->put(key, make_result("cfg", "swim",
                                    static_cast<std::uint64_t>(t * 100 + i)));
        EXPECT_TRUE(store->get(key).has_value());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(store->size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST_P(ResultStoreConformance, CorruptLinesAreSkippedOnReload) {
  if (GetParam().backend == StoreBackend::Memory) {
    GTEST_SKIP() << "memory store has no on-disk representation";
  }
  {
    const auto store = make_store();
    store->put("key-good", make_result("cfg", "gcc", 3));
  }
  {
    // Vandalize the TSV file the backend produced.
    ASSERT_TRUE(std::filesystem::exists(store_path()));
    std::ofstream out(store_path(), std::ios::app);
    out << "complete garbage, no tabs\n";
    out << "key-with-tab\ttruncated\tpayload\n";
  }

  const auto reloaded = make_store();
  const std::optional<SimResult> loaded = reloaded->get("key-good");
  ASSERT_TRUE(loaded.has_value());
  expect_equal_payload(*loaded, make_result("cfg", "gcc", 3));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ResultStoreConformance,
    ::testing::Values(BackendCase{StoreBackend::Tsv, "tsv"},
                      BackendCase{StoreBackend::Memory, "memory"}),
    [](const ::testing::TestParamInfo<BackendCase>& param_info) {
      return std::string(param_info.param.name);
    });

// ---- TSV-specific -----------------------------------------------------

class TsvStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::path(::testing::TempDir()) /
            "ringclu_tsv_atomicity.tsv";
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

// The multi-process regression for the harness's old cache append:
// processes sharing bench_cache/results.tsv used buffered ofstream
// appends, which can tear lines when several processes write at once.
// Each writer here uses its OWN store instance (own file descriptor, like
// a separate process); appends go through append_line_atomic (single
// O_APPEND write under flock), so a reload must see every line intact.
TEST_F(TsvStoreTest, CrossInstanceConcurrentAppendsNeverTearLines) {
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 40;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([this, w]() {
      // A private instance per writer: no shared in-memory state, the
      // only common resource is the file itself.
      const auto store =
          make_result_store(StoreBackend::Tsv, path_.string(),
                            /*verbose=*/false);
      for (int i = 0; i < kPerWriter; ++i) {
        SimResult result = make_result(
            "Some_Long_Config_Name_To_Stress_Line_Size_" + std::to_string(w),
            "benchmark-" + std::to_string(i),
            static_cast<std::uint64_t>(w * 1000 + i));
        // Long per-cluster lists make lines long enough that torn writes
        // would be very likely without the single-write append.
        result.counters.dispatched_per_cluster.assign(64, 123456789u);
        store->put("key-" + std::to_string(w) + "-" + std::to_string(i),
                   result);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  // Every line in the file must parse; every key must be present.
  std::ifstream in(path_);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const std::size_t sep = line.find('\t');
    ASSERT_NE(sep, std::string::npos) << "torn line: " << line;
    EXPECT_TRUE(try_deserialize_result(line.substr(sep + 1)).has_value())
        << "corrupt line " << lines << ": " << line;
    ++lines;
  }
  EXPECT_EQ(lines, static_cast<std::size_t>(kWriters * kPerWriter));

  const auto reloaded =
      make_result_store(StoreBackend::Tsv, path_.string(), /*verbose=*/false);
  EXPECT_EQ(reloaded->size(),
            static_cast<std::size_t>(kWriters * kPerWriter));
}

// ---- Backend parsing --------------------------------------------------

TEST(StoreBackendTest, ParseRoundTripsAllNames) {
  for (const StoreBackend backend : {StoreBackend::Tsv, StoreBackend::Memory}) {
    const std::optional<StoreBackend> parsed =
        parse_store_backend(store_backend_name(backend));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_FALSE(parse_store_backend("").has_value());
  EXPECT_FALSE(parse_store_backend("TSV").has_value());
  EXPECT_FALSE(parse_store_backend("redis").has_value());
  EXPECT_FALSE(parse_store_backend("sharded").has_value());  // Retired.
}

}  // namespace
}  // namespace ringclu
