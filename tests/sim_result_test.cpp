// Direct tests for src/core/sim_result: derived metrics, the warmup
// subtraction, equality (the determinism contract), report formatting, and
// the kCounterFields schema every counter output walks.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/sim_result.h"
#include "harness/result_store.h"
#include "stats/metrics.h"
#include "util/json.h"

namespace ringclu {
namespace {

SimResult sample() {
  SimResult result;
  result.config_name = "Ring_8clus_1bus_2IW";
  result.benchmark = "gcc";
  SimCounters& c = result.counters;
  c.cycles = 1000;
  c.committed = 1500;
  c.comms = 300;
  c.comm_distance_sum = 600;
  c.comm_contention_sum = 150;
  c.nready_sum = 4000;
  c.dispatched_per_cluster = {400, 400, 400, 300};
  c.branches = 200;
  c.mispredicts = 10;
  c.loads = 450;
  c.stores = 220;
  c.l1d_accesses = 670;
  c.l1d_misses = 67;
  c.rob_occupancy_sum = 64000;
  return result;
}

TEST(SimResultMetrics, RatiosMatchCounters) {
  const SimResult r = sample();
  EXPECT_DOUBLE_EQ(r.ipc(), 1.5);
  EXPECT_DOUBLE_EQ(r.comms_per_instr(), 0.2);
  EXPECT_DOUBLE_EQ(r.avg_comm_distance(), 2.0);
  EXPECT_DOUBLE_EQ(r.avg_comm_contention(), 0.5);
  EXPECT_DOUBLE_EQ(r.nready_avg(), 4.0);
  EXPECT_DOUBLE_EQ(r.mispredict_rate(), 0.05);
  EXPECT_DOUBLE_EQ(r.avg_rob_occupancy(), 64.0);
}

TEST(SimResultMetrics, EmptyRunYieldsZeroNotNan) {
  const SimResult r;  // all counters zero
  EXPECT_DOUBLE_EQ(r.ipc(), 0.0);
  EXPECT_DOUBLE_EQ(r.comms_per_instr(), 0.0);
  EXPECT_DOUBLE_EQ(r.avg_comm_distance(), 0.0);
  EXPECT_DOUBLE_EQ(r.mispredict_rate(), 0.0);
  EXPECT_DOUBLE_EQ(r.dispatch_share(0), 0.0);
}

TEST(SimResultMetrics, DispatchSharesSumToOne) {
  const SimResult r = sample();
  double total = 0.0;
  for (int c = 0; c < 4; ++c) total += r.dispatch_share(c);
  EXPECT_DOUBLE_EQ(total, 1.0);
  EXPECT_DOUBLE_EQ(r.dispatch_share(3), 0.2);
}

TEST(SimCountersOps, MinusSubtractsEveryField) {
  const SimResult warm = sample();
  SimResult end = sample();
  end.counters.cycles += 100;
  end.counters.committed += 600;
  end.counters.dispatched_per_cluster[2] += 50;
  const SimCounters measured = end.counters.minus(warm.counters);
  EXPECT_EQ(measured.cycles, 100u);
  EXPECT_EQ(measured.committed, 600u);
  EXPECT_EQ(measured.dispatched_per_cluster,
            (std::vector<std::uint64_t>{0, 0, 50, 0}));
  EXPECT_EQ(measured.comms, 0u);
}

TEST(SimCountersOps, EqualityIsFieldWise) {
  const SimResult a = sample();
  SimResult b = sample();
  EXPECT_TRUE(a.counters == b.counters);
  b.counters.dispatched_per_cluster[1] += 1;
  EXPECT_FALSE(a.counters == b.counters);
}

TEST(SimResultReports, SummaryNamesConfigAndMetrics) {
  const std::string text = sample().summary();
  EXPECT_NE(text.find("Ring_8clus_1bus_2IW/gcc"), std::string::npos);
  EXPECT_NE(text.find("ipc=1.500"), std::string::npos);
  EXPECT_NE(text.find("comms/instr=0.200"), std::string::npos);
}

TEST(SimResultReports, DetailedReportHasStallAndShareLines) {
  const std::string text = sample().detailed_report();
  EXPECT_NE(text.find("stalls:"), std::string::npos);
  EXPECT_NE(text.find("l1d_miss=10.0%"), std::string::npos);
  EXPECT_NE(text.find("dispatch share:"), std::string::npos);
}

TEST(SimResultThroughput, InstrsPerSecondFromWallTime) {
  SimResult result = sample();
  result.wall_seconds = 0.5;
  result.total_committed = 1'000'000;
  EXPECT_DOUBLE_EQ(result.sim_instrs_per_second(), 2'000'000.0);
  // Cache-loaded results carry no wall time and must not divide by zero.
  result.wall_seconds = 0.0;
  EXPECT_DOUBLE_EQ(result.sim_instrs_per_second(), 0.0);
}

// ---- The counter schema ------------------------------------------------

/// A result whose every table field holds a distinct value.
SimResult distinct_fields() {
  SimResult result;
  result.config_name = "Ring_8clus_1bus_2IW";
  result.benchmark = "gcc";
  std::uint64_t value = 1'000'003;
  for (const CounterField& field : kCounterFields) {
    result.counters.*field.member = value;
    value += 7'919;
  }
  result.counters.dispatched_per_cluster = {11, 13, 17, 19};
  return result;
}

void expect_identical(const SimCounters& actual,
                      const SimCounters& expected) {
  for (const CounterField& field : kCounterFields) {
    EXPECT_EQ(actual.*field.member, expected.*field.member) << field.name;
  }
  EXPECT_EQ(actual.dispatched_per_cluster, expected.dispatched_per_cluster);
}

TEST(CounterSchema, NamesAreUniqueAndMatchRegistryCountersInOrder) {
  std::set<std::string_view> names;
  for (const CounterField& field : kCounterFields) {
    EXPECT_TRUE(names.insert(field.name).second) << field.name;
  }
  std::vector<std::string> registry_counters;
  for (const MetricDesc& metric : MetricsRegistry::builtin().entries()) {
    if (metric.kind == MetricKind::Counter) {
      registry_counters.push_back(metric.name);
    }
  }
  ASSERT_EQ(registry_counters.size(), std::size(kCounterFields));
  for (std::size_t i = 0; i < registry_counters.size(); ++i) {
    EXPECT_EQ(registry_counters[i], kCounterFields[i].name);
  }
}

TEST(CounterSchema, EveryFieldSurvivesTheStoreLine) {
  const SimResult original = distinct_fields();
  const std::optional<SimResult> parsed =
      try_deserialize_result(serialize_result(original));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->config_name, original.config_name);
  EXPECT_EQ(parsed->benchmark, original.benchmark);
  expect_identical(parsed->counters, original.counters);
}

TEST(CounterSchema, EveryFieldSurvivesACheckpoint) {
  const SimResult original = distinct_fields();
  CheckpointWriter writer;
  writer.save(original.counters);
  CheckpointReader reader(writer.bytes());
  SimCounters restored;
  restored.transfer(reader);
  ASSERT_TRUE(reader.ok()) << reader.error();
  expect_identical(restored, original.counters);
}

TEST(CounterSchema, MinusSubtractsEveryField) {
  const SimCounters baseline = distinct_fields().counters;
  SimCounters end = baseline;
  for (const CounterField& field : kCounterFields) {
    end.*field.member *= 3;
  }
  for (std::uint64_t& count : end.dispatched_per_cluster) count *= 3;
  const SimCounters measured = end.minus(baseline);
  for (const CounterField& field : kCounterFields) {
    EXPECT_EQ(measured.*field.member, 2 * (baseline.*field.member))
        << field.name;
  }
  EXPECT_EQ(measured.dispatched_per_cluster,
            (std::vector<std::uint64_t>{22, 26, 34, 38}));
}

TEST(CounterSchema, JsonCountersBlockHasEveryFieldInTableOrder) {
  const SimResult original = distinct_fields();
  const std::string text = result_to_json(original);
  const std::optional<JsonValue> doc = json_parse(text);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  // Table fields plus dispatched_per_cluster, nothing else.
  EXPECT_EQ(counters->object.size(), std::size(kCounterFields) + 1);
  const std::size_t block = text.find("\"counters\":{");
  ASSERT_NE(block, std::string::npos);
  std::size_t previous = block;
  for (const CounterField& field : kCounterFields) {
    const JsonValue* value = counters->find(field.name);
    ASSERT_NE(value, nullptr) << field.name;
    EXPECT_EQ(value->number,
              static_cast<double>(original.counters.*field.member))
        << field.name;
    const std::size_t at =
        text.find("\"" + std::string(field.name) + "\":", block);
    EXPECT_GT(at, previous) << field.name << " out of table order";
    previous = at;
  }
  EXPECT_GT(text.find("\"dispatched_per_cluster\":", block), previous);
}

TEST(CounterSchema, GoldenStoreLinesReserializeByteIdentically) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(RINGCLU_GOLDEN_DIR)) {
    const std::string name = entry.path().filename().string();
    // matrix_*.tsv and trace_digests.tsv hold digests, not store lines.
    if (entry.path().extension() != ".tsv" || name.starts_with("matrix") ||
        name == "trace_digests.tsv") {
      continue;
    }
    ++files;
    std::ifstream in(entry.path());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      ++lines;
      const std::optional<SimResult> parsed = try_deserialize_result(line);
      ASSERT_TRUE(parsed.has_value()) << name;
      EXPECT_EQ(serialize_result(*parsed), line) << name;
    }
    EXPECT_GT(lines, 0u) << name;
  }
  EXPECT_EQ(files, 6u);
}

TEST(CounterSchema, StoreLineWithWrongCounterCountIsRejected) {
  const std::string line = serialize_result(distinct_fields());
  const std::size_t clusters = line.rfind('\t');
  // One counter short: drop the last counter column.
  const std::size_t last_counter = line.rfind('\t', clusters - 1);
  const std::string short_line =
      line.substr(0, last_counter) + line.substr(clusters);
  EXPECT_FALSE(try_deserialize_result(short_line).has_value());
  // One counter too many: repeat the last counter column.
  const std::string long_line = line.substr(0, clusters) +
                                line.substr(last_counter, clusters -
                                                              last_counter) +
                                line.substr(clusters);
  EXPECT_FALSE(try_deserialize_result(long_line).has_value());
  EXPECT_TRUE(try_deserialize_result(line).has_value());
}

}  // namespace
}  // namespace ringclu
