// Determinism regression: two independent Processor::run invocations with
// the same (preset, benchmark, seed) must produce bit-identical SimResults —
// cycles, commits, every counter and the per-cluster dispatch vector.  The
// experiment cache and every paper figure depend on this property.

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "core/arch_config.h"
#include "core/processor.h"
#include "harness/runner.h"
#include "trace/synth/suite.h"

namespace ringclu {
namespace {

SimResult simulate(const std::string& preset, const std::string& benchmark,
                   std::uint64_t seed) {
  const ArchConfig config = ArchConfig::preset(preset);
  auto trace = make_benchmark_trace(benchmark, seed);
  Processor processor(config, seed);
  SimResult result = processor.run(*trace, /*warmup_instrs=*/2000,
                                   /*measure_instrs=*/15000);
  result.config_name = preset;
  result.benchmark = benchmark;
  return result;
}

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

struct Scenario {
  const char* preset;
  const char* benchmark;
};

class DeterminismTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(DeterminismTest, RepeatedRunsAreBitIdentical) {
  const Scenario& scenario = GetParam();
  const SimResult first = simulate(scenario.preset, scenario.benchmark, 42);
  const SimResult second = simulate(scenario.preset, scenario.benchmark, 42);
  ASSERT_GT(first.counters.committed, 0u);
  expect_identical(first.counters, second.counters);
  // The TSV serialization (the cache format) must match byte for byte.
  EXPECT_EQ(serialize_result(first), serialize_result(second));
}

INSTANTIATE_TEST_SUITE_P(
    BothMachines, DeterminismTest,
    ::testing::Values(Scenario{"Ring_8clus_1bus_2IW", "gcc"},
                      Scenario{"Conv_8clus_1bus_2IW", "gcc"},
                      Scenario{"Ring_4clus_1bus_2IW", "swim"},
                      Scenario{"Conv_8clus_2bus_1IW", "swim"},
                      Scenario{"Ring_8clus_1bus_2IW+SSA", "mcf"}),
    [](const ::testing::TestParamInfo<Scenario>& param_info) {
      std::string name = std::string(param_info.param.preset) + "_" +
                         param_info.param.benchmark;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(DeterminismTest, DifferentSeedsProduceDifferentWorkloads) {
  // Sanity check that the comparison above has teeth: changing the seed
  // changes the synthetic workload, so the timing must move.
  const SimResult a = simulate("Ring_8clus_1bus_2IW", "gcc", 42);
  const SimResult b = simulate("Ring_8clus_1bus_2IW", "gcc", 43);
  EXPECT_NE(serialize_result(a), serialize_result(b));
}

TEST(DeterminismTest, ResultSurvivesSerializationRoundTrip) {
  const SimResult original = simulate("Conv_8clus_1bus_2IW", "gcc", 7);
  const SimResult parsed = deserialize_result(serialize_result(original));
  EXPECT_EQ(parsed.config_name, original.config_name);
  EXPECT_EQ(parsed.benchmark, original.benchmark);
  expect_identical(parsed.counters, original.counters);
}

}  // namespace
}  // namespace ringclu
