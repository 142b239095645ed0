// End-to-end tests for src/core: configuration presets, whole-pipeline
// simulation on both machines, accounting invariants and determinism.

#include <gtest/gtest.h>

#include "core/arch_config.h"
#include "core/processor.h"
#include "steer/registry.h"
#include "steer/steering.h"
#include "trace/synth/suite.h"

namespace ringclu {
namespace {

SimResult simulate(const std::string& preset, const std::string& benchmark,
                   std::uint64_t instrs = 20000, std::uint64_t warmup = 2000,
                   std::uint64_t seed = 42) {
  const ArchConfig config = ArchConfig::preset(preset);
  auto trace = make_benchmark_trace(benchmark, seed);
  Processor processor(config, seed);
  return processor.run(*trace, warmup, instrs);
}

TEST(ArchConfig, PresetParsesAllPaperNames) {
  for (const std::string& name : ArchConfig::paper_preset_names()) {
    const ArchConfig config = ArchConfig::preset(name);
    EXPECT_EQ(config.name, name);
    EXPECT_TRUE(config.num_clusters == 4 || config.num_clusters == 8);
  }
  EXPECT_EQ(ArchConfig::paper_preset_names().size(), 10u);
}

TEST(ArchConfig, TryPresetRejectsMalformedNamesWithoutAborting) {
  EXPECT_FALSE(ArchConfig::try_preset("").has_value());
  EXPECT_FALSE(ArchConfig::try_preset("Ring").has_value());
  EXPECT_FALSE(ArchConfig::try_preset("Ring_8clus_1bus").has_value());
  EXPECT_FALSE(ArchConfig::try_preset("Ring_8clus_1bus_2IQ").has_value());
  EXPECT_FALSE(ArchConfig::try_preset("Mesh_8clus_1bus_2IW").has_value());
  EXPECT_FALSE(ArchConfig::try_preset("Ring_xclus_1bus_2IW").has_value());
  // Parseable but out of range: rejected, not contract-aborted.
  EXPECT_FALSE(ArchConfig::try_preset("Ring_1clus_1bus_2IW").has_value());
  EXPECT_FALSE(ArchConfig::try_preset("Ring_99clus_1bus_2IW").has_value());
  EXPECT_FALSE(ArchConfig::try_preset("Ring_8clus_3bus_2IW").has_value());
  EXPECT_FALSE(ArchConfig::try_preset("Ring_8clus_1bus_9IW").has_value());
  ASSERT_TRUE(ArchConfig::try_preset("Ring_8clus_1bus_2IW+SSA").has_value());
  EXPECT_EQ(ArchConfig::try_preset("Ring_8clus_1bus_2IW+SSA")->steer, "ssa");
}

TEST(ArchConfig, PresetFieldsMatchName) {
  const ArchConfig config = ArchConfig::preset("Conv_8clus_2bus_1IW");
  EXPECT_EQ(config.arch, ArchKind::Conv);
  EXPECT_EQ(config.num_clusters, 8);
  EXPECT_EQ(config.num_buses, 2);
  EXPECT_EQ(config.issue_width, 1);
  EXPECT_EQ(config.iq_int, 16);         // Table 2: 16 entries at 8 clusters
  EXPECT_EQ(config.regs_per_class, 48); // Table 2: 48 regs at 8 clusters
  EXPECT_EQ(config.bus_orientation(), BusOrientation::OppositeDirections);
}

TEST(ArchConfig, FourClusterSizing) {
  const ArchConfig config = ArchConfig::preset("Ring_4clus_1bus_2IW");
  EXPECT_EQ(config.iq_int, 32);
  EXPECT_EQ(config.regs_per_class, 64);
  EXPECT_EQ(config.bus_orientation(), BusOrientation::AllForward);
}

TEST(ArchConfig, SuffixesParse) {
  const ArchConfig ssa = ArchConfig::preset("Ring_8clus_1bus_2IW+SSA");
  EXPECT_EQ(ssa.steer, "ssa");
  const ArchConfig slow = ArchConfig::preset("Conv_8clus_1bus_2IW@2cyc");
  EXPECT_EQ(slow.hop_latency, 2);
  const ArchConfig both = ArchConfig::preset("Ring_8clus_2bus_2IW@2cyc+SSA");
  EXPECT_EQ(both.steer, "ssa");
  EXPECT_EQ(both.hop_latency, 2);
}

TEST(ArchConfig, DescribeMentionsKeyParameters) {
  const std::string text = ArchConfig::preset("Ring_8clus_1bus_2IW").describe();
  EXPECT_NE(text.find("Ring"), std::string::npos);
  EXPECT_NE(text.find("8"), std::string::npos);
  EXPECT_NE(text.find("48"), std::string::npos);
}

TEST(Processor, CommitsRequestedInstructions) {
  const SimResult result = simulate("Ring_8clus_1bus_2IW", "gzip");
  EXPECT_GE(result.counters.committed, 20000u);
  EXPECT_LE(result.counters.committed, 20000u + 8);  // one commit burst
  EXPECT_GT(result.counters.cycles, 0u);
  EXPECT_GT(result.ipc(), 0.0);
}

TEST(Processor, DeterministicAcrossRuns) {
  const SimResult a = simulate("Ring_8clus_1bus_2IW", "applu");
  const SimResult b = simulate("Ring_8clus_1bus_2IW", "applu");
  EXPECT_EQ(a.counters.cycles, b.counters.cycles);
  EXPECT_EQ(a.counters.comms, b.counters.comms);
  EXPECT_EQ(a.counters.nready_sum, b.counters.nready_sum);
  EXPECT_EQ(a.counters.mispredicts, b.counters.mispredicts);
}

TEST(Processor, DispatchCountsCoverAllClusters) {
  const SimResult result = simulate("Ring_8clus_1bus_2IW", "swim");
  ASSERT_EQ(result.counters.dispatched_per_cluster.size(), 8u);
  std::uint64_t total = 0;
  for (const std::uint64_t count : result.counters.dispatched_per_cluster) {
    EXPECT_GT(count, 0u);  // Ring spreads work over every cluster
    total += count;
  }
  EXPECT_GE(total, result.counters.committed);
}

TEST(Processor, RingDispatchNearUniform) {
  const SimResult result = simulate("Ring_8clus_1bus_2IW", "mgrid", 30000);
  for (int c = 0; c < 8; ++c) {
    EXPECT_NEAR(result.dispatch_share(c), 0.125, 0.05) << "cluster " << c;
  }
}

TEST(Processor, CommDistanceConsistentWithCount) {
  const SimResult result = simulate("Conv_8clus_1bus_2IW", "swim");
  EXPECT_GT(result.counters.comms, 0u);
  // Every communication moves at least one hop.
  EXPECT_GE(result.counters.comm_distance_sum, result.counters.comms);
  // And at most N-1 hops on the forward ring.
  EXPECT_LE(result.counters.comm_distance_sum, result.counters.comms * 7);
}

TEST(Processor, RingBeatsConvOnCommunication) {
  // The paper's central claim, in miniature: fewer comms, shorter
  // distances on the communication-heavy FP workload.
  const SimResult ring = simulate("Ring_8clus_1bus_2IW", "swim", 30000);
  const SimResult conv = simulate("Conv_8clus_1bus_2IW", "swim", 30000);
  EXPECT_LT(ring.comms_per_instr(), conv.comms_per_instr());
  EXPECT_LT(ring.avg_comm_distance(), conv.avg_comm_distance());
}

TEST(Processor, TwoBusesReduceContention) {
  const SimResult one = simulate("Conv_8clus_1bus_2IW", "swim", 30000);
  const SimResult two = simulate("Conv_8clus_2bus_2IW", "swim", 30000);
  EXPECT_LE(two.avg_comm_contention(), one.avg_comm_contention() + 1e-9);
}

TEST(Processor, SlowerBusesHurt) {
  const SimResult fast = simulate("Ring_8clus_1bus_2IW", "swim", 30000);
  const SimResult slow = simulate("Ring_8clus_1bus_2IW@2cyc", "swim", 30000);
  EXPECT_LT(slow.ipc(), fast.ipc() * 1.001);
}

TEST(Processor, BranchStatisticsPopulated) {
  const SimResult result = simulate("Ring_8clus_1bus_2IW", "gcc");
  EXPECT_GT(result.counters.branches, 1000u);
  EXPECT_GT(result.counters.mispredicts, 0u);
  EXPECT_LT(result.mispredict_rate(), 0.5);
}

TEST(Processor, MemoryStatisticsPopulated) {
  const SimResult result = simulate("Ring_8clus_1bus_2IW", "mcf", 10000);
  EXPECT_GT(result.counters.loads, 1000u);
  EXPECT_GT(result.counters.l1d_misses, 0u);
  EXPECT_GT(result.counters.l2_misses, 0u);  // 8 MiB chase blows the L2
}

TEST(Processor, ConvSsaConcentratesWork) {
  // Under SSA the Conv machine collapses dependence chains onto very few
  // clusters (Section 4.7) while the Ring machine stays balanced, and the
  // concentration costs Conv dearly in dispatch stalls and IPC.
  const SimResult conv = simulate("Conv_8clus_1bus_2IW+SSA", "galgel", 15000);
  const SimResult ring = simulate("Ring_8clus_1bus_2IW+SSA", "galgel", 15000);
  double conv_max = 0;
  double ring_max = 0;
  for (int c = 0; c < 8; ++c) {
    conv_max = std::max(conv_max, conv.dispatch_share(c));
    ring_max = std::max(ring_max, ring.dispatch_share(c));
  }
  EXPECT_GT(conv_max, 0.5);   // most work on one cluster
  EXPECT_LT(ring_max, 0.25);  // inherently balanced
  EXPECT_GT(ring.ipc(), conv.ipc() * 1.2);
  EXPECT_GT(conv.counters.steer_stall_cycles * 2, conv.counters.cycles)
      << "the full chosen cluster should stall dispatch most cycles";
}

TEST(Processor, CopyEvictionCanBeDisabled) {
  ArchConfig config = ArchConfig::preset("Ring_8clus_1bus_2IW");
  config.copy_eviction = false;
  auto trace = make_benchmark_trace("facerec", 42);
  Processor processor(config, 42);
  const SimResult result = processor.run(*trace, 1000, 10000);
  EXPECT_EQ(result.counters.copy_evictions, 0u);
  EXPECT_GT(result.ipc(), 0.0);
}

TEST(Processor, EagerCopyReleaseLowersRegisterPressure) {
  // The alternative release discipline of Section 3: fewer registers in
  // use, at the price of (possibly) more communications.
  ArchConfig hold = ArchConfig::preset("Ring_8clus_1bus_2IW");
  ArchConfig eager = hold;
  eager.eager_copy_release = true;
  auto run = [](const ArchConfig& config) {
    auto trace = make_benchmark_trace("swim", 42);
    Processor processor(config, 42);
    return processor.run(*trace, 2000, 20000);
  };
  const SimResult held = run(hold);
  const SimResult released = run(eager);
  const double held_regs = static_cast<double>(
                               held.counters.regs_in_use_sum) /
                           static_cast<double>(held.counters.cycles);
  const double released_regs =
      static_cast<double>(released.counters.regs_in_use_sum) /
      static_cast<double>(released.counters.cycles);
  EXPECT_LT(released_regs, held_regs);
  EXPECT_GE(released.comms_per_instr(), held.comms_per_instr() - 0.01);
  EXPECT_GT(released.counters.copy_evictions, 0u);
}

TEST(Processor, EagerCopyReleaseStaysCorrectOnBothMachines) {
  for (const char* preset : {"Ring_8clus_1bus_2IW", "Conv_8clus_1bus_2IW"}) {
    ArchConfig config = ArchConfig::preset(preset);
    config.eager_copy_release = true;
    auto trace = make_benchmark_trace("equake", 42);
    Processor processor(config, 42);
    const SimResult result = processor.run(*trace, 1000, 10000);
    EXPECT_GE(result.counters.committed, 10000u) << preset;
  }
}

TEST(Processor, OneWideIssueConfigurationRuns) {
  const SimResult result = simulate("Ring_8clus_1bus_1IW", "wupwise", 10000);
  EXPECT_GT(result.ipc(), 0.0);
  // Narrow clusters bound the IPC by num_clusters * (int+fp width).
  EXPECT_LE(result.ipc(), 16.0);
}

TEST(Processor, WarmupIsExcludedFromCounters) {
  const ArchConfig config = ArchConfig::preset("Ring_8clus_1bus_2IW");
  auto trace = make_benchmark_trace("gap", 42);
  Processor processor(config, 42);
  const SimResult result = processor.run(*trace, 5000, 10000);
  EXPECT_GE(result.counters.committed, 10000u);
  EXPECT_LE(result.counters.committed, 10008u);
}

/// Stalls every instruction, purely: nothing ever dispatches, so the ROB
/// stays empty while the front end fills.
class AlwaysStallSteering final : public SteeringPolicy {
 public:
  SteerDecision steer(const SteerRequest& /*request*/,
                      const SteerContext& /*context*/) override {
    return SteerDecision::stalled();
  }
  [[nodiscard]] std::string_view name() const override {
    return "test_always_stall";
  }
  [[nodiscard]] bool stalled_steer_is_pure() const override { return true; }
};

// The watchdog is not a contract macro: it fires with contracts compiled
// out too.
TEST(ProcessorDeathTest, WatchdogFiresWhenDispatchWedgesWithAnEmptyRob) {
  static const bool registered = [] {
    SteeringRegistry::global().register_policy(
        "test_always_stall", [](const SteerFactoryArgs& /*args*/) {
          return std::unique_ptr<SteeringPolicy>(
              std::make_unique<AlwaysStallSteering>());
        });
    return true;
  }();
  (void)registered;
  ArchConfig config = ArchConfig::preset("Ring_8clus_1bus_2IW");
  ASSERT_FALSE(config.set_steering("test_always_stall").has_value());
  EXPECT_DEATH(
      {
        auto trace = make_benchmark_trace("gzip", 42);
        Processor processor(config, 42);
        (void)processor.run(*trace, 0, 1000);
      },
      "watchdog: no commit progress");
}

class AllBenchmarksRunTest
    : public ::testing::TestWithParam<BenchmarkDesc> {};

TEST_P(AllBenchmarksRunTest, RingAndConvCompleteWithoutDeadlock) {
  // The watchdog inside the processor aborts on livelock, so completing is
  // itself the assertion; also check basic sanity of the result.
  for (const char* preset : {"Ring_8clus_1bus_2IW", "Conv_8clus_1bus_2IW"}) {
    const SimResult result = simulate(preset, std::string(GetParam().name),
                                      8000, 800);
    EXPECT_GE(result.counters.committed, 8000u) << preset;
    EXPECT_GT(result.ipc(), 0.0) << preset;
    EXPECT_LT(result.ipc(), 8.0) << preset;  // fetch width bound
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, AllBenchmarksRunTest,
    ::testing::ValuesIn(spec2000_benchmarks().begin(),
                        spec2000_benchmarks().end()),
    [](const ::testing::TestParamInfo<BenchmarkDesc>& param_info) {
      return std::string(param_info.param.name);
    });

class AllPresetsRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllPresetsRunTest, PresetSimulatesCleanly) {
  const SimResult result = simulate(GetParam(), "galgel", 6000, 600);
  EXPECT_GE(result.counters.committed, 6000u);
  EXPECT_GT(result.ipc(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Table3, AllPresetsRunTest,
    ::testing::ValuesIn(ArchConfig::paper_preset_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

}  // namespace
}  // namespace ringclu
