// Counter-conservation invariants: structural laws every simulation must
// obey regardless of configuration, benchmark or seed.  Where the golden
// suites pin exact numbers for fixed configurations, this suite sweeps
// randomized valid ArchConfigs and asserts the relations that cannot break
// without a bookkeeping bug: conservation of instructions through the
// pipeline, communication/eviction bounds, width-limited IPC, and full
// drain of the ROB / LSQ / register files at end of simulation.
//
// Each scenario feeds a *finite* trace (a capped synthetic benchmark) and
// simulates to exhaustion, so every fetched instruction must commit and
// every transient structure must end empty.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/arch_config.h"
#include "core/processor.h"
#include "trace/synth/suite.h"
#include "trace/trace_source.h"
#include "util/rng.h"

namespace ringclu {
namespace {

/// Passes through an underlying (endless) trace, ending after \p cap ops;
/// counts the nops it emitted so conservation checks can account for them
/// (nops bypass steering and are not in dispatched_per_cluster).
class CappedTrace final : public TraceSource {
 public:
  CappedTrace(TraceSource& inner, std::uint64_t cap)
      : inner_(inner), cap_(cap) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }

 protected:
  bool produce(MicroOp& out) override {
    if (emitted_ >= cap_) return false;
    if (!inner_.next(out)) return false;
    ++emitted_;
    if (out.cls == OpClass::Nop) ++nops_;
    return true;
  }

  void do_reset() override {
    inner_.reset();
    emitted_ = 0;
    nops_ = 0;
  }

 public:
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t nops() const { return nops_; }

 private:
  TraceSource& inner_;
  std::uint64_t cap_;
  std::uint64_t emitted_ = 0;
  std::uint64_t nops_ = 0;
};

/// A randomized but always-valid configuration.
ArchConfig random_config(Rng& rng) {
  ArchConfig config;
  const int clusters[] = {2, 4, 8};
  const int widths[] = {1, 2, 4};
  config.num_clusters = clusters[rng.uniform(3)];
  config.issue_width = widths[rng.uniform(3)];
  config.num_buses = 1 + static_cast<int>(rng.uniform(2));
  config.hop_latency = 1 + static_cast<int>(rng.uniform(2));
  config.arch = rng.uniform(2) == 0 ? ArchKind::Ring : ArchKind::Conv;
  const char* const policies[] = {"enhanced", "ssa", "round_robin", "random"};
  config.steer = policies[rng.uniform(4)];
  config.dcount_threshold = 4 + static_cast<int>(rng.uniform(13));
  config.regs_per_class = 40 + static_cast<int>(rng.uniform(25));
  config.iq_int = config.iq_fp = 8 + static_cast<int>(rng.uniform(9));
  config.iq_comm = 8 + static_cast<int>(rng.uniform(9));
  config.rob_size = 32 + static_cast<int>(rng.uniform(225));
  config.lsq_size = 16 + static_cast<int>(rng.uniform(113));
  config.copy_eviction = true;
  config.eager_copy_release = rng.uniform(4) == 0;
  config.name = "random";
  config.validate();
  return config;
}

TEST(Invariants, ConservationAcrossRandomConfigs) {
  constexpr int kScenarios = 12;
  constexpr std::uint64_t kTraceCap = 4000;
  Rng rng(0xC0FFEEu);
  const auto suite = spec2000_benchmarks();

  for (int scenario = 0; scenario < kScenarios; ++scenario) {
    const ArchConfig config = random_config(rng);
    const std::string benchmark(suite[rng.uniform(suite.size())].name);
    const std::uint64_t seed = rng.next_u64();
    SCOPED_TRACE("scenario " + std::to_string(scenario) + ": " +
                 std::to_string(config.num_clusters) + " clusters, " +
                 std::string(arch_name(config.arch)) + "/" +
                 config.steer + ", " +
                 benchmark + ", seed " + std::to_string(seed));

    auto inner = make_benchmark_trace(benchmark, seed);
    CappedTrace trace(*inner, kTraceCap);
    Processor processor(config, seed);
    // No warmup and an unreachable budget: run to trace exhaustion so the
    // counters cover the whole program and the machine must fully drain.
    const SimResult result =
        processor.run(trace, 0, ~0ull);
    const SimCounters& c = result.counters;
    const std::uint64_t n =
        static_cast<std::uint64_t>(config.num_clusters);
    const std::uint64_t width =
        static_cast<std::uint64_t>(config.issue_width);

    // Conservation through the pipeline: everything fetched was committed
    // (finite trace, fully drained), and everything steered was dispatched
    // exactly once.  fetched >= dispatched = committed - nops.
    EXPECT_EQ(processor.fetched(), trace.emitted());
    EXPECT_EQ(c.committed, trace.emitted());
    std::uint64_t dispatched = 0;
    ASSERT_EQ(c.dispatched_per_cluster.size(), n);
    for (const std::uint64_t per_cluster : c.dispatched_per_cluster) {
      dispatched += per_cluster;
    }
    EXPECT_LE(dispatched, processor.fetched());
    EXPECT_EQ(dispatched + trace.nops(), c.committed);

    // Memory conservation: every load/store committed exactly once.
    EXPECT_LE(c.loads + c.stores, c.committed);
    EXPECT_LE(c.load_forwards, c.loads);
    EXPECT_LE(c.l1d_misses, c.l1d_accesses);
    EXPECT_LE(c.l2_misses, c.l2_accesses);

    // Front end: branches are a subset of fetched ops.
    EXPECT_LE(c.branches, processor.fetched());
    EXPECT_LE(c.mispredicts, c.branches);

    // Communication bounds: at most one comm per distinct source operand,
    // between 1 and N-1 hops each; a copy can only be evicted once per
    // communication that created it.
    EXPECT_LE(c.comms, dispatched * kMaxSrcOperands);
    EXPECT_GE(c.comm_distance_sum, c.comms);
    EXPECT_LE(c.comm_distance_sum, c.comms * (n - 1));
    EXPECT_LE(c.copy_evictions, c.comms);

    // Width-limited progress and imbalance bounds.
    EXPECT_GT(c.cycles, 0u);
    EXPECT_LE(c.committed,
              c.cycles * static_cast<std::uint64_t>(config.commit_width));
    EXPECT_LE(c.nready_sum, c.cycles * 2 * n * width);

    // Full drain: no instruction, queue entry, LSQ entry or transient
    // register mapping survives the end of simulation; exactly the
    // architectural state (one live value per logical register) remains.
    EXPECT_EQ(processor.rob_size(), 0u);
    EXPECT_EQ(processor.lsq_size(), 0u);
    EXPECT_EQ(processor.frontend_queue_size(), 0u);
    EXPECT_EQ(processor.values().live_count(),
              static_cast<std::size_t>(kNumFlatArchRegs));
    EXPECT_EQ(processor.regs_in_use(),
              processor.values().total_mapped_count());
    EXPECT_GE(processor.regs_in_use(), kNumFlatArchRegs);
  }
}

TEST(Invariants, OccupancyIntegralsBounded) {
  // rob_occupancy_sum / regs_in_use_sum are per-cycle integrals; their
  // averages cannot exceed the structure capacities.
  const ArchConfig config = ArchConfig::preset("Ring_8clus_1bus_2IW");
  auto inner = make_benchmark_trace("gcc", 7);
  CappedTrace trace(*inner, 6000);
  Processor processor(config, 7);
  const SimResult result = processor.run(trace, 0, ~0ull);
  const SimCounters& c = result.counters;
  EXPECT_LE(c.rob_occupancy_sum,
            c.cycles * static_cast<std::uint64_t>(config.rob_size));
  EXPECT_LE(c.regs_in_use_sum,
            c.cycles * static_cast<std::uint64_t>(config.regs_per_class) *
                static_cast<std::uint64_t>(config.num_clusters) * 2);
  // The architectural registers alone keep 64 registers mapped.
  EXPECT_GE(c.regs_in_use_sum,
            c.cycles * static_cast<std::uint64_t>(kNumFlatArchRegs));
}

}  // namespace
}  // namespace ringclu
