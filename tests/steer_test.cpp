// Tests for src/steer: the Ring dependence-based policy (including the
// paper's Figure 2 worked example), the Conv DCOUNT policy, SSA and the
// ablation policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "cluster/regfile.h"
#include "cluster/value_map.h"
#include "interconnect/bus_set.h"
#include "steer/conv_steering.h"
#include "steer/dcount.h"
#include "steer/extra_policies.h"
#include "steer/registry.h"
#include "steer/ring_steering.h"
#include "steer/ssa_steering.h"
#include "steer/steer_common.h"

namespace ringclu {
namespace {

/// Capacity oracle backed by a real RegFileSet with configurable issue/comm
/// queue state.
class TestOracle final : public SteerOracle {
 public:
  TestOracle(int clusters, int regs) : regs_(clusters, regs) {
    iq_ok_.assign(static_cast<std::size_t>(clusters), true);
    comm_free_.assign(static_cast<std::size_t>(clusters), 16);
  }

  bool iq_can_accept(int cluster, UnitKind) const override {
    return iq_ok_[static_cast<std::size_t>(cluster)];
  }
  int comm_free_entries(int cluster) const override {
    return comm_free_[static_cast<std::size_t>(cluster)];
  }
  bool regs_obtainable(int cluster, RegClass cls, int count) const override {
    return regs_.free_count(cluster, cls) >= count;
  }
  int free_regs(int cluster, RegClass cls) const override {
    return regs_.free_count(cluster, cls);
  }
  int free_regs_total(int cluster) const override {
    return regs_.free_count(cluster, RegClass::Int) +
           regs_.free_count(cluster, RegClass::Fp);
  }

  RegFileSet regs_;
  std::vector<bool> iq_ok_;
  std::vector<int> comm_free_;
};

/// A small machine harness that applies steering decisions the way the
/// processor would (register allocation, copies), so multi-instruction
/// scenarios stay consistent.
struct Machine {
  Machine(ArchKind arch, int clusters, BusOrientation orientation,
          int buses = 1)
      : values(clusters),
        oracle(clusters, 48),
        bus_set(clusters, buses, orientation, 1) {
    context.values = &values;
    context.buses = &bus_set;
    context.oracle = &oracle;
    context.arch = arch;
    context.num_clusters = clusters;
  }

  /// Applies a decision for an instruction with the given request;
  /// returns the new destination value (or kInvalidValue).
  ValueId apply(const SteerRequest& request, const SteerDecision& decision) {
    EXPECT_FALSE(decision.stall);
    for (const SteerComm& comm : decision.comms) {
      oracle.regs_.allocate(decision.cluster,
                            request.src_cls[comm.operand]);
      values.add_copy(request.srcs[comm.operand], decision.cluster);
      values.set_readable(request.srcs[comm.operand], decision.cluster, 0);
    }
    if (!request.has_dst) return kInvalidValue;
    const int home = dest_home_cluster(context.arch, decision.cluster,
                                       context.num_clusters);
    oracle.regs_.allocate(home, request.dst_cls);
    const ValueId value = values.create(request.dst_cls, home);
    values.set_readable(value, home, 0);
    values.info(value).produced = true;
    return value;
  }

  ValueMap values;
  TestOracle oracle;
  BusSet bus_set;
  SteerContext context;
};

SteerRequest req0(RegClass dst = RegClass::Int) {
  SteerRequest request;
  request.cls = OpClass::IntAlu;
  request.has_dst = true;
  request.dst_cls = dst;
  return request;
}

SteerRequest req1(ValueId a, RegClass dst = RegClass::Int) {
  SteerRequest request = req0(dst);
  request.srcs.push_back(a);
  request.src_cls.push_back(RegClass::Int);
  return request;
}

SteerRequest req2(ValueId a, ValueId b, RegClass dst = RegClass::Int) {
  SteerRequest request = req1(a, dst);
  request.srcs.push_back(b);
  request.src_cls.push_back(RegClass::Int);
  return request;
}

// --- The paper's Figure 2 worked example (4 clusters, Ring) --------------

TEST(RingSteeringFigure2, FullWorkedExample) {
  Machine m(ArchKind::Ring, 4, BusOrientation::AllForward);
  RingSteering policy(4);

  // I1. R1 = 1 — no sources; ties broken round-robin starting at 0.
  SteerDecision d1 = policy.steer(req0(), m.context);
  EXPECT_EQ(d1.cluster, 0);
  const ValueId r1 = m.apply(req0(), d1);
  policy.on_dispatch(d1.cluster);
  EXPECT_EQ(m.values.info(r1).home, 1);  // value lands in cluster 1

  // I2. R2 = R1 + 1 — R1 is local to cluster 1.
  SteerDecision d2 = policy.steer(req1(r1), m.context);
  EXPECT_EQ(d2.cluster, 1);
  EXPECT_EQ(d2.comms.size(), 0u);
  const ValueId r2 = m.apply(req1(r1), d2);
  policy.on_dispatch(d2.cluster);
  EXPECT_EQ(m.values.info(r2).home, 2);

  // I3. R3 = R1 + R2 — no cluster has both; cluster 2 needs only one hop
  // for R1 (1 -> 2), cluster 1 would need three hops for R2 (2 -> 1).
  SteerDecision d3 = policy.steer(req2(r1, r2), m.context);
  EXPECT_EQ(d3.cluster, 2);
  ASSERT_EQ(d3.comms.size(), 1u);
  EXPECT_EQ(d3.comms[0].from_cluster, 1);  // R1 copied from cluster 1
  const ValueId r3 = m.apply(req2(r1, r2), d3);
  policy.on_dispatch(d3.cluster);
  EXPECT_TRUE(m.values.info(r1).mapped_in(2));  // copy created

  // I4. R4 = R1 + R3 — R3 is local to 3; R1 is one hop away (from 2).
  SteerDecision d4 = policy.steer(req2(r1, r3), m.context);
  EXPECT_EQ(d4.cluster, 3);
  ASSERT_EQ(d4.comms.size(), 1u);
  EXPECT_EQ(d4.comms[0].from_cluster, 2);  // nearest copy of R1
  const ValueId r4 = m.apply(req2(r1, r3), d4);
  policy.on_dispatch(d4.cluster);
  EXPECT_EQ(m.values.info(r4).home, 0);  // "R4" appears in cluster 0

  // I5. R5 = R1 * 3 — R1 mapped in {1,2,3}; cluster 3 wins because its
  // destination cluster (0) has the most free registers.
  SteerDecision d5 = policy.steer(req1(r1), m.context);
  EXPECT_EQ(d5.cluster, 3);
  EXPECT_EQ(d5.comms.size(), 0u);
  const ValueId r5 = m.apply(req1(r1), d5);
  EXPECT_EQ(m.values.info(r5).home, 0);  // "R4,R5" in cluster 0
}

// --- Ring steering rules --------------------------------------------------

TEST(RingSteering, OneSourceNeverCommunicates) {
  Machine m(ArchKind::Ring, 4, BusOrientation::AllForward);
  RingSteering policy(4);
  const ValueId v = m.values.create(RegClass::Int, 2);
  const SteerDecision d = policy.steer(req1(v), m.context);
  EXPECT_EQ(d.cluster, 2);
  EXPECT_TRUE(d.comms.empty());
}

TEST(RingSteering, TwoSourcesNeverNeedTwoComms) {
  Machine m(ArchKind::Ring, 8, BusOrientation::AllForward);
  RingSteering policy(8);
  const ValueId a = m.values.create(RegClass::Int, 1);
  const ValueId b = m.values.create(RegClass::Int, 5);
  const SteerDecision d = policy.steer(req2(a, b), m.context);
  EXPECT_FALSE(d.stall);
  EXPECT_LE(d.comms.size(), 1u);
  // Placed where one of the operands is mapped.
  EXPECT_TRUE(d.cluster == 1 || d.cluster == 5);
}

TEST(RingSteering, BothMappedClusterPreferred) {
  Machine m(ArchKind::Ring, 8, BusOrientation::AllForward);
  RingSteering policy(8);
  const ValueId a = m.values.create(RegClass::Int, 4);
  const ValueId b = m.values.create(RegClass::Int, 4);
  const SteerDecision d = policy.steer(req2(a, b), m.context);
  EXPECT_EQ(d.cluster, 4);
  EXPECT_TRUE(d.comms.empty());
}

TEST(RingSteering, MinimizesRingDistanceForMissingOperand) {
  Machine m(ArchKind::Ring, 8, BusOrientation::AllForward);
  RingSteering policy(8);
  // a at cluster 2, b at cluster 3: placing at 3 costs 1 hop for a (2->3);
  // placing at 2 costs 7 hops for b (3->2 forward).
  const ValueId a = m.values.create(RegClass::Int, 2);
  const ValueId b = m.values.create(RegClass::Int, 3);
  const SteerDecision d = policy.steer(req2(a, b), m.context);
  EXPECT_EQ(d.cluster, 3);
  ASSERT_EQ(d.comms.size(), 1u);
  EXPECT_EQ(d.comms[0].operand, 0);  // a is the one copied
}

TEST(RingSteering, StallsWhenOnlyCandidateFull) {
  Machine m(ArchKind::Ring, 4, BusOrientation::AllForward);
  RingSteering policy(4);
  const ValueId v = m.values.create(RegClass::Int, 2);
  m.oracle.iq_ok_[2] = false;  // the only mapped cluster cannot accept
  const SteerDecision d = policy.steer(req1(v), m.context);
  EXPECT_TRUE(d.stall);
}

TEST(RingSteering, ZeroSourceSpreadsRoundRobinOnTies) {
  Machine m(ArchKind::Ring, 4, BusOrientation::AllForward);
  RingSteering policy(4);
  std::vector<int> chosen;
  for (int i = 0; i < 4; ++i) {
    const SteerDecision d = policy.steer(req0(), m.context);
    chosen.push_back(d.cluster);
    policy.on_dispatch(d.cluster);  // advances the tie-break pointer
  }
  // All free counts stay equal (nothing applied), so the rotation visits
  // every cluster.
  EXPECT_EQ(chosen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(RingSteering, DestRegisterPressureDrivesChoice) {
  Machine m(ArchKind::Ring, 4, BusOrientation::AllForward);
  RingSteering policy(4);
  const ValueId v = m.values.create(RegClass::Int, 1);
  m.values.add_copy(v, 2);
  // Deplete cluster 2's INT registers: steering to 1 (dest cluster 2)
  // becomes unattractive; steering to 2 (dest cluster 3) wins.
  for (int i = 0; i < 40; ++i) m.oracle.regs_.allocate(2, RegClass::Int);
  const SteerDecision d = policy.steer(req1(v), m.context);
  EXPECT_EQ(d.cluster, 2);
}

// --- Conv steering rules ---------------------------------------------------

TEST(ConvSteering, PendingOperandAttractsConsumer) {
  Machine m(ArchKind::Conv, 8, BusOrientation::AllForward);
  ConvSteering policy(8, /*dcount_threshold=*/1000);
  const ValueId v = m.values.create(RegClass::Int, 6);
  // Not produced: the consumer chases the producer's cluster.
  const SteerDecision d = policy.steer(req1(v), m.context);
  EXPECT_EQ(d.cluster, 6);
  EXPECT_TRUE(d.comms.empty());
}

TEST(ConvSteering, AvailableOperandsMinimizeLongestDistance) {
  Machine m(ArchKind::Conv, 8, BusOrientation::AllForward);
  ConvSteering policy(8, 1000);
  const ValueId v = m.values.create(RegClass::Int, 3);
  m.values.info(v).produced = true;
  // Mapped only at 3: distance 0 at cluster 3, shortest elsewhere grows.
  const SteerDecision d = policy.steer(req1(v), m.context);
  EXPECT_EQ(d.cluster, 3);
}

TEST(ConvSteering, ImbalanceOverrideForcesLeastLoaded) {
  Machine m(ArchKind::Conv, 4, BusOrientation::AllForward);
  ConvSteering policy(4, /*dcount_threshold=*/2);
  const ValueId v = m.values.create(RegClass::Int, 0);
  m.values.info(v).produced = true;
  // Load cluster 0 heavily.
  for (int i = 0; i < 16; ++i) policy.on_dispatch(0);
  ASSERT_GT(policy.dcount().imbalance(), 2.0);
  const SteerDecision d = policy.steer(req1(v), m.context);
  // Dependence would say cluster 0, but balance wins.
  EXPECT_NE(d.cluster, 0);
  EXPECT_EQ(d.cluster, policy.dcount().least_loaded());
  EXPECT_EQ(d.comms.size(), 1u);  // balance costs a communication
}

TEST(ConvSteering, TwoRemoteOperandsMayNeedTwoComms) {
  Machine m(ArchKind::Conv, 8, BusOrientation::AllForward);
  ConvSteering policy(8, 2);
  const ValueId a = m.values.create(RegClass::Int, 2);
  const ValueId b = m.values.create(RegClass::Int, 6);
  m.values.info(a).produced = true;
  m.values.info(b).produced = true;
  for (int i = 0; i < 16; ++i) policy.on_dispatch(2);
  for (int i = 0; i < 16; ++i) policy.on_dispatch(6);
  const SteerDecision d = policy.steer(req2(a, b), m.context);
  EXPECT_FALSE(d.stall);
  if (d.cluster != 2 && d.cluster != 6) {
    EXPECT_EQ(d.comms.size(), 2u);  // Conv can need two communications
  }
}

TEST(ConvSteering, NoSourcePicksLeastLoaded) {
  Machine m(ArchKind::Conv, 4, BusOrientation::AllForward);
  ConvSteering policy(4, 1000);
  policy.on_dispatch(0);
  policy.on_dispatch(1);
  policy.on_dispatch(2);
  const SteerDecision d = policy.steer(req0(), m.context);
  EXPECT_EQ(d.cluster, 3);
}

// --- DCOUNT ---------------------------------------------------------------

TEST(Dcount, SumStaysZero) {
  DcountTracker dcount(4);
  dcount.on_dispatch(0);
  dcount.on_dispatch(0);
  dcount.on_dispatch(2);
  std::int64_t sum = 0;
  for (int c = 0; c < 4; ++c) sum += dcount.count(c);
  EXPECT_EQ(sum, 0);
}

TEST(Dcount, ImbalanceGrowsWithConcentration) {
  DcountTracker dcount(4);
  EXPECT_DOUBLE_EQ(dcount.imbalance(), 0.0);
  for (int i = 0; i < 8; ++i) dcount.on_dispatch(1);
  EXPECT_DOUBLE_EQ(dcount.imbalance(), 8.0);  // (24 - (-8)) / 4
  EXPECT_EQ(dcount.least_loaded(), 0);        // lowest index among ties
}

TEST(Dcount, BalancedDispatchKeepsImbalanceZero) {
  DcountTracker dcount(4);
  for (int round = 0; round < 10; ++round) {
    for (int c = 0; c < 4; ++c) dcount.on_dispatch(c);
  }
  EXPECT_DOUBLE_EQ(dcount.imbalance(), 0.0);
}

TEST(Dcount, SaturationBoundsCounters) {
  DcountTracker dcount(2, /*saturation=*/4);
  for (int i = 0; i < 100; ++i) dcount.on_dispatch(0);
  EXPECT_LE(dcount.count(0), 8);
  EXPECT_GE(dcount.count(1), -8);
}

TEST(Dcount, ResetClears) {
  DcountTracker dcount(4);
  dcount.on_dispatch(0);
  dcount.reset();
  EXPECT_DOUBLE_EQ(dcount.imbalance(), 0.0);
}

// --- SSA -------------------------------------------------------------------

TEST(SimpleSteering, LowestIndexMappedClusterWins) {
  Machine m(ArchKind::Conv, 8, BusOrientation::AllForward);
  SimpleSteering policy(8);
  const ValueId v = m.values.create(RegClass::Int, 3);
  m.values.add_copy(v, 6);
  const SteerDecision d = policy.steer(req1(v), m.context);
  EXPECT_EQ(d.cluster, 3);
}

TEST(SimpleSteering, LeftmostOperandDecides) {
  Machine m(ArchKind::Conv, 8, BusOrientation::AllForward);
  SimpleSteering policy(8);
  const ValueId a = m.values.create(RegClass::Int, 5);
  const ValueId b = m.values.create(RegClass::Int, 1);
  const SteerDecision d = policy.steer(req2(a, b), m.context);
  EXPECT_EQ(d.cluster, 5);  // leftmost operand is a, despite b being lower
}

TEST(SimpleSteering, RoundRobinForNoOperands) {
  Machine m(ArchKind::Conv, 4, BusOrientation::AllForward);
  SimpleSteering policy(4);
  std::vector<int> chosen;
  for (int i = 0; i < 5; ++i) {
    chosen.push_back(policy.steer(req0(), m.context).cluster);
  }
  EXPECT_EQ(chosen, (std::vector<int>{0, 1, 2, 3, 0}));
}

TEST(SimpleSteering, StallsWhenChosenClusterFull) {
  Machine m(ArchKind::Conv, 4, BusOrientation::AllForward);
  SimpleSteering policy(4);
  const ValueId v = m.values.create(RegClass::Int, 1);
  m.oracle.iq_ok_[1] = false;
  EXPECT_TRUE(policy.steer(req1(v), m.context).stall);
}

// --- Ablation policies ------------------------------------------------------

TEST(RoundRobinSteering, CyclesAndSkipsFullClusters) {
  Machine m(ArchKind::Conv, 4, BusOrientation::AllForward);
  RoundRobinSteering policy(4);
  m.oracle.iq_ok_[1] = false;
  std::vector<int> chosen;
  for (int i = 0; i < 3; ++i) {
    chosen.push_back(policy.steer(req0(), m.context).cluster);
  }
  EXPECT_EQ(chosen, (std::vector<int>{0, 2, 3}));
}

TEST(RandomSteering, OnlyPicksViableClusters) {
  Machine m(ArchKind::Conv, 4, BusOrientation::AllForward);
  RandomSteering policy(4, 123);
  m.oracle.iq_ok_[0] = false;
  m.oracle.iq_ok_[2] = false;
  for (int i = 0; i < 50; ++i) {
    const SteerDecision d = policy.steer(req0(), m.context);
    EXPECT_TRUE(d.cluster == 1 || d.cluster == 3);
  }
}

TEST(SteeringFactory, BuildsExpectedPolicies) {
  const SteeringRegistry& registry = SteeringRegistry::global();
  const SteerFactoryArgs ring{ArchKind::Ring, 8, 8, 1};
  const SteerFactoryArgs conv{ArchKind::Conv, 8, 8, 1};
  EXPECT_EQ(registry.create("enhanced", ring)->name(), "ring_dependence");
  EXPECT_EQ(registry.create("enhanced", conv)->name(), "conv_dcount");
  EXPECT_EQ(registry.create("ssa", ring)->name(), "ssa");
}

// --- plan_candidate capacity checks ----------------------------------------

TEST(PlanCandidate, RejectsWhenCommQueueFull) {
  Machine m(ArchKind::Ring, 4, BusOrientation::AllForward);
  const ValueId a = m.values.create(RegClass::Int, 1);
  const ValueId b = m.values.create(RegClass::Int, 2);
  m.oracle.comm_free_[1] = 0;  // the copy source for a has no comm entries
  SteerDecision decision;
  // Placing at 2 needs a comm from cluster 1 (operand a): rejected.
  EXPECT_FALSE(plan_candidate(req2(a, b), 2, m.context, decision));
}

TEST(PlanCandidate, RejectsWhenDestRegistersExhausted) {
  Machine m(ArchKind::Ring, 4, BusOrientation::AllForward);
  const ValueId v = m.values.create(RegClass::Int, 1);
  for (int i = 0; i < 48; ++i) m.oracle.regs_.allocate(2, RegClass::Int);
  SteerDecision decision;
  // Steering to 1 puts the destination in cluster 2, which is full.
  EXPECT_FALSE(plan_candidate(req1(v), 1, m.context, decision));
}

TEST(PlanOperand, PicksNearestMappedCluster) {
  Machine m(ArchKind::Ring, 8, BusOrientation::AllForward);
  const ValueId v = m.values.create(RegClass::Int, 1);
  m.values.add_copy(v, 5);
  const CommPlanStep step = plan_operand(v, 6, m.context);
  EXPECT_EQ(step.from_cluster, 5);  // 5 -> 6 is one hop; 1 -> 6 is five
  EXPECT_EQ(step.distance, 1);
}

// --- Plan-cache regression: memoized Conv == uncached reference ----------

/// The Conv algorithm re-implemented WITHOUT the per-request
/// SteerPlanCache: every operand plan goes through the uncached
/// plan_operand / plan_candidate path.  This is the pre-memoization
/// policy, kept here as the decision-stream oracle — ConvSteering must
/// match it bit for bit on any request sequence.
class UncachedConvReference {
 public:
  UncachedConvReference(int num_clusters, int dcount_threshold)
      : num_clusters_(num_clusters),
        threshold_(dcount_threshold),
        dcount_(num_clusters) {}

  SteerDecision steer(const SteerRequest& request,
                      const SteerContext& context) {
    const std::uint32_t all_mask =
        num_clusters_ >= 32 ? 0xffffffffu : ((1u << num_clusters_) - 1u);
    if (dcount_.imbalance() > static_cast<double>(threshold_)) {
      return select_least_loaded(request, context, all_mask);
    }
    const ValueMap& values = *context.values;
    std::uint32_t pending_mask = 0;
    for (std::size_t i = 0; i < request.srcs.size(); ++i) {
      const ValueInfo& info = values.info(request.srcs[i]);
      if (!info.produced) pending_mask |= 1u << info.home;
    }
    if (pending_mask != 0) {
      return select_least_loaded(request, context, pending_mask);
    }
    if (!request.srcs.empty()) {
      int best_distance = INT32_MAX;
      std::uint32_t best_mask = 0;
      for (int c = 0; c < num_clusters_; ++c) {
        const int distance = longest_comm_distance(request, c, context);
        if (distance < best_distance) {
          best_distance = distance;
          best_mask = 1u << c;
        } else if (distance == best_distance) {
          best_mask |= 1u << c;
        }
      }
      return select_least_loaded(request, context, best_mask);
    }
    return select_least_loaded(request, context, all_mask);
  }

  void on_dispatch(int cluster) { dcount_.on_dispatch(cluster); }

 private:
  SteerDecision select_least_loaded(const SteerRequest& request,
                                    const SteerContext& context,
                                    std::uint32_t candidate_mask) {
    SteerDecision best = SteerDecision::stalled();
    std::int64_t best_load = 0;
    SteerDecision plan;
    for (int c = 0; c < num_clusters_; ++c) {
      if (((candidate_mask >> c) & 1u) == 0) continue;
      const std::int64_t load = dcount_.count(c);
      if (!best.stall && load >= best_load) continue;
      if (!plan_candidate(request, c, context, plan)) continue;
      best = plan;
      best_load = load;
    }
    return best;
  }

  int num_clusters_;
  int threshold_;
  DcountTracker dcount_;
};

/// Drives ConvSteering and the uncached reference through the same
/// randomized request stream over one shared machine and requires
/// byte-equal decisions at every step.  The stream exercises all four
/// algorithm stages: imbalance overrides (threshold 2), pending operands
/// (values un-produced for a while), distance minimization (remote
/// operands) and the no-source case, plus viability rejections from
/// full issue queues, drained comm queues and register pressure.
TEST(ConvSteering, PlanCacheMatchesUncachedReferenceStream) {
  constexpr int kClusters = 8;
  constexpr int kThreshold = 2;
  Machine m(ArchKind::Conv, kClusters, BusOrientation::OppositeDirections, 2);
  ConvSteering cached(kClusters, kThreshold);
  UncachedConvReference reference(kClusters, kThreshold);

  std::mt19937 rng(20260807);
  std::vector<ValueId> ready;
  std::vector<ValueId> pending;  // created but not yet produced
  int steered = 0;
  int stalled = 0;
  for (int step = 0; step < 160; ++step) {
    // Mutate capacity state so viability filtering differs across steps.
    const int flaky = static_cast<int>(rng() % kClusters);
    m.oracle.iq_ok_[static_cast<std::size_t>(flaky)] = (rng() % 4) != 0;
    m.oracle.comm_free_[static_cast<std::size_t>(flaky)] =
        static_cast<int>(rng() % 3);
    // Produce one formerly pending value so the pending set churns.
    if (!pending.empty() && (rng() % 2) == 0) {
      m.values.info(pending.back()).produced = true;
      ready.push_back(pending.back());
      pending.pop_back();
    }

    SteerRequest request = req0((rng() % 3) == 0 ? RegClass::Fp
                                                 : RegClass::Int);
    const std::size_t sources = rng() % 3;
    std::vector<ValueId> pool = ready;
    pool.insert(pool.end(), pending.begin(), pending.end());
    for (std::size_t i = 0; i < sources && !pool.empty(); ++i) {
      const ValueId pick = pool[rng() % pool.size()];
      if (std::find(request.srcs.begin(), request.srcs.end(), pick) !=
          request.srcs.end()) {
        continue;  // srcs hold distinct values, like the dispatch path
      }
      request.srcs.push_back(pick);
      request.src_cls.push_back(RegClass::Int);
    }

    const SteerDecision got = cached.steer(request, m.context);
    const SteerDecision want = reference.steer(request, m.context);
    ASSERT_EQ(got.stall, want.stall) << "step " << step;
    ASSERT_EQ(got.cluster, want.cluster) << "step " << step;
    ASSERT_EQ(got.comms.size(), want.comms.size()) << "step " << step;
    for (std::size_t i = 0; i < got.comms.size(); ++i) {
      ASSERT_EQ(got.comms[i].operand, want.comms[i].operand)
          << "step " << step;
      ASSERT_EQ(got.comms[i].from_cluster, want.comms[i].from_cluster)
          << "step " << step;
    }
    if (got.stall) {
      ++stalled;
      continue;
    }
    const ValueId dst = m.apply(request, got);
    cached.on_dispatch(got.cluster);
    reference.on_dispatch(got.cluster);
    ++steered;
    if (dst != kInvalidValue && (rng() % 3) == 0) {
      // Withhold production for a while: future consumers see it pending.
      m.values.info(dst).produced = false;
      pending.push_back(dst);
    } else if (dst != kInvalidValue) {
      ready.push_back(dst);
    }
  }
  // The stream must have exercised both outcomes to mean anything.
  EXPECT_GT(steered, 20);
  EXPECT_GT(stalled, 0);
}

}  // namespace
}  // namespace ringclu
