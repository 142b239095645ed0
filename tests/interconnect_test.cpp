// Tests for src/interconnect: pipelined ring bus semantics and bus sets.

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "interconnect/bus_set.h"
#include "interconnect/ring_bus.h"

namespace ringclu {
namespace {

std::vector<BusDelivery> tick(PipelinedRingBus& bus, int cycles) {
  std::vector<BusDelivery> out;
  for (int i = 0; i < cycles; ++i) bus.tick(out);
  return out;
}

TEST(RingBus, ForwardDistance) {
  PipelinedRingBus bus(8, 1, RingDirection::Forward);
  EXPECT_EQ(bus.distance(0, 1), 1);
  EXPECT_EQ(bus.distance(0, 7), 7);
  EXPECT_EQ(bus.distance(7, 0), 1);
  EXPECT_EQ(bus.distance(3, 2), 7);
}

TEST(RingBus, BackwardDistance) {
  PipelinedRingBus bus(8, 1, RingDirection::Backward);
  EXPECT_EQ(bus.distance(1, 0), 1);
  EXPECT_EQ(bus.distance(0, 7), 1);
  EXPECT_EQ(bus.distance(2, 5), 5);
}

TEST(RingBus, DeliveryAfterDistanceTimesHop) {
  for (const int hop : {1, 2}) {
    PipelinedRingBus bus(8, hop, RingDirection::Forward);
    bus.inject(2, 5, 42);
    const int expected_cycles = bus.distance(2, 5) * hop;
    std::vector<BusDelivery> out;
    for (int cycle = 1; cycle <= expected_cycles; ++cycle) {
      bus.tick(out);
      if (cycle < expected_cycles) {
        EXPECT_TRUE(out.empty()) << "hop=" << hop << " cycle=" << cycle;
      }
    }
    ASSERT_EQ(out.size(), 1u) << "hop=" << hop;
    EXPECT_EQ(out[0].dst_cluster, 5);
    EXPECT_EQ(out[0].payload, 42u);
    EXPECT_EQ(bus.in_flight(), 0);
  }
}

TEST(RingBus, BackwardDelivery) {
  PipelinedRingBus bus(4, 1, RingDirection::Backward);
  bus.inject(1, 0, 9);
  const std::vector<BusDelivery> out = tick(bus, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst_cluster, 0);
}

TEST(RingBus, FullPipelining) {
  // "a datum can be transmitted from every cluster to the following one at
  // the same time": all 8 entry slots usable in one cycle.
  PipelinedRingBus bus(8, 1, RingDirection::Forward);
  for (int c = 0; c < 8; ++c) {
    ASSERT_TRUE(bus.can_inject(c));
    bus.inject(c, (c + 1) % 8, static_cast<std::uint64_t>(c));
  }
  EXPECT_EQ(bus.in_flight(), 8);
  std::vector<BusDelivery> out;
  bus.tick(out);
  EXPECT_EQ(out.size(), 8u);  // all arrive together after one hop
}

TEST(RingBus, SixteenInFlightWithTwoCycleHops) {
  // The paper: 8 clusters x 2 cycles/hop -> 16 communications in flight.
  PipelinedRingBus bus(8, 2, RingDirection::Forward);
  std::vector<BusDelivery> out;
  for (int round = 0; round < 2; ++round) {
    for (int c = 0; c < 8; ++c) {
      ASSERT_TRUE(bus.can_inject(c)) << "round " << round;
      bus.inject(c, (c + 4) % 8, 1);
    }
    bus.tick(out);
  }
  EXPECT_EQ(bus.in_flight(), 16);
}

TEST(RingBus, UpstreamTrafficBlocksInjection) {
  PipelinedRingBus bus(4, 1, RingDirection::Forward);
  bus.inject(0, 2, 7);  // will pass through cluster 1
  std::vector<BusDelivery> out;
  bus.tick(out);  // datum now entering segment at cluster 1
  EXPECT_FALSE(bus.can_inject(1));
  EXPECT_TRUE(bus.can_inject(0));
  bus.tick(out);  // datum delivered at 2
  EXPECT_TRUE(bus.can_inject(1));
}

TEST(RingBus, OccupancyStats) {
  PipelinedRingBus bus(4, 1, RingDirection::Forward);
  bus.inject(0, 1, 1);
  tick(bus, 2);
  EXPECT_EQ(bus.injections(), 1u);
  EXPECT_EQ(bus.ticks(), 2u);
  EXPECT_EQ(bus.busy_slot_cycles(), 1u);  // occupied during one tick only
}

// idle_ticks(n) is n tick() calls on an empty bus: the same state, byte
// for byte, so later traffic behaves identically.  Covers both directions
// and frame wrap-around (n larger than the slot count).
TEST(RingBus, IdleTicksEqualSingleTicks) {
  for (const RingDirection dir :
       {RingDirection::Forward, RingDirection::Backward}) {
    for (const int cycles : {1, 5, 16, 37}) {
      PipelinedRingBus stepped(8, 2, dir);
      PipelinedRingBus skipped(8, 2, dir);
      EXPECT_TRUE(tick(stepped, cycles).empty());
      skipped.idle_ticks(static_cast<std::uint64_t>(cycles));
      CheckpointWriter stepped_state;
      CheckpointWriter skipped_state;
      stepped_state.save(stepped);
      skipped_state.save(skipped);
      EXPECT_EQ(skipped_state.bytes(), stepped_state.bytes())
          << "cycles=" << cycles;
      // Traffic injected now must land at the same cycle on both.
      stepped.inject(1, 6, 7);
      skipped.inject(1, 6, 7);
      for (int cycle = 1; cycle <= 16; ++cycle) {
        EXPECT_EQ(tick(stepped, 1).size(), tick(skipped, 1).size())
            << "cycles=" << cycles << " cycle=" << cycle;
      }
      EXPECT_EQ(skipped.in_flight(), 0);
    }
  }
}

TEST(BusSet, RingOrientationAllForward) {
  BusSet buses(8, 2, BusOrientation::AllForward, 1);
  EXPECT_EQ(buses.min_distance(0, 7), 7);  // no backward shortcut
  EXPECT_EQ(buses.min_distance(7, 0), 1);
}

TEST(BusSet, ConvOppositeDirectionsShortenDistance) {
  BusSet buses(8, 2, BusOrientation::OppositeDirections, 1);
  EXPECT_EQ(buses.min_distance(0, 7), 1);  // backward bus
  EXPECT_EQ(buses.min_distance(0, 3), 3);  // forward bus
  EXPECT_EQ(buses.min_distance(0, 4), 4);  // tie
}

TEST(BusSet, InjectReturnsHopCount) {
  BusSet buses(8, 2, BusOrientation::OppositeDirections, 1);
  const auto hops = buses.try_inject(0, 6, 5);
  ASSERT_TRUE(hops.has_value());
  EXPECT_EQ(*hops, 2);  // backward: 0 -> 7 -> 6
}

TEST(BusSet, ContentionWhenPreferredBusBusy) {
  BusSet buses(4, 1, BusOrientation::AllForward, 1);
  ASSERT_TRUE(buses.try_inject(0, 2, 1).has_value());
  // Same source, same cycle: entry slot occupied.
  EXPECT_FALSE(buses.try_inject(0, 3, 2).has_value());
  std::vector<BusDelivery> out;
  buses.tick(out);
  EXPECT_TRUE(buses.try_inject(0, 3, 2).has_value());
}

TEST(BusSet, TwoForwardBusesDoubleBandwidth) {
  BusSet buses(4, 2, BusOrientation::AllForward, 1);
  EXPECT_TRUE(buses.try_inject(0, 2, 1).has_value());
  EXPECT_TRUE(buses.try_inject(0, 3, 2).has_value());   // second bus
  EXPECT_FALSE(buses.try_inject(0, 1, 3).has_value());  // both busy
}

TEST(BusSet, DeliveriesAggregateAcrossBuses) {
  BusSet buses(4, 2, BusOrientation::OppositeDirections, 1);
  ASSERT_TRUE(buses.try_inject(0, 1, 10).has_value());  // forward
  ASSERT_TRUE(buses.try_inject(0, 3, 20).has_value());  // backward
  std::vector<BusDelivery> out;
  buses.tick(out);
  ASSERT_EQ(out.size(), 2u);
}

TEST(RingBus, ManyRandomInjectionsAllDelivered) {
  // Property: every injected datum is delivered exactly once, at the right
  // cluster, after distance*hop cycles.
  PipelinedRingBus bus(8, 2, RingDirection::Forward);
  int delivered = 0;
  int injected = 0;
  std::vector<BusDelivery> out;
  for (int cycle = 0; cycle < 500; ++cycle) {
    out.clear();
    bus.tick(out);
    for (const BusDelivery& delivery : out) {
      EXPECT_EQ(delivery.payload % 8, static_cast<std::uint64_t>(
                                          delivery.dst_cluster));
      ++delivered;
    }
    const int src = cycle % 8;
    const int dst = (src + 1 + (cycle % 7)) % 8;
    if (src != dst && bus.can_inject(src)) {
      bus.inject(src, dst, static_cast<std::uint64_t>(dst));
      ++injected;
    }
  }
  // Drain.
  for (int cycle = 0; cycle < 32; ++cycle) {
    out.clear();
    bus.tick(out);
    delivered += static_cast<int>(out.size());
  }
  EXPECT_EQ(delivered, injected);
  EXPECT_EQ(bus.in_flight(), 0);
}

}  // namespace
}  // namespace ringclu
