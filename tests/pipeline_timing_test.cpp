// Cycle-accurate timing tests using hand-crafted instruction streams.
// These pin down the mechanisms the paper's results rest on: back-to-back
// dependent issue through the ring bypass (and Conv's intra-cluster
// bypass), functional-unit latencies, non-pipelined divides, and the cost
// of communications.

#include <gtest/gtest.h>

#include "core/arch_config.h"
#include "core/processor.h"
#include "trace/vector_source.h"

namespace ringclu {
namespace {

MicroOp alu(int dst, int src0 = -1, int src1 = -1,
            OpClass cls = OpClass::IntAlu, std::uint64_t pc = 0x1000) {
  MicroOp op;
  op.pc = pc;
  op.cls = cls;
  if (dst >= 0) {
    op.dst = op_unit(cls) == UnitKind::Fp ? RegId::fp_reg(dst)
                                          : RegId::int_reg(dst);
  }
  const RegClass src_cls =
      op_unit(cls) == UnitKind::Fp ? RegClass::Fp : RegClass::Int;
  if (src0 >= 0) op.src[0] = RegId::make(src_cls, src0);
  if (src1 >= 0) op.src[1] = RegId::make(src_cls, src1);
  return op;
}

/// Runs a looped sequence and returns steady-state cycles-per-iteration.
double cycles_per_iteration(const std::string& preset,
                            std::vector<MicroOp> body,
                            std::uint64_t iterations = 4000) {
  // Give each op a distinct PC so the I-cache behaves.
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i].pc = 0x1000 + 4 * i;
  }
  const std::uint64_t per_iter = body.size();
  VectorTraceSource trace(std::move(body), /*loop=*/true, "crafted");
  Processor cpu(ArchConfig::preset(preset));
  const SimResult result =
      cpu.run(trace, per_iter * 200, per_iter * iterations);
  return static_cast<double>(result.counters.cycles) /
         static_cast<double>(iterations);
}

// --- Dependent-chain throughput: the back-to-back bypass ------------------

TEST(PipelineTiming, RingSerialAluChainRunsOnePerCycle) {
  // x1 = f(x0); x2 = f(x1); ... a pure serial chain.  On the Ring machine
  // consecutive instructions land in consecutive clusters, and the
  // neighbor bypass must sustain one ALU op per cycle.
  std::vector<MicroOp> body;
  for (int i = 0; i < 8; ++i) {
    body.push_back(alu((i + 1) % 16, i % 16));
  }
  // Close the loop: op 0 of the next iteration reads reg 8... rebuild so
  // the chain wraps: reg k+1 = f(reg k), with reg 0 = f(reg 8).
  body.clear();
  for (int i = 0; i < 8; ++i) body.push_back(alu(i + 1, i));
  body.push_back(alu(0, 8));
  const double cycles = cycles_per_iteration("Ring_8clus_1bus_2IW", body);
  EXPECT_NEAR(cycles, 9.0, 0.8);  // 9 chained 1-cycle ops per iteration
}

TEST(PipelineTiming, ConvSerialChainPaysForBalanceMigrations) {
  // The same serial chain on Conv: dependence steering would keep it in
  // one cluster at 1 op/cycle, but the DCOUNT override periodically forces
  // the chain to the least-loaded cluster, and the migrating link then
  // waits for a bus transfer on the critical path.  The Ring machine
  // sustains the chain at full speed precisely because its balanced
  // placement needs no migrations — the paper's trade-off, cycle-accurate.
  std::vector<MicroOp> body;
  for (int i = 0; i < 8; ++i) body.push_back(alu(i + 1, i));
  body.push_back(alu(0, 8));
  const double conv_cycles =
      cycles_per_iteration("Conv_8clus_1bus_2IW", body);
  const double ring_cycles =
      cycles_per_iteration("Ring_8clus_1bus_2IW", body);
  EXPECT_NEAR(ring_cycles, 9.0, 0.8);       // back-to-back, no penalty
  EXPECT_GT(conv_cycles, ring_cycles + 1.0);  // migrations cost cycles
  EXPECT_LT(conv_cycles, 3.0 * ring_cycles);  // but it is not pathological
}

TEST(PipelineTiming, FpMultChainPaysFourCyclesPerLink) {
  // Chained FP multiplies: latency 4 each, fully exposed.
  std::vector<MicroOp> body;
  for (int i = 0; i < 4; ++i) {
    body.push_back(alu(i + 1, i, -1, OpClass::FpMult));
  }
  body.push_back(alu(0, 4, -1, OpClass::FpMult));
  const double cycles = cycles_per_iteration("Ring_8clus_1bus_2IW", body);
  EXPECT_NEAR(cycles, 5 * 4.0, 1.5);
}

TEST(PipelineTiming, IndependentWorkHidesChainLatency) {
  // One serial FP-add chain (2 cycles/link) plus plenty of independent
  // integer work: the integer work must fill the bubbles.
  std::vector<MicroOp> body;
  body.push_back(alu(0, 0, -1, OpClass::FpAdd));  // fp chain link
  for (int i = 4; i < 10; ++i) body.push_back(alu(i));  // independent
  const double serial_only =
      cycles_per_iteration("Ring_8clus_1bus_2IW",
                           {alu(0, 0, -1, OpClass::FpAdd)});
  const double with_filler = cycles_per_iteration("Ring_8clus_1bus_2IW", body);
  // The chain alone costs 2 cycles/iteration; the filler should ride along
  // nearly for free.
  EXPECT_NEAR(serial_only, 2.0, 0.3);
  EXPECT_LT(with_filler, serial_only + 0.8);
}

TEST(PipelineTiming, NonPipelinedDivideSerializesItsUnit) {
  // Back-to-back *independent* integer divides on a 1-wide cluster
  // configuration: each occupies the mult/div unit for 20 cycles, but
  // different divides can issue in different clusters; a serial
  // *dependent* divide chain cannot and pays the full 20 per link.
  std::vector<MicroOp> chain;
  chain.push_back(alu(1, 0, -1, OpClass::IntDiv));
  chain.push_back(alu(0, 1, -1, OpClass::IntDiv));
  const double cycles =
      cycles_per_iteration("Ring_8clus_1bus_2IW", chain, 1500);
  EXPECT_NEAR(cycles, 40.0, 2.0);
}

TEST(PipelineTiming, WideIndependentStreamBoundByDispatchWidth) {
  // 16 independent ALU ops per iteration; the 8-wide front end is the
  // bottleneck: >= 2 cycles per iteration.
  std::vector<MicroOp> body;
  for (int i = 0; i < 16; ++i) body.push_back(alu(i % 16));
  const double cycles = cycles_per_iteration("Ring_8clus_1bus_2IW", body);
  EXPECT_GE(cycles, 2.0 - 0.05);
  EXPECT_LE(cycles, 3.0);
}

// --- Communication costs ---------------------------------------------------

TEST(PipelineTiming, DiamondDependenceCostsOneCommOnRing) {
  // a -> (b, c) -> d: b and c are steered to the cluster after a's home;
  // one of d's operands then needs a copy.  The iteration time must stay
  // finite and small; the structure must generate at most one comm per
  // iteration on the Ring machine.
  std::vector<MicroOp> body;
  body.push_back(alu(1, 0));      // a = f(prev d)
  body.push_back(alu(2, 1));      // b = f(a)
  body.push_back(alu(3, 1));      // c = f(a)
  body.push_back(alu(0, 2, 3));   // d = f(b, c)
  for (std::size_t i = 0; i < body.size(); ++i) body[i].pc = 0x1000 + 4 * i;
  VectorTraceSource trace(std::move(body), true, "diamond");
  Processor cpu(ArchConfig::preset("Ring_8clus_1bus_2IW"));
  const SimResult result = cpu.run(trace, 400, 40000);
  // Ring property: a two-source instruction is always placed where one
  // operand is mapped, so at most one comm per d (and none for a, b, c).
  EXPECT_LE(result.comms_per_instr(), 0.25 + 0.01);
}

TEST(PipelineTiming, RingNeverNeedsTwoCommsPerInstruction) {
  // Stress many two-source instructions with operands produced far apart;
  // Ring's steering must still cap communications at one per instruction.
  std::vector<MicroOp> body;
  for (int i = 0; i < 6; ++i) body.push_back(alu(i + 1, i));  // spread chain
  body.push_back(alu(8, 1, 5));
  body.push_back(alu(9, 2, 6));
  body.push_back(alu(0, 8, 9));
  for (std::size_t i = 0; i < body.size(); ++i) body[i].pc = 0x1000 + 4 * i;
  VectorTraceSource trace(std::move(body), true, "two_src_stress");
  Processor cpu(ArchConfig::preset("Ring_8clus_1bus_2IW"));
  const SimResult result = cpu.run(trace, 500, 30000);
  // <= 3 two-source ops per 9-op iteration -> comms/instr <= 1/3 (plus a
  // small tolerance for comms straddling the measurement-window edges).
  EXPECT_LT(result.comms_per_instr(), 1.0 / 3.0 + 0.005);
}

// --- Memory timing -----------------------------------------------------------

TEST(PipelineTiming, LoadUseLatencyVisibleInChain) {
  // p = load [p]: a pointer-chase hitting the L1 every time.
  // Per link: agen 1 + to-LSQ 1 + L1 2 + return 1 = 5 cycles minimum.
  MicroOp load;
  load.cls = OpClass::Load;
  load.dst = RegId::int_reg(1);
  load.src[0] = RegId::int_reg(1);
  load.mem_addr = 0x100;  // same address every time: always L1-resident
  load.mem_size = 8;
  const double cycles =
      cycles_per_iteration("Ring_8clus_1bus_2IW", {load}, 2000);
  EXPECT_NEAR(cycles, 5.0, 1.0);
}

TEST(PipelineTiming, StoreToLoadForwardingBeatsCache) {
  // store [A] = x; y = load [A]: the load must forward from the LSQ.
  MicroOp store;
  store.cls = OpClass::Store;
  store.src[0] = RegId::int_reg(0);
  store.src[1] = RegId::int_reg(2);
  store.mem_addr = 0x2000;
  store.mem_size = 8;
  MicroOp load;
  load.cls = OpClass::Load;
  load.dst = RegId::int_reg(3);
  load.src[0] = RegId::int_reg(0);
  load.mem_addr = 0x2000;
  load.mem_size = 8;
  VectorTraceSource trace({store, load}, true, "fwd");
  Processor cpu(ArchConfig::preset("Ring_8clus_1bus_2IW"));
  const SimResult result = cpu.run(trace, 200, 20000);
  EXPECT_GT(result.counters.load_forwards, 8000u);
}

TEST(PipelineTiming, PartialOverlapLoadWaitsForTheStoreToRetire) {
  // x = load [B] (a cold miss); store [A] = x; y = load [A+off]; then
  // independent work.  The store's address is known at once, its data only
  // after the miss, so it retires late.  At off = 4 the load overlaps half
  // the store: it can neither forward nor pass it, parks on it, and only
  // the store's release at commit wakes it (no later store exists to wake
  // it any other way).  At off = 0 it forwards from the store instead.
  const auto run = [](std::uint64_t offset) {
    MicroOp miss;
    miss.cls = OpClass::Load;
    miss.dst = RegId::int_reg(2);
    miss.src[0] = RegId::int_reg(1);
    miss.mem_addr = 0x90000;
    miss.mem_size = 8;
    MicroOp store;
    store.cls = OpClass::Store;
    store.src[0] = RegId::int_reg(0);
    store.src[1] = RegId::int_reg(2);
    store.mem_addr = 0x2000;
    store.mem_size = 8;
    MicroOp load;
    load.cls = OpClass::Load;
    load.dst = RegId::int_reg(3);
    load.src[0] = RegId::int_reg(0);
    load.mem_addr = 0x2000 + offset;
    load.mem_size = 8;
    std::vector<MicroOp> ops{miss, store, load};
    for (int i = 0; i < 64; ++i) ops.push_back(alu(4 + i % 8));
    for (std::size_t i = 0; i < ops.size(); ++i) ops[i].pc = 0x1000 + 4 * i;
    VectorTraceSource trace(std::move(ops), /*loop=*/false, "overlap");
    Processor cpu(ArchConfig::preset("Ring_8clus_1bus_2IW"));
    return cpu.run(trace, 0, 1000000).counters;  // budget > stream
  };
  const SimCounters overlapping = run(4);
  EXPECT_EQ(overlapping.committed, 67u);  // drained, no hang
  EXPECT_EQ(overlapping.load_forwards, 0u);
  EXPECT_EQ(run(0).load_forwards, 1u);
}

// --- Branch timing -----------------------------------------------------------

TEST(PipelineTiming, MispredictsStallFetch) {
  // An unpredictable branch (outcome alternates against a 2-bit-counter
  // lattice as slowly as possible is actually predictable; use a
  // pseudo-random pattern instead) whose direction flips with period 3 —
  // gshare learns it, so compare against one with no pattern at all.
  std::vector<MicroOp> predictable;
  std::vector<MicroOp> hostile;
  for (int i = 0; i < 64; ++i) {
    MicroOp branch;
    branch.cls = OpClass::Branch;
    branch.branch_kind = BranchKind::Conditional;
    branch.pc = 0x1000 + 4 * static_cast<std::uint64_t>(i);
    branch.taken = false;
    branch.target = branch.pc + 4;
    predictable.push_back(branch);
    // Hostile: direction is a fixed pseudo-random per-slot pattern that
    // changes with the iteration via many distinct PCs aliasing... use a
    // simple LCG-derived static outcome; static outcomes are learnable, so
    // instead alternate taken along the unrolled body at prime stride.
    branch.taken = (i * 7 + 3) % 5 < 2;
    branch.target = branch.taken ? branch.pc + 8 : branch.pc + 4;
    hostile.push_back(branch);
  }
  const double fast =
      cycles_per_iteration("Ring_8clus_1bus_2IW", predictable, 300);
  const double slow = cycles_per_iteration("Ring_8clus_1bus_2IW", hostile, 300);
  // Static patterns are learnable, so both end fast; the never-taken body
  // must be at least as fast as the mixed one.
  EXPECT_LE(fast, slow + 0.5);
}

// --- Machine comparisons -----------------------------------------------------

TEST(PipelineTiming, FanOutShowsTheBalanceVsCommsTradeoff) {
  // One producer feeding seven consumers in the same iteration — the
  // paper's conflict in miniature.  Ring steers every consumer to the
  // value's home cluster (nearly zero communications, work still spreads
  // because the *results* land in the next cluster).  Conv's DCOUNT
  // override scatters the consumers to keep the load even, paying for it
  // with communications.
  std::vector<MicroOp> body;
  body.push_back(alu(1, 0));
  for (int i = 2; i < 9; ++i) body.push_back(alu(i, 1));
  body.push_back(alu(0, 8));
  for (std::size_t i = 0; i < body.size(); ++i) body[i].pc = 0x1000 + 4 * i;

  auto run = [&](const char* preset) {
    VectorTraceSource trace(body, true, "fanout");
    Processor cpu(ArchConfig::preset(preset));
    return cpu.run(trace, 500, 20000);
  };
  const SimResult conv = run("Conv_8clus_1bus_2IW");
  const SimResult ring = run("Ring_8clus_1bus_2IW");
  EXPECT_LT(ring.comms_per_instr(), 0.05);  // consumers read locally
  EXPECT_GT(conv.comms_per_instr(), ring.comms_per_instr());
  EXPECT_GT(conv.ipc(), 0.5);
  EXPECT_GT(ring.ipc(), 0.5);
}

TEST(PipelineTiming, VectorSourceEndOfStreamDrainsCleanly) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 500; ++i) ops.push_back(alu(i % 8));
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i].pc = 0x1000 + 4 * i;
  VectorTraceSource trace(std::move(ops), /*loop=*/false, "finite");
  Processor cpu(ArchConfig::preset("Ring_4clus_1bus_2IW"));
  const SimResult result = cpu.run(trace, 0, 1000000);  // budget > stream
  EXPECT_EQ(result.counters.committed, 500u);  // drained, no hang
}

}  // namespace
}  // namespace ringclu
