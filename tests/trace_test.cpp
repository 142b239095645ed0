// Tests for src/trace: kernel DSL validation, the synthetic generator's
// dependence structure, address patterns, branch patterns, determinism,
// and the 26-benchmark suite.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "trace/synth/kernels.h"
#include "trace/synth/program.h"
#include "trace/synth/suite.h"
#include "trace/trace_stats.h"

namespace ringclu {
namespace {

TEST(KernelBuilder, BuildsValidDaxpy) {
  const Kernel kernel = kernels::daxpy(1 << 20);
  EXPECT_EQ(kernel.name, "daxpy");
  EXPECT_EQ(kernel.body.size(), 6u);  // i, 2 loads, mult, add, store
  EXPECT_LE(kernel.register_demand(RegClass::Int), kArchRegsPerClass);
  EXPECT_LE(kernel.register_demand(RegClass::Fp), kArchRegsPerClass);
}

TEST(Kernels, AllValidateAndFitRegisterBudget) {
  for (const std::string_view name : kernels::all_kernel_names()) {
    const Kernel kernel = kernels::make_by_name(name);
    EXPECT_LE(kernel.register_demand(RegClass::Int), kArchRegsPerClass)
        << name;
    EXPECT_LE(kernel.register_demand(RegClass::Fp), kArchRegsPerClass)
        << name;
    EXPECT_FALSE(kernel.body.empty()) << name;
  }
}

TEST(KernelInstance, LoopCarriedDependenceUsesPreviousIterationRegister) {
  // int_chain's first op is x = f(x_prev): dst register of iteration k
  // must equal src register of iteration k+1.
  KernelInstance instance(kernels::int_chain(0.2), 0x1000, 0x10000000);
  Rng rng(1);
  std::vector<MicroOp> ops;
  instance.emit_iteration(ops, rng, false);
  const std::size_t per_iter = ops.size();
  instance.emit_iteration(ops, rng, false);
  // Sizes may differ due to the skippable hammock; find first op each iter.
  const MicroOp& first0 = ops[0];
  const MicroOp& first1 = ops[per_iter];
  EXPECT_EQ(first1.src[0], first0.dst);
}

TEST(KernelInstance, BackedgeTakenExceptOnExit) {
  KernelInstance instance(kernels::int_wide(), 0x1000, 0x10000000);
  Rng rng(1);
  std::vector<MicroOp> ops;
  instance.emit_iteration(ops, rng, /*exit_iteration=*/false);
  EXPECT_TRUE(ops.back().is_branch());
  EXPECT_TRUE(ops.back().taken);
  EXPECT_EQ(ops.back().target, 0x1000u);  // back to the top
  ops.clear();
  instance.emit_iteration(ops, rng, /*exit_iteration=*/true);
  EXPECT_FALSE(ops.back().taken);
}

TEST(KernelInstance, SequentialStreamStridesAndWraps) {
  const std::uint64_t ws = 1024;
  KernelInstance instance(kernels::copy_loop(ws), 0x1000, 0x10000000);
  Rng rng(1);
  std::vector<MicroOp> ops;
  std::vector<std::uint64_t> load_addrs;
  for (int it = 0; it < 200; ++it) {
    ops.clear();
    instance.emit_iteration(ops, rng, false);
    for (const MicroOp& op : ops) {
      if (op.is_load()) load_addrs.push_back(op.mem_addr);
    }
  }
  ASSERT_GE(load_addrs.size(), 130u);
  EXPECT_EQ(load_addrs[1] - load_addrs[0], 8u);  // stride
  // Wraps within the working set.
  for (const std::uint64_t addr : load_addrs) {
    EXPECT_LT(addr - load_addrs[0], ws);
  }
}

TEST(KernelInstance, RandomStreamStaysInWorkingSet) {
  const std::uint64_t ws = 4096;
  KernelInstance instance(kernels::hash_lookup(ws, 0.2), 0x1000, 0x20000000);
  Rng rng(2);
  std::vector<MicroOp> ops;
  for (int it = 0; it < 100; ++it) {
    instance.emit_iteration(ops, rng, false);
  }
  for (const MicroOp& op : ops) {
    if (!op.is_load()) continue;
    EXPECT_GE(op.mem_addr, 0x20000000u);
    EXPECT_LT(op.mem_addr, 0x20000000u + ws);
  }
}

TEST(KernelInstance, HammockSkipsOpsWhenTaken) {
  // With taken probability 1.0 the op after the branch never appears.
  Kernel kernel = kernels::int_chain(1.0);
  KernelInstance instance(kernel, 0x1000, 0x30000000);
  Rng rng(3);
  std::vector<MicroOp> ops;
  instance.emit_iteration(ops, rng, false);
  // body has 5 templates (3 alu, branch, skipped alu) + backedge; the
  // skipped ALU is gone.
  EXPECT_EQ(ops.size(), 5u);
}

TEST(KernelInstance, PatternBranchIsPeriodic) {
  KernelInstance instance(kernels::bitboard(), 0x1000, 0x40000000);
  Rng rng(4);
  std::vector<bool> outcomes;
  for (int it = 0; it < 16; ++it) {
    std::vector<MicroOp> ops;
    instance.emit_iteration(ops, rng, false);
    // The pattern branch is the second-to-last op (backedge is last).
    outcomes.push_back(ops[ops.size() - 2].taken);
  }
  // pattern_branch(4, 1): taken on iterations 0, 4, 8, 12.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(outcomes[static_cast<std::size_t>(i)], i % 4 == 0) << i;
  }
}

TEST(SyntheticProgram, DeterministicAcrossInstances) {
  auto a = make_benchmark_trace("gzip", 42);
  auto b = make_benchmark_trace("gzip", 42);
  MicroOp opa, opb;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(a->next(opa));
    ASSERT_TRUE(b->next(opb));
    ASSERT_EQ(opa.pc, opb.pc);
    ASSERT_EQ(opa.cls, opb.cls);
    ASSERT_EQ(opa.mem_addr, opb.mem_addr);
    ASSERT_EQ(opa.taken, opb.taken);
  }
}

TEST(SyntheticProgram, ResetReplaysIdentically) {
  auto trace = make_benchmark_trace("twolf", 42);
  std::vector<std::uint64_t> first;
  MicroOp op;
  for (int i = 0; i < 2000; ++i) {
    trace->next(op);
    first.push_back(op.pc ^ op.mem_addr);
  }
  trace->reset();
  for (int i = 0; i < 2000; ++i) {
    trace->next(op);
    EXPECT_EQ(op.pc ^ op.mem_addr, first[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(SyntheticProgram, DifferentSeedsDiffer) {
  auto a = make_benchmark_trace("parser", 1);
  auto b = make_benchmark_trace("parser", 2);
  MicroOp opa, opb;
  int differences = 0;
  for (int i = 0; i < 2000; ++i) {
    a->next(opa);
    b->next(opb);
    if (opa.pc != opb.pc || opa.mem_addr != opb.mem_addr) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(SyntheticProgram, CallsAppearWhenConfigured) {
  auto trace = make_benchmark_trace("crafty", 42);  // use_calls = true
  MicroOp op;
  bool saw_call = false;
  bool saw_return = false;
  for (int i = 0; i < 20000; ++i) {
    trace->next(op);
    if (op.branch_kind == BranchKind::Call) saw_call = true;
    if (op.branch_kind == BranchKind::Return) saw_return = true;
  }
  EXPECT_TRUE(saw_call);
  EXPECT_TRUE(saw_return);
}

TEST(Suite, TwentySixBenchmarksWithPaperSplit) {
  const auto suite = spec2000_benchmarks();
  EXPECT_EQ(suite.size(), 26u);
  int fp = 0;
  std::set<std::string_view> names;
  for (const BenchmarkDesc& desc : suite) {
    names.insert(desc.name);
    if (desc.is_fp) ++fp;
  }
  EXPECT_EQ(fp, 14);                 // 14 FP programs
  EXPECT_EQ(suite.size() - fp, 12u);  // 12 INT programs
  EXPECT_EQ(names.size(), 26u);       // all distinct
  EXPECT_TRUE(names.count("swim"));
  EXPECT_TRUE(names.count("gcc"));
}

class SuiteMixTest : public ::testing::TestWithParam<BenchmarkDesc> {};

TEST_P(SuiteMixTest, MixMatchesClassification) {
  const BenchmarkDesc& desc = GetParam();
  auto trace = make_benchmark_trace(desc.name, 42);
  const TraceMix mix = profile_trace(*trace, 30000);
  EXPECT_EQ(mix.total, 30000u);
  if (desc.is_fp) {
    EXPECT_GT(mix.fp_fraction(), 0.10) << desc.name;
  } else {
    EXPECT_LT(mix.fp_fraction(), 0.15) << desc.name;
  }
  // Universal sanity: some memory traffic, some branches, neither absurd.
  EXPECT_GT(mix.mem_fraction(), 0.02) << desc.name;
  EXPECT_LT(mix.mem_fraction(), 0.75) << desc.name;
  EXPECT_GT(mix.branch_fraction(), 0.02) << desc.name;
  EXPECT_LT(mix.branch_fraction(), 0.45) << desc.name;
  EXPECT_GT(mix.mean_dep_distance(), 0.5) << desc.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteMixTest,
    ::testing::ValuesIn(spec2000_benchmarks().begin(),
                        spec2000_benchmarks().end()),
    [](const ::testing::TestParamInfo<BenchmarkDesc>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(TraceStats, CountsClasses) {
  auto trace = make_benchmark_trace("swim", 42);
  const TraceMix mix = profile_trace(*trace, 10000);
  std::uint64_t total = 0;
  for (const std::uint64_t count : mix.by_class) total += count;
  EXPECT_EQ(total, mix.total);
  EXPECT_FALSE(mix.summary().empty());
}

}  // namespace
}  // namespace ringclu
