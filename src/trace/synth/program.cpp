#include "trace/synth/program.h"

#include <algorithm>

#include "util/assert.h"

namespace ringclu {
namespace {

constexpr std::uint64_t kCodeOrigin = 0x0040'0000;
constexpr std::uint64_t kDataOrigin = 0x1000'0000;
constexpr std::uint64_t kDataRegion = 0x0100'0000;  // 16 MiB per stream
constexpr std::uint64_t kPageBytes = 4096;

/// Deterministic address scramble for pointer-chase streams.
constexpr std::uint64_t scramble(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

KernelInstance::KernelInstance(const Kernel& kernel, std::uint64_t code_base,
                               std::uint64_t data_base)
    : kernel_(kernel), code_base_(code_base) {
  // Rotation-window register assignment, per class: invariant registers
  // first, then one window per defined value.
  int next_reg[kNumRegClasses] = {kernel.int_invariants,
                                  kernel.fp_invariants};
  int max_vid = -1;
  for (const KernelOp& op : kernel.body) {
    max_vid = std::max(max_vid, static_cast<int>(op.dst_vid));
  }
  value_regs_.resize(static_cast<std::size_t>(max_vid + 1));

  for (const KernelOp& op : kernel.body) {
    if (op.dst_vid < 0) continue;
    int lag = 0;
    for (const KernelOp& reader : kernel.body) {
      for (const SymOperand* operand : {&reader.src0, &reader.src1}) {
        if (operand->kind == SymOperand::Kind::Value &&
            operand->index == op.dst_vid) {
          lag = std::max(lag, static_cast<int>(operand->lag));
        }
      }
    }
    ValueRegs& regs = value_regs_[static_cast<std::size_t>(op.dst_vid)];
    regs.cls = op.dst_cls;
    regs.window = static_cast<std::uint8_t>(lag + 1);
    int& cursor = next_reg[static_cast<std::size_t>(op.dst_cls)];
    regs.base = static_cast<std::uint8_t>(cursor);
    cursor += regs.window;
    RINGCLU_ASSERT(cursor <= kArchRegsPerClass);
  }

  // One address-stream state per body op (memory ops use theirs).
  op_state_.resize(kernel.body.size());
  std::uint64_t stream_base = data_base;
  for (std::size_t i = 0; i < kernel.body.size(); ++i) {
    const KernelOp& op = kernel.body[i];
    if (!op_is_mem(op.cls)) continue;
    OpState& state = op_state_[i];
    const std::uint64_t align = op.mem.access_size;
    state.base = stream_base;
    state.chase_cursor = stream_base;
    state.slots = std::max<std::uint64_t>(1, op.mem.working_set / align);
    state.page_slots = kPageBytes / align;
    stream_base += kDataRegion;
  }
}

void KernelInstance::begin_visit() {
  iteration_ = 0;
  for (ValueRegs& regs : value_regs_) regs.slot = 0;
  for (OpState& state : op_state_) state.phase = 0;
}

void KernelInstance::end_iteration() {
  ++iteration_;
  for (ValueRegs& regs : value_regs_) {
    regs.slot = regs.slot + 1 == regs.window
                    ? 0
                    : static_cast<std::uint8_t>(regs.slot + 1);
  }
  for (std::size_t i = 0; i < op_state_.size(); ++i) {
    const int period = kernel_.body[i].branch.pattern_period;
    if (kernel_.body[i].cls != OpClass::Branch || period == 0) continue;
    int& phase = op_state_[i].phase;
    phase = phase + 1 == period ? 0 : phase + 1;
  }
}

RegId KernelInstance::resolve(const SymOperand& operand) const {
  switch (operand.kind) {
    case SymOperand::Kind::None:
      return RegId::invalid();
    case SymOperand::Kind::Invariant:
      return RegId::make(operand.invariant_class(), operand.invariant_slot());
    case SymOperand::Kind::Value: {
      const ValueRegs& regs =
          value_regs_[static_cast<std::size_t>(operand.index)];
      // Register that held (or will hold) the value defined `lag`
      // iterations back: slot (iteration_ - lag) % window.  Early iterations
      // read pre-loop register contents (slot 0), which is correct dataflow
      // for a loop-carried dependence.  lag < window by construction.
      const int lag = operand.lag;
      if (iteration_ < static_cast<std::uint64_t>(lag)) {
        return RegId::make(regs.cls, regs.base);
      }
      const int offset =
          regs.slot >= lag ? regs.slot - lag : regs.slot + regs.window - lag;
      return RegId::make(regs.cls, regs.base + offset);
    }
  }
  return RegId::invalid();
}

std::uint64_t KernelInstance::next_address(std::size_t op_index,
                                           const MemStreamSpec& mem,
                                           Rng& rng) {
  OpState& state = op_state_[op_index];
  const std::uint64_t align = mem.access_size;
  switch (mem.pattern) {
    case MemPattern::SeqStride: {
      const std::uint64_t addr = state.base + state.seq_offset;
      state.seq_offset += mem.stride;
      // Wrap within the working set to keep streams bounded.
      if (state.seq_offset >= mem.working_set) state.seq_offset = 0;
      return addr;
    }
    case MemPattern::Random:
      return state.base + rng.uniform(state.slots) * align;
    case MemPattern::Chase: {
      // Deterministic chain: each address is a scramble of the previous,
      // confined to the working set.  The *data* dependence comes from the
      // kernel's lag-1 self-reference; this supplies matching addresses.
      state.chase_cursor =
          state.base + (scramble(state.chase_cursor) % state.slots) * align;
      return state.chase_cursor;
    }
    case MemPattern::Gather: {
      std::uint64_t addr;
      if (state.last_page != 0 && rng.bernoulli(0.8)) {
        addr = state.last_page + rng.uniform(state.page_slots) * align;
      } else {
        addr = state.base + rng.uniform(state.slots) * align;
        state.last_page = addr & ~(kPageBytes - 1);
      }
      return addr;
    }
  }
  RINGCLU_UNREACHABLE("unknown memory pattern");
}

void KernelInstance::emit_iteration(std::vector<MicroOp>& out, Rng& rng,
                                    bool exit_iteration) {
  const std::vector<KernelOp>& body = kernel_.body;
  int skip = 0;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (skip > 0) {
      --skip;
      continue;
    }
    const KernelOp& templ = body[i];
    MicroOp& op = out.emplace_back();
    op.pc = code_base_ + i * 4;
    op.cls = templ.cls;
    op.src[0] = resolve(templ.src0);
    op.src[1] = resolve(templ.src1);
    if (templ.dst_vid >= 0) {
      // The destination register is this iteration's window slot.
      const ValueRegs& regs =
          value_regs_[static_cast<std::size_t>(templ.dst_vid)];
      op.dst = RegId::make(regs.cls, regs.base + regs.slot);
    }

    if (op_is_mem(templ.cls)) {
      op.mem_addr = next_address(i, templ.mem, rng);
      op.mem_size = templ.mem.access_size;
    } else if (templ.cls == OpClass::Branch) {
      const BranchSpec& spec = templ.branch;
      op.branch_kind = BranchKind::Conditional;
      bool taken;
      if (spec.pattern_period > 0) {
        taken = op_state_[i].phase < spec.pattern_taken;
      } else {
        taken = rng.bernoulli(spec.taken_prob);
      }
      op.taken = taken;
      const std::uint64_t fallthrough = op.pc + 4;
      op.target = taken ? fallthrough + 4ull * static_cast<std::uint64_t>(
                                                   spec.skip_ops)
                        : fallthrough;
      if (taken) skip = spec.skip_ops;
    }
  }

  // Backedge: taken on every iteration except the exit.
  MicroOp& backedge = out.emplace_back();
  backedge.pc = code_base_ + body.size() * 4;
  backedge.cls = OpClass::Branch;
  backedge.branch_kind = BranchKind::Conditional;
  backedge.taken = !exit_iteration;
  backedge.target = backedge.taken ? code_base_ : backedge.pc + 4;

  end_iteration();
}

SyntheticProgram::SyntheticProgram(ProgramSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      seed_(derive_seed(seed, fnv1a(spec_.name))),
      rng_(seed_) {
  RINGCLU_EXPECTS(!spec_.segments.empty());
  std::uint64_t code_cursor = kCodeOrigin;
  std::uint64_t data_cursor = kDataOrigin;
  for (const SegmentSpec& segment : spec_.segments) {
    segment.kernel.validate();
    RINGCLU_EXPECTS(segment.min_iters >= 1 &&
                    segment.min_iters <= segment.max_iters);
    call_sites_.push_back(code_cursor);
    code_cursor += 64;  // dispatcher slot
    instances_.emplace_back(segment.kernel, code_cursor, data_cursor);
    code_cursor += segment.kernel.code_bytes() + 64 + spec_.code_spread;
    // Each memory op reserves its own 16 MiB region.
    std::size_t mem_ops = 0;
    for (const KernelOp& op : segment.kernel.body) {
      if (op_is_mem(op.cls)) ++mem_ops;
    }
    data_cursor += kDataRegion * std::max<std::size_t>(1, mem_ops);
    weights_.push_back(segment.weight);
  }
  buffer_.reserve(4096);
}

void SyntheticProgram::do_reset() {
  rng_ = Rng(seed_);
  buffer_.clear();
  cursor_ = 0;
  std::vector<KernelInstance> fresh;
  fresh.reserve(instances_.size());
  std::uint64_t code_cursor = kCodeOrigin;
  std::uint64_t data_cursor = kDataOrigin;
  for (const SegmentSpec& segment : spec_.segments) {
    code_cursor += 64;
    fresh.emplace_back(segment.kernel, code_cursor, data_cursor);
    code_cursor += segment.kernel.code_bytes() + 64 + spec_.code_spread;
    std::size_t mem_ops = 0;
    for (const KernelOp& op : segment.kernel.body) {
      if (op_is_mem(op.cls)) ++mem_ops;
    }
    data_cursor += kDataRegion * std::max<std::size_t>(1, mem_ops);
  }
  instances_ = std::move(fresh);
}

void SyntheticProgram::refill() {
  buffer_.clear();
  cursor_ = 0;

  const std::size_t index = rng_.weighted_pick(
      std::span<const double>(weights_.data(), weights_.size()));
  KernelInstance& instance = instances_[index];
  const SegmentSpec& segment = spec_.segments[index];

  if (spec_.use_calls) {
    MicroOp call;
    call.pc = call_sites_[index];
    call.cls = OpClass::Branch;
    call.branch_kind = BranchKind::Call;
    call.taken = true;
    call.target = instance.code_base();
    buffer_.push_back(call);
  }

  const int iters = static_cast<int>(
      rng_.uniform_range(segment.min_iters, segment.max_iters));
  instance.begin_visit();
  for (int it = 0; it < iters; ++it) {
    instance.emit_iteration(buffer_, rng_, it + 1 == iters);
  }

  if (spec_.use_calls) {
    MicroOp ret;
    ret.pc = instance.code_end();
    ret.cls = OpClass::Branch;
    ret.branch_kind = BranchKind::Return;
    ret.taken = true;
    ret.target = call_sites_[index] + 4;
    buffer_.push_back(ret);
  }
}

bool SyntheticProgram::produce(MicroOp& out) {
  if (cursor_ >= buffer_.size()) refill();
  out = buffer_[cursor_++];
  return true;
}

}  // namespace ringclu
