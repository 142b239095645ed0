#pragma once

/// \file micro_op.h
/// The dynamic-trace record consumed by the simulator: one micro-operation
/// with its architectural registers, memory address and branch outcome.

#include <cstdint>

#include "isa/op_class.h"
#include "isa/reg.h"
#include "util/static_vector.h"

namespace ringclu {

inline constexpr int kMaxSrcOperands = 2;

/// Branch flavor; calls/returns exercise the return-address stack.
enum class BranchKind : std::uint8_t { None, Conditional, Jump, Call, Return };

/// One dynamic micro-operation.  Traces are correct-path only; `taken` and
/// `target` record the actual outcome used to train/validate the predictor.
struct MicroOp {
  std::uint64_t pc = 0;
  OpClass cls = OpClass::Nop;
  RegId dst = RegId::invalid();
  RegId src[kMaxSrcOperands] = {RegId::invalid(), RegId::invalid()};

  // Memory ops only.
  std::uint64_t mem_addr = 0;
  std::uint8_t mem_size = 8;

  // Branches only.
  BranchKind branch_kind = BranchKind::None;
  bool taken = false;
  std::uint64_t target = 0;

  [[nodiscard]] int num_srcs() const {
    int count = 0;
    for (const RegId& reg : src) {
      if (reg.valid()) ++count;
    }
    return count;
  }

  [[nodiscard]] bool has_dst() const { return dst.valid(); }

  [[nodiscard]] bool is_mem() const { return op_is_mem(cls); }
  [[nodiscard]] bool is_load() const { return cls == OpClass::Load; }
  [[nodiscard]] bool is_store() const { return cls == OpClass::Store; }
  [[nodiscard]] bool is_branch() const { return op_is_branch(cls); }

  /// Checkpoint fields (core/checkpoint.h), shared by the ROB, the
  /// front-end queues and the fetch peek slot.
  template <class Io>
  void transfer(Io& io) {
    io.u64(pc);
    io.u8(cls);
    io.u8(dst.cls);
    io.i64(dst.index);
    for (RegId& reg : src) {
      io.u8(reg.cls);
      io.i64(reg.index);
    }
    io.u64(mem_addr);
    io.u32(mem_size);
    io.u8(branch_kind);
    io.boolean(taken);
    io.u64(target);
  }

  friend bool operator==(const MicroOp&, const MicroOp&) = default;
};

}  // namespace ringclu
