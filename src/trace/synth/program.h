#pragma once

/// \file program.h
/// Assembles kernels into a synthetic program: a weighted set of loop
/// segments visited repeatedly, each with its own code region (I-cache
/// footprint), data region and iteration-count distribution; optional
/// call/return wrappers exercise the BTB and return-address stack.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/synth/kernel.h"
#include "trace/trace_source.h"
#include "util/rng.h"

namespace ringclu {

/// One loop nest of the program.
struct SegmentSpec {
  Kernel kernel;
  int min_iters = 16;
  int max_iters = 64;
  double weight = 1.0;  ///< visit probability weight
};

/// A full synthetic program.
struct ProgramSpec {
  std::string name;
  bool is_fp = false;
  std::vector<SegmentSpec> segments;
  bool use_calls = false;      ///< wrap segment visits in call/return
  std::uint64_t code_spread = 0;  ///< extra padding between code regions
};

/// Emits the dynamic stream for one kernel: register assignment, PC
/// assignment, address-stream state and branch-outcome state.
class KernelInstance {
 public:
  KernelInstance(const Kernel& kernel, std::uint64_t code_base,
                 std::uint64_t data_base);

  /// Appends one loop iteration (body plus backedge) to \p out.
  /// \p exit_iteration marks the final iteration (backedge not taken).
  void emit_iteration(std::vector<MicroOp>& out, Rng& rng,
                      bool exit_iteration);

  /// Resets loop-iteration state (address streams persist across visits so
  /// data locality spans visits, as it does in real programs).
  void begin_visit();

  [[nodiscard]] std::uint64_t code_base() const { return code_base_; }
  [[nodiscard]] std::uint64_t code_end() const {
    return code_base_ + kernel_.code_bytes();
  }
  [[nodiscard]] const Kernel& kernel() const { return kernel_; }

 private:
  struct ValueRegs {
    std::uint8_t base = 0;   ///< first register of the rotation window
    std::uint8_t window = 1; ///< window size (max lag + 1)
    std::uint8_t slot = 0;   ///< iteration_ % window, kept as a cursor
    RegClass cls = RegClass::Int;
  };

  /// Per body op: the address stream of a memory op, the pattern phase of
  /// a branch.  The divisions the streams need are done once here.
  struct OpState {
    std::uint64_t base = 0;
    std::uint64_t seq_offset = 0;  ///< SeqStride: index * stride
    std::uint64_t chase_cursor = 0;
    std::uint64_t last_page = 0;
    std::uint64_t slots = 1;       ///< working_set / access_size, >= 1
    std::uint64_t page_slots = 1;  ///< kPageBytes / access_size
    int phase = 0;                 ///< iteration_ % pattern_period
  };

  [[nodiscard]] RegId resolve(const SymOperand& operand) const;
  [[nodiscard]] std::uint64_t next_address(std::size_t op_index,
                                           const MemStreamSpec& mem, Rng& rng);
  void end_iteration();

  // Owned by value: instances outlive the (often temporary) Kernel they
  // are built from.
  Kernel kernel_;
  std::uint64_t code_base_;
  std::vector<ValueRegs> value_regs_;   // by vid
  std::vector<OpState> op_state_;       // by body op index
  std::uint64_t iteration_ = 0;
};

/// The trace source: an endless weighted walk over the program's segments.
class SyntheticProgram final : public TraceSource {
 public:
  SyntheticProgram(ProgramSpec spec, std::uint64_t seed);

  [[nodiscard]] std::string_view name() const override { return spec_.name; }

  [[nodiscard]] const ProgramSpec& spec() const { return spec_; }

 protected:
  bool produce(MicroOp& out) override;
  void do_reset() override;

 private:
  void refill();

  ProgramSpec spec_;
  std::uint64_t seed_;
  Rng rng_;
  std::vector<KernelInstance> instances_;
  std::vector<double> weights_;
  std::vector<std::uint64_t> call_sites_;  // dispatcher PC per segment
  std::vector<MicroOp> buffer_;
  std::size_t cursor_ = 0;
};

}  // namespace ringclu
