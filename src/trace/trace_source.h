#pragma once

/// \file trace_source.h
/// Abstract supplier of dynamic micro-op streams.  Implementations:
/// SyntheticProgram (the SPEC2000-like generator), TracePackReader and
/// VectorTraceSource.
///
/// The base class owns a stream-position counter (ops handed out since the
/// last reset) via the non-virtual next()/reset() wrappers; subclasses
/// implement produce()/do_reset().  The counter is what makes the
/// checkpoint position contract (save_pos/restore_pos) work for every
/// source without each one tracking position itself.

#include <cstdint>
#include <string_view>

#include "isa/micro_op.h"

namespace ringclu {

class CheckpointReader;
class CheckpointWriter;

/// A (possibly infinite) correct-path dynamic instruction stream.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Produces the next micro-op.  Returns false at end of stream
  /// (synthetic programs never end; the simulator stops at its budget).
  bool next(MicroOp& out) {
    if (!produce(out)) return false;
    ++position_;
    return true;
  }

  /// Rewinds to the beginning of the stream (deterministic replay).
  void reset() {
    do_reset();
    position_ = 0;
  }

  /// Ops handed out since construction or the last reset().
  [[nodiscard]] std::uint64_t position() const { return position_; }

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Checkpoint position contract: after restore_pos the source yields
  /// exactly the ops a fresh source would yield after position() calls to
  /// next().  The default implementation stores the position counter and
  /// restores by reset() + skipping — correct for every deterministic
  /// source, and cheap because trace generation is a tiny fraction of
  /// simulation cost.  Sources with seekable backing may override.
  virtual void save_pos(CheckpointWriter& out) const;
  virtual void restore_pos(CheckpointReader& in);

 protected:
  /// Subclass stream implementation (wrapped by next()).
  virtual bool produce(MicroOp& out) = 0;

  /// Subclass rewind implementation (wrapped by reset()).
  virtual void do_reset() = 0;

  /// For seek-based restore_pos overrides: after seeking the backing store
  /// the override must resynchronize the hand-out counter so the contract
  /// ("yields exactly what a fresh source yields after position() nexts")
  /// still holds.
  void set_position(std::uint64_t position) { position_ = position; }

 private:
  std::uint64_t position_ = 0;
};

}  // namespace ringclu
