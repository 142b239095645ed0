// Seeded checkpoint-coverage violations (ckpt-coverage, ckpt-pair).  The
// fixtures/mem/ path places these classes in a sim-state module; every
// class defining save_state/restore_state must reference each non-static
// data member in both bodies.  Never compiled; parsed by the self-test.
#include <cstdint>

namespace fixture {

class CheckpointWriter;
class CheckpointReader;

std::uint64_t in_u64(CheckpointReader& in);
void out_u64(CheckpointWriter& out, std::uint64_t value);

/// Fully covered: every member serialized in both hooks (no findings).
class Complete {
 public:
  void save_state(CheckpointWriter& out) const {
    out_u64(out, value_);
    out_u64(out, extra_);
  }
  void restore_state(CheckpointReader& in) {
    value_ = in_u64(in);
    extra_ = in_u64(in);
  }

 private:
  std::uint64_t value_ = 0;
  std::uint64_t extra_ = 0;
};

/// 'dropped_' appears in neither hook: flagged once, naming both bodies.
class MissingBoth {
 public:
  void save_state(CheckpointWriter& out) const { out_u64(out, kept_); }
  void restore_state(CheckpointReader& in) { kept_ = in_u64(in); }

 private:
  std::uint64_t kept_ = 0;
  std::uint64_t dropped_ = 0;  // violation: never serialized
};

/// 'lost_' is restored by restore_state but never saved: flagged naming
/// save_state only.
class MissingSave {
 public:
  void save_state(CheckpointWriter& out) const { out_u64(out, kept_); }
  void restore_state(CheckpointReader& in) {
    kept_ = in_u64(in);
    lost_ = in_u64(in);
  }

 private:
  std::uint64_t kept_ = 0;
  std::uint64_t lost_ = 0;  // violation: missing from save_state
};

/// Derived members are exempt with the dedicated annotation.
class DerivedOk {
 public:
  void save_state(CheckpointWriter& out) const { out_u64(out, logical_); }
  void restore_state(CheckpointReader& in) {
    logical_ = in_u64(in);
    rebuild_cache();
  }

 private:
  void rebuild_cache();

  std::uint64_t logical_ = 0;
  std::uint64_t cache_ = 0;  // ckpt: derived (rebuilt by rebuild_cache)
};

/// Defines only one hook: checkpoints cannot round-trip (ckpt-pair).
class OnlySave {
 public:
  void save_state(CheckpointWriter& out) const { out_u64(out, value_); }

 private:
  std::uint64_t value_ = 0;
};

/// Out-of-line bodies are matched by qualified name; 'skipped_' is
/// missing from the out-of-line save_state below.
class OutOfLine {
 public:
  void save_state(CheckpointWriter& out) const;
  void restore_state(CheckpointReader& in);

 private:
  std::uint64_t held_ = 0;
  std::uint64_t skipped_ = 0;  // violation: missing from save_state
};

void OutOfLine::save_state(CheckpointWriter& out) const {
  out_u64(out, held_);
}

void OutOfLine::restore_state(CheckpointReader& in) {
  held_ = in_u64(in);
  skipped_ = in_u64(in);
}

}  // namespace fixture
