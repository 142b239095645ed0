// Seeded checkpoint-coverage cases for the one-list transfer() hook.  A
// class defining transfer lists its checkpoint fields once, for both the
// writer and the reader, so every non-static data member must appear in
// that one body (or carry '// ckpt: derived').  Never compiled; parsed by
// the self-test.
#include <cstdint>
#include <vector>

namespace fixture {

/// Fully covered (no findings); the static constant is not a member.
class TransferComplete {
 public:
  static constexpr int kBytes = 16;

  template <class Io>
  void transfer(Io& io) {
    io.u64(value_);
    io.u64(extra_);
  }

 private:
  std::uint64_t value_ = 0;
  std::uint64_t extra_ = 0;
};

/// 'dropped_' never appears in transfer: flagged naming transfer only.
class TransferMissing {
 public:
  template <class Io>
  void transfer(Io& io) {
    io.u64(kept_);
  }

 private:
  std::uint64_t kept_ = 0;
  std::uint64_t dropped_ = 0;  // violation: never transferred
};

/// Derived members are exempt with the dedicated annotation.
class TransferDerived {
 public:
  template <class Io>
  void transfer(Io& io) {
    io.u64(logical_);
    if constexpr (Io::kLoading) rebuild_derived();
  }

 private:
  void rebuild_derived();

  std::uint64_t logical_ = 0;
  std::uint64_t cache_ = 0;  // ckpt: derived (rebuilt by rebuild_derived)
};

/// 'rows_' appears only in a bound and a check, never as the object a
/// stream call transfers: flagged.
class TransferBoundOnly {
 public:
  template <class Io>
  void transfer(Io& io) {
    io.items(cells_, rows_.size() * 4, 8);
    io.check(cells_.size() <= rows_.size() * 4, "cells out of range");
  }

 private:
  std::vector<std::uint64_t> rows_;  // violation: bounds and checks only
  std::vector<std::uint64_t> cells_;
};

/// Members transferred through a range-for alias, a reference alias or a
/// helper handed the stream all count (no findings).
class TransferAliases {
 public:
  template <class Io>
  void transfer(Io& io) {
    for (auto& group : groups_) io.vec_u64(group);
    std::uint64_t& head = slots_[0];
    io.u64(head);
    transfer_heap(io, heap_);
  }

 private:
  std::vector<std::uint64_t> groups_[4];
  std::uint64_t slots_[2] = {};
  std::vector<std::uint64_t> heap_;
};

/// A declared member template is matched to its out-of-line body by
/// qualified name; 'skipped_' is missing from it.
class TransferOutOfLine {
 public:
  template <class Io>
  void transfer(Io& io);

 private:
  std::uint64_t held_ = 0;
  std::uint64_t skipped_ = 0;  // violation: missing from transfer
};

template <class Io>
void TransferOutOfLine::transfer(Io& io) {
  io.u64(held_);
}

}  // namespace fixture
