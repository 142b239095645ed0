#pragma once

/// \file ring_bus.h
/// Fully pipelined unidirectional ring bus (Section 3 of the paper): "a
/// datum can be transmitted from every cluster to the following one at the
/// same time", with a configurable per-hop latency.  With hop latency h and
/// N clusters the bus holds up to N*h communications in flight (the paper's
/// "a given bus may be processing 16 communications at a time" for N=8,
/// h=2).
///
/// The bus is simulated structurally: N*h pipeline slots arranged in a ring;
/// every occupied slot advances one position per cycle; a datum injected at
/// cluster c reaches cluster d after distance(c,d)*h cycles.  Injection
/// requires the entry slot at the source cluster to be empty, which is
/// exactly the arbitration constraint of a pipelined segmented bus —
/// upstream traffic passing through the source cluster blocks injection.

#include <cstdint>
#include <vector>

#include "util/assert.h"

namespace ringclu {

/// Direction of travel around the ring.
enum class RingDirection : std::int8_t { Forward = 1, Backward = -1 };

/// A datum that completed its journey this cycle.
struct BusDelivery {
  int dst_cluster = -1;
  std::uint64_t payload = 0;

  friend bool operator==(const BusDelivery&, const BusDelivery&) = default;
};

/// One unidirectional, fully pipelined ring bus.
class PipelinedRingBus {
 public:
  PipelinedRingBus(int num_clusters, int hop_latency, RingDirection direction);

  /// Hops from \p src to \p dst travelling in this bus's direction.
  /// \pre src != dst.
  [[nodiscard]] int distance(int src, int dst) const;

  /// True when a new datum may enter the ring at \p src this cycle.
  [[nodiscard]] bool can_inject(int src) const;

  /// Injects a datum.  \pre can_inject(src) && src != dst.
  void inject(int src, int dst, std::uint64_t payload);

  /// Advances the pipeline one cycle and appends any arrivals to \p out.
  /// Must be called exactly once per simulated cycle, before injections.
  void tick(std::vector<BusDelivery>& out);

  /// Exactly \p cycles calls of tick() on an empty bus, in one step.
  /// \pre in_flight() == 0.
  void idle_ticks(std::uint64_t cycles);

  [[nodiscard]] int num_clusters() const { return num_clusters_; }
  [[nodiscard]] int hop_latency() const { return hop_latency_; }
  [[nodiscard]] RingDirection direction() const { return direction_; }

  /// Number of occupied pipeline slots right now.
  [[nodiscard]] int in_flight() const { return in_flight_; }

  /// Cumulative occupied-slot-cycles, for utilization reporting.
  [[nodiscard]] std::uint64_t busy_slot_cycles() const {
    return busy_slot_cycles_;
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::uint64_t injections() const { return injections_; }

  /// Checkpoint fields (core/checkpoint.h).
  template <class Io>
  void transfer(Io& io);

  friend bool operator==(const PipelinedRingBus&,
                         const PipelinedRingBus&) = default;

 private:
  struct Slot {
    bool full = false;
    int dst = -1;
    std::uint64_t payload = 0;

    template <class Io>
    void transfer(Io& io) {
      io.boolean(full);
      io.i64(dst);
      io.u64(payload);
    }

    friend bool operator==(const Slot&, const Slot&) = default;
  };

  /// Rebuilds arrivals_ from the occupied slots.
  void rebuild_derived();

  /// Physical index of the logical pipeline slot where cluster \p c injects.
  ///
  /// The pipeline is advanced by rotating a frame offset (shift_) instead of
  /// moving every occupant one slot per tick: occupants stay at a fixed
  /// physical index, and the logical position of a physical slot drifts one
  /// step per tick in the direction of travel.  This makes tick() O(num
  /// clusters) with no allocation, while remaining observationally identical
  /// to the moving-occupants model.
  [[nodiscard]] std::size_t entry_slot(int c) const {
    const std::size_t n = slots_.size();
    const std::size_t logical =
        static_cast<std::size_t>(c) * static_cast<std::size_t>(hop_latency_);
    return direction_ == RingDirection::Forward
               ? (logical + n - shift_) % n
               : (logical + shift_) % n;
  }

  int num_clusters_;
  int hop_latency_;
  RingDirection direction_;
  std::vector<Slot> slots_;
  std::size_t shift_ = 0;  ///< ticks modulo slot count (rotating frame)
  /// Deliveries due per future shift_ value: a datum injected at shift s
  /// with travel distance d arrives when shift_ == (s + d*hop) mod size.
  /// Lets tick() skip the delivery scan on the (common) cycles where
  /// traffic is in flight but nothing lands.
  std::vector<std::uint16_t> arrivals_;
  int in_flight_ = 0;
  std::uint64_t busy_slot_cycles_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t injections_ = 0;
};

}  // namespace ringclu
