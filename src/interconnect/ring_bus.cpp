#include "interconnect/ring_bus.h"

#include "core/checkpoint.h"

namespace ringclu {

PipelinedRingBus::PipelinedRingBus(int num_clusters, int hop_latency,
                                   RingDirection direction)
    : num_clusters_(num_clusters),
      hop_latency_(hop_latency),
      direction_(direction),
      slots_(static_cast<std::size_t>(num_clusters) *
             static_cast<std::size_t>(hop_latency)),
      arrivals_(slots_.size(), 0) {
  RINGCLU_EXPECTS(num_clusters >= 2);
  RINGCLU_EXPECTS(hop_latency >= 1);
}

int PipelinedRingBus::distance(int src, int dst) const {
  RINGCLU_EXPECTS(src >= 0 && src < num_clusters_);
  RINGCLU_EXPECTS(dst >= 0 && dst < num_clusters_);
  RINGCLU_EXPECTS(src != dst);
  const int delta = direction_ == RingDirection::Forward ? dst - src
                                                         : src - dst;
  return ((delta % num_clusters_) + num_clusters_) % num_clusters_;
}

bool PipelinedRingBus::can_inject(int src) const {
  RINGCLU_EXPECTS(src >= 0 && src < num_clusters_);
  return !slots_[entry_slot(src)].full;
}

void PipelinedRingBus::inject(int src, int dst, std::uint64_t payload) {
  RINGCLU_EXPECTS(can_inject(src));
  RINGCLU_EXPECTS(dst >= 0 && dst < num_clusters_ && dst != src);
  Slot& slot = slots_[entry_slot(src)];
  slot.full = true;
  slot.dst = dst;
  slot.payload = payload;
  // distance*hop < size, so the delivery shift never collides with the
  // current one and fits within a single wrap of the calendar.
  const std::size_t travel = static_cast<std::size_t>(distance(src, dst)) *
                             static_cast<std::size_t>(hop_latency_);
  ++arrivals_[(shift_ + travel) % slots_.size()];
  ++in_flight_;
  ++injections_;
}

void PipelinedRingBus::tick(std::vector<BusDelivery>& out) {
  ++ticks_;
  busy_slot_cycles_ += static_cast<std::uint64_t>(in_flight_);

  // Advance the pipeline by rotating the logical frame one step: every
  // occupant is now one logical slot further along the ring without any
  // data movement.  Slot (c*h + k) is k cycles downstream of cluster c's
  // entry point.
  shift_ = (shift_ + 1) % slots_.size();
  if (in_flight_ == 0) return;
  std::uint16_t& due = arrivals_[shift_];
  if (due == 0) return;  // traffic in flight, but nothing lands this cycle

  // A datum that has just reached its destination's entry slot is delivered
  // and leaves the ring.  The scan stops once every due arrival is out;
  // delivery order (ascending cluster) is unchanged.
  for (int c = 0; c < num_clusters_ && due > 0; ++c) {
    Slot& slot = slots_[entry_slot(c)];
    if (slot.full && slot.dst == c) {
      out.push_back(BusDelivery{c, slot.payload});
      slot = Slot{};
      --in_flight_;
      --due;
    }
  }
  RINGCLU_ASSERT(due == 0);
}

void PipelinedRingBus::idle_ticks(std::uint64_t cycles) {
  RINGCLU_EXPECTS(in_flight_ == 0);
  ticks_ += cycles;
  shift_ = static_cast<std::size_t>((shift_ + cycles % slots_.size()) %
                                    slots_.size());
}

template <class Io>
void PipelinedRingBus::transfer(Io& io) {
  if (!io.expect(slots_.size(), "ring bus geometry mismatch")) return;
  for (Slot& slot : slots_) slot.transfer(io);
  io.u64(shift_);
  io.i64(in_flight_);
  io.u64(busy_slot_cycles_);
  io.u64(ticks_);
  io.u64(injections_);
  if constexpr (Io::kLoading) {
    if (io.check(shift_ < slots_.size(), "ring bus shift out of range")) {
      rebuild_derived();
    }
  }
}
template void PipelinedRingBus::transfer(CheckpointWriter&);
template void PipelinedRingBus::transfer(CheckpointReader&);

void PipelinedRingBus::rebuild_derived() {
  // Physical slot p delivers to dst when entry_slot(dst) == p, i.e. at the
  // shift value congruent to dst*hop -/+ p depending on direction.
  arrivals_.assign(slots_.size(), 0);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(slots_.size());
  for (std::ptrdiff_t p = 0; p < n; ++p) {
    const Slot& slot = slots_[static_cast<std::size_t>(p)];
    if (!slot.full) continue;
    const std::ptrdiff_t logical =
        static_cast<std::ptrdiff_t>(slot.dst) *
        static_cast<std::ptrdiff_t>(hop_latency_);
    const std::ptrdiff_t s = direction_ == RingDirection::Forward
                                 ? ((logical - p) % n + n) % n
                                 : ((p - logical) % n + n) % n;
    ++arrivals_[static_cast<std::size_t>(s)];
  }
}

}  // namespace ringclu
