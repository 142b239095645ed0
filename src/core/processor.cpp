#include "core/processor.h"

#include <algorithm>
#include <chrono>

#include "steer/registry.h"
#include "util/assert.h"
#include "util/rng.h"
#include "stats/nready.h"

namespace ringclu {
namespace {

/// Cycles without a commit after which the model declares itself wedged.
/// Generously above any legitimate stall (an L2 miss chain is ~hundreds).
constexpr std::int64_t kWatchdogCycles = 100000;

/// Wall-clock timing for SimResult::wall_seconds (host-throughput
/// reporting only).  Simulated state never observes these values, so the
/// determinism lint's wallclock exemption is confined to this helper.
// ringclu-lint: allow(wallclock)
using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point start) {
  // ringclu-lint: allow(wallclock)
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

}  // namespace

Processor::Processor(const ArchConfig& config, std::uint64_t seed)
    : config_(config),
      // Resolved through the string-keyed registry, so externally
      // registered policies work like the built-ins.
      policy_(SteeringRegistry::global().create(
          config.steering_policy_name(),
          SteerFactoryArgs{config.arch, config.num_clusters,
                           config.dcount_threshold, seed})),
      values_(config.num_clusters),
      regs_(config.num_clusters, config.regs_per_class),
      buses_(config.num_clusters, config.num_buses, config.bus_orientation(),
             config.hop_latency),
      mem_(config.mem),
      lsq_(static_cast<std::size_t>(config.lsq_size)),
      frontend_(config.bpred),
      rob_(static_cast<std::size_t>(config.rob_size)) {
  config_.validate();
  event_ring_.resize(kEventRingSize);
  clusters_.reserve(static_cast<std::size_t>(config.num_clusters));
  for (int c = 0; c < config.num_clusters; ++c) {
    clusters_.emplace_back(config.iq_int, config.iq_fp, config.iq_comm,
                           config.issue_width);
  }
  counters_.dispatched_per_cluster.assign(
      static_cast<std::size_t>(config.num_clusters), 0);

  steer_context_.values = &values_;
  steer_context_.buses = &buses_;
  steer_context_.oracle = this;
  steer_context_.arch = config.arch;
  steer_context_.num_clusters = config.num_clusters;

  // Initial architectural state: each logical register's value is homed
  // round-robin across the clusters and readable from cycle 0.
  for (int flat = 0; flat < kNumFlatArchRegs; ++flat) {
    const RegClass cls =
        flat < kArchRegsPerClass ? RegClass::Int : RegClass::Fp;
    const int home = flat % config.num_clusters;
    regs_.allocate(home, cls);
    const ValueId value = values_.create(cls, home);
    values_.set_readable(value, home, 0);
    values_.info(value).produced = true;
    rename_[static_cast<std::size_t>(flat)] = value;
  }
}

// --- SteerOracle ---------------------------------------------------------

bool Processor::iq_can_accept(int cluster, UnitKind kind) const {
  const Cluster& cl = clusters_[static_cast<std::size_t>(cluster)];
  return kind == UnitKind::Int ? !cl.int_iq.full() : !cl.fp_iq.full();
}

int Processor::comm_free_entries(int cluster) const {
  const CommQueue& queue =
      clusters_[static_cast<std::size_t>(cluster)].comm_queue;
  return static_cast<int>(config_.iq_comm) - static_cast<int>(queue.size());
}

bool Processor::regs_obtainable(int cluster, RegClass cls, int count) const {
  const int free = regs_.free_count(cluster, cls);
  if (free >= count) return true;
  if (!config_.copy_eviction) return false;
  const int deficit = count - free;
  // Existence check via the maintained idle-copy counter (no table scan),
  // discounting the dispatching instruction's own sources, which must
  // never be victimized on its behalf.
  int candidates = values_.idle_copy_count(cluster, cls);
  for (const ValueId banned : steering_srcs_) {
    if (candidates <= 0) break;
    if (values_.is_idle_copy(banned, cluster, cls)) --candidates;
  }
  // For deficits > 1 we would need to know there are enough victims.
  // Deficits above 1 are rare (dest + copies in one cluster), so a
  // conservative answer for them is fine.
  return candidates > 0 && deficit <= 1;
}

int Processor::free_regs(int cluster, RegClass cls) const {
  return regs_.free_count(cluster, cls);
}

int Processor::free_regs_total(int cluster) const {
  return regs_.free_count(cluster, RegClass::Int) +
         regs_.free_count(cluster, RegClass::Fp);
}

// --- Allocation helpers --------------------------------------------------

bool Processor::allocate_reg_evicting(int cluster, RegClass cls) {
  if (!regs_.can_allocate(cluster, cls)) {
    if (!config_.copy_eviction) return false;
    const std::span<const ValueId> exclude(steering_srcs_.begin(),
                                           steering_srcs_.size());
    const ValueId victim =
        values_.find_evictable(cls, cluster, cycle_, exclude);
    if (victim == kInvalidValue) return false;
    values_.evict_copy(victim, cluster);
    regs_.release(cluster, cls);
    ++counters_.copy_evictions;
  }
  regs_.allocate(cluster, cls);
  return true;
}

void Processor::maybe_eager_release(ValueId id, int cluster) {
  if (!config_.eager_copy_release) return;
  const ValueInfo& info = values_.info(id);
  if (info.home == cluster) return;  // originals live until redefinition
  if (info.pending_readers[static_cast<std::size_t>(cluster)] != 0) return;
  if (!info.readable_in(cluster, cycle_)) return;  // copy still in flight
  values_.evict_copy(id, cluster);
  regs_.release(cluster, info.cls);
  ++counters_.copy_evictions;  // eager releases count as proactive evictions
}

void Processor::release_value(ValueId id) {
  const ValueInfo& info = values_.info(id);
  for (int c = 0; c < config_.num_clusters; ++c) {
    if (info.mapped_in(c)) regs_.release(c, info.cls);
  }
  values_.release(id);
}

void Processor::schedule(std::int64_t cycle, EventKind kind,
                         std::uint32_t rob_index) {
  // Strictly future: the calendar ring drains the current cycle's bucket
  // once, so a same-cycle event scheduled after do_events would strand
  // until the ring wraps.  Same-cycle completions go through
  // complete_instruction()/try_complete_store() directly instead.
  RINGCLU_ASSERT(cycle > cycle_);
  const Event event{cycle, kind, rob_index, rob_.seq(rob_index)};
  if (cycle - cycle_ < static_cast<std::int64_t>(kEventRingSize)) {
    event_ring_[static_cast<std::size_t>(cycle) & (kEventRingSize - 1)]
        .push_back(event);
  } else {
    overflow_events_.push(event);
  }
  ++events_pending_;
}

// --- Event-driven wakeup plumbing ----------------------------------------
//
// The scheduler never scans queues for readiness.  Each issue-queue entry
// counts its not-yet-readable sources (DynInst::wait_srcs); the
// set_readable call that schedules a source's readability fires waiters,
// and the last-fired source moves the entry into its cluster's ready list
// — immediately when the readable cycle has already passed (bus
// deliveries land before issue in the same cycle), or via an IqReady event
// on the existing events_ queue otherwise.  Pending stores and comms wake
// the same way; loads are pure time buckets (their window is known at
// address generation).  This is cycle-exact with the historical scans
// because a waiting consumer holds a pending reader, which pins the
// (value, cluster) mapping until the value has been readable and read.

void Processor::set_readable_waking(ValueId id, int cluster,
                                    std::int64_t cycle) {
  values_.set_readable(id, cluster, cycle);
  std::vector<std::uint64_t>& fired = values_.fired_waiters();
  if (fired.empty()) return;
  for (const std::uint64_t token : fired) handle_wake(token, cycle);
  fired.clear();
}

void Processor::handle_wake(std::uint64_t token, std::int64_t readable_cycle) {
  const WakeKind kind = static_cast<WakeKind>(token >> 62);
  const int cluster = static_cast<int>((token >> 58) & 0xfu);
  const std::uint64_t index = token & ((1ull << 58) - 1);
  switch (kind) {
    case WakeKind::IqEntry: {
      const std::uint32_t rob_index = static_cast<std::uint32_t>(index);
      std::uint32_t& wait_srcs = rob_.wait_srcs(rob_index);
      std::int64_t& ready_at = rob_.ready_at(rob_index);
      RINGCLU_ASSERT(wait_srcs > 0);
      ready_at = std::max(ready_at, readable_cycle);
      if (--wait_srcs == 0) schedule_iq_ready(rob_index, ready_at);
      break;
    }
    case WakeKind::StoreData: {
      const std::uint32_t rob_index = static_cast<std::uint32_t>(index);
      // Completion happens in the memory stage of the readable cycle, like
      // the historical pending-store sweep (never earlier in the cycle, or
      // the store would commit a cycle early).
      store_due_.push(TimedRef{std::max(readable_cycle, cycle_),
                               rob_.seq(rob_index), rob_index});
      break;
    }
    case WakeKind::Comm: {
      if (readable_cycle <= cycle_) {
        insert_comm_ready(cluster, index);
      } else {
        comm_due_.push(CommDue{readable_cycle, index,
                               static_cast<std::uint8_t>(cluster)});
      }
      break;
    }
  }
}

void Processor::schedule_iq_ready(std::uint32_t rob_index,
                                  std::int64_t ready_cycle) {
  if (ready_cycle <= cycle_) {
    push_ready(rob_index);
  } else {
    schedule(ready_cycle, EventKind::IqReady, rob_index);
  }
}

void Processor::push_ready(std::uint32_t rob_index) {
  RINGCLU_ASSERT(rob_.state(rob_index) == InstState::Dispatched);
  const std::uint64_t seq = rob_.seq(rob_index);
  Cluster& cluster =
      clusters_[static_cast<std::size_t>(rob_.cluster(rob_index))];
  std::vector<ReadyRef>& list =
      op_unit(rob_.at(rob_index).op.cls) == UnitKind::Int ? cluster.int_ready
                                                          : cluster.fp_ready;
  const auto it = std::lower_bound(
      list.begin(), list.end(), seq,
      [](const ReadyRef& ref, std::uint64_t s) { return ref.seq < s; });
  list.insert(it, ReadyRef{rob_index, seq});
  ++ready_total_;
}

void Processor::insert_comm_ready(int cluster, std::uint64_t id) {
  Cluster& cl = clusters_[static_cast<std::size_t>(cluster)];
  std::vector<std::uint64_t>& ready = cl.comm_ready;
  ready.insert(std::lower_bound(ready.begin(), ready.end(), id), id);
  ++ready_total_;
  // A comm enters the ready list exactly at its first ready cycle; stamp
  // the contention baseline here so issue need not revisit blocked comms.
  CommOp& comm = cl.comm_queue.at(cl.comm_queue.index_of(id));
  RINGCLU_ASSERT(comm.first_ready_cycle < 0);
  comm.first_ready_cycle = cycle_;
}

void Processor::drain_comm_wakeups() {
  while (!comm_due_.empty() && comm_due_.top().cycle <= cycle_) {
    const CommDue due = comm_due_.top();
    comm_due_.pop();
    insert_comm_ready(due.cluster, due.id);
  }
}

// --- Events --------------------------------------------------------------

void Processor::complete_instruction(std::uint32_t rob_index) {
  DynInst& inst = rob_.at(rob_index);
  RINGCLU_ASSERT(rob_.state(rob_index) != InstState::Done);
  rob_.set_state(rob_index, InstState::Done);
  inst.complete_cycle = cycle_;
  if (inst.op.has_dst()) values_.info(inst.dst_value).produced = true;
  if (fetch_blocked_ && rob_.seq(rob_index) == fetch_blocked_seq_) {
    fetch_blocked_ = false;  // redirect: fetch resumes this cycle
  }
}

void Processor::do_events() {
  if (events_pending_ == 0) return;
  std::vector<Event>& bucket =
      event_ring_[static_cast<std::size_t>(cycle_) & (kEventRingSize - 1)];
  // Far-scheduled events whose cycle has arrived merge into the bucket.
  while (!overflow_events_.empty() &&
         overflow_events_.top().cycle <= cycle_) {
    bucket.push_back(overflow_events_.top());
    overflow_events_.pop();
  }
  if (bucket.empty()) return;
  std::sort(bucket.begin(), bucket.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  // Handlers cannot grow this bucket: schedule() rejects same-cycle events
  // (index loop kept as belt-and-braces against iterator invalidation).
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    const Event event = bucket[i];
    RINGCLU_ASSERT(event.cycle == cycle_);
    RINGCLU_ASSERT(rob_.seq(event.rob_index) == event.seq);
    switch (event.kind) {
      case EventKind::Complete:
        complete_instruction(event.rob_index);
        break;
      case EventKind::AddrReady: {
        DynInst& inst = rob_.at(event.rob_index);
        const int cluster = rob_.cluster(event.rob_index);
        lsq_.set_address(event.seq, inst.op.mem_addr, inst.op.mem_size);
        if (inst.op.is_store()) {
          // The store retires from the cluster once its data has also been
          // read; the cache write happens at commit.  If the data is not
          // readable yet, park the store on its data value's wakeup (or a
          // time bucket when the readable cycle is already known) instead
          // of a per-cycle sweep.
          if (inst.store_data != kInvalidValue) {
            const std::int64_t readable =
                values_.info(inst.store_data)
                    .readable_cycle[static_cast<std::size_t>(cluster)];
            if (readable > cycle_) {
              if (readable == kNeverReadable) {
                values_.add_waiter(
                    inst.store_data, cluster,
                    wake_token(WakeKind::StoreData, 0, event.rob_index));
              } else {
                store_due_.push(
                    TimedRef{readable, event.seq, event.rob_index});
              }
              break;
            }
          }
          const bool completed = try_complete_store(event.rob_index);
          RINGCLU_ASSERT(completed);
        } else {
          inst.mem_ready_cycle = cycle_ + config_.dcache_transfer;
          load_due_.push(
              TimedRef{inst.mem_ready_cycle, event.seq, event.rob_index});
        }
        break;
      }
      case EventKind::IqReady:
        push_ready(event.rob_index);
        break;
    }
  }
  events_pending_ -= bucket.size();
  bucket.clear();
}

// --- Commit --------------------------------------------------------------

void Processor::do_commit() {
  int committed = 0;
  while (committed < config_.commit_width && !rob_.empty()) {
    const std::uint32_t head_index = rob_.head_index();
    if (!rob_.done(head_index)) break;
    DynInst& head = rob_.at(head_index);
    const std::uint64_t head_seq = rob_.seq(head_index);
    if (head.op.is_store()) {
      if (dcache_ports_used_ >= config_.mem.l1d_ports) break;
      ++dcache_ports_used_;
      (void)mem_.data_access(head.op.mem_addr);  // write-allocate update
      ++counters_.stores;
      lsq_.release(head_seq);
    } else if (head.op.is_load()) {
      ++counters_.loads;
      lsq_.release(head_seq);
    }
    if (head.released_value != kInvalidValue) {
      release_value(head.released_value);
    }
    rob_.pop();
    ++committed;
    ++committed_total_;
    ++counters_.committed;
    last_commit_cycle_ = cycle_;
  }
}

// --- Interconnect --------------------------------------------------------

void Processor::do_bus() {
  deliveries_.clear();
  buses_.tick(deliveries_);
  for (const BusDelivery& delivery : deliveries_) {
    // Readable this very cycle: consumers wake straight into their ready
    // lists (issue runs later in the cycle), matching the historical scan.
    set_readable_waking(static_cast<ValueId>(delivery.payload),
                        delivery.dst_cluster, cycle_);
  }
}

// --- Memory --------------------------------------------------------------

bool Processor::try_complete_store(std::uint32_t rob_index) {
  DynInst& inst = rob_.at(rob_index);
  RINGCLU_ASSERT(inst.op.is_store());
  if (inst.store_data != kInvalidValue) {
    const int cluster = rob_.cluster(rob_index);
    if (!values_.info(inst.store_data).readable_in(cluster, cycle_)) {
      return false;
    }
    values_.remove_reader(inst.store_data, cluster);
    maybe_eager_release(inst.store_data, cluster);
    inst.store_data = kInvalidValue;
  }
  complete_instruction(rob_index);
  return true;
}

void Processor::do_memory() {
  // Stores whose data value became readable this cycle complete now; the
  // (cycle, seq) heap order reproduces the historical sweep's same-cycle
  // ordering, and store completions commute anyway (per-value reader
  // bookkeeping only).
  while (!store_due_.empty() && store_due_.top().cycle <= cycle_) {
    const TimedRef due = store_due_.top();
    store_due_.pop();
    RINGCLU_ASSERT(rob_.seq(due.rob_index) == due.seq);
    const bool completed = try_complete_store(due.rob_index);
    RINGCLU_ASSERT(completed);
  }

  // Loads whose address has reached the cache cluster join the active list
  // in arrival order (all loads share dcache_transfer, so (due cycle, seq)
  // order equals the historical pending-list order); the active list then
  // retries disambiguation gates and d-cache ports each cycle.
  while (!load_due_.empty() && load_due_.top().cycle <= cycle_) {
    const TimedRef due = load_due_.top();
    load_due_.pop();
    RINGCLU_ASSERT(rob_.seq(due.rob_index) == due.seq);
    active_loads_.push_back(due.rob_index);
  }

  for (std::size_t i = 0; i < active_loads_.size();) {
    const std::uint32_t rob_index = active_loads_[i];
    DynInst& inst = rob_.at(rob_index);
    const LoadGate gate = lsq_.query_load(rob_.seq(rob_index));
    if (gate == LoadGate::MustWait) {
      lsq_.count_load_wait();
      ++i;
      continue;
    }
    int latency;
    if (gate == LoadGate::Forward) {
      lsq_.count_forward();
      latency = 1;  // store-to-load forwarding inside the LSQ
    } else {
      if (dcache_ports_used_ >= config_.mem.l1d_ports) {
        ++i;  // port contention: retry next cycle
        continue;
      }
      ++dcache_ports_used_;
      latency = mem_.data_access(inst.op.mem_addr);
    }
    const std::int64_t data_ready =
        cycle_ + latency + config_.dcache_transfer;
    // Prefetch-like loads (no architectural destination) still occupy the
    // port and the LSQ slot but produce no value to wake consumers on.
    if (inst.op.has_dst()) {
      set_readable_waking(inst.dst_value,
                          dest_home(rob_.cluster(rob_index)), data_ready);
    }
    schedule(data_ready, EventKind::Complete, rob_index);
    active_loads_.erase(active_loads_.begin() +
                        static_cast<std::ptrdiff_t>(i));
  }
}

// --- Issue ---------------------------------------------------------------

void Processor::issue_instruction(int cluster, std::uint32_t rob_index) {
  DynInst& inst = rob_.at(rob_index);
  RINGCLU_ASSERT(rob_.state(rob_index) == InstState::Dispatched);
  rob_.set_state(rob_index, InstState::Issued);
  inst.issue_cycle = cycle_;
  clusters_[static_cast<std::size_t>(cluster)].fus.acquire(inst.op.cls,
                                                           cycle_);
  for (const ValueId src : inst.srcs) {
    // Ready-list membership is the scheduler's readiness claim; keep the
    // historical source check as an always-on invariant (a waiting
    // consumer's sources cannot regress: its pending readers pin them).
    RINGCLU_ASSERT(values_.info(src).readable_in(cluster, cycle_));
    values_.remove_reader(src, cluster);
    maybe_eager_release(src, cluster);
  }

  if (inst.op.is_mem()) {
    // Address generation takes one ALU cycle; the LSQ learns the address
    // the following cycle.
    schedule(cycle_ + 1, EventKind::AddrReady, rob_index);
    return;
  }

  const int latency = op_latency(inst.op.cls);
  if (inst.op.has_dst()) {
    // Result becomes readable in the wakeup cluster exactly when the value
    // leaves the functional unit: dependent instructions there can issue
    // back to back.
    set_readable_waking(inst.dst_value, dest_home(cluster),
                        cycle_ + latency);
  }
  schedule(cycle_ + latency, EventKind::Complete, rob_index);
}

void Processor::issue_ready_list(int cluster, IssueQueue& queue,
                                 std::vector<ReadyRef>& ready, int width,
                                 std::uint32_t& unissued_ready, int& issued) {
  std::size_t i = 0;
  while (i < ready.size()) {
    const ReadyRef ref = ready[i];
    RINGCLU_ASSERT(rob_.seq(ref.rob_index) == ref.seq &&
                   rob_.state(ref.rob_index) == InstState::Dispatched);
    if (issued >= width ||
        !clusters_[static_cast<std::size_t>(cluster)].fus.available(
            rob_.at(ref.rob_index).op.cls, cycle_)) {
      ++unissued_ready;
      ++i;
      continue;
    }
    issue_instruction(cluster, ref.rob_index);
    ++issued;
    queue.remove_seq(ref.seq);
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(i));
    --ready_total_;
  }
}

void Processor::issue_comms(int cluster) {
  Cluster& cl = clusters_[static_cast<std::size_t>(cluster)];
  std::vector<std::uint64_t>& ready = cl.comm_ready;
  std::size_t i = 0;
  while (i < ready.size()) {
    const std::size_t pos = cl.comm_queue.index_of(ready[i]);
    CommOp& comm = cl.comm_queue.at(pos);
    RINGCLU_ASSERT(values_.info(comm.value).readable_in(cluster, cycle_));
    RINGCLU_ASSERT(comm.first_ready_cycle >= 0);
    const std::optional<int> distance =
        buses_.try_inject(cluster, comm.dst_cluster, comm.value);
    if (!distance) {
      // Bus contention: this comm retries next cycle.  If no bus can accept
      // any injection at this cluster, every remaining ready comm (same
      // source cluster) must fail too — failed injections have no side
      // effects, so stopping here is observationally identical.
      if (!buses_.any_injectable(cluster)) break;
      ++i;
      continue;
    }
    values_.remove_reader(comm.value, cluster);  // source read complete
    ++counters_.comms;
    counters_.comm_distance_sum += static_cast<std::uint64_t>(*distance);
    counters_.comm_contention_sum +=
        static_cast<std::uint64_t>(cycle_ - comm.first_ready_cycle);
    cl.comm_queue.remove_at(pos);
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(i));
    --ready_total_;
  }
}

void Processor::do_issue() {
  drain_comm_wakeups();
  // Nothing ready anywhere: no instruction or comm can issue, every slot
  // is idle, and the NREADY matching is zero by zero demand.  Skip the
  // whole stage — the common case on stall-dominated cycles.
  if (ready_total_ == 0) return;
  const int n = config_.num_clusters;
  std::array<std::uint32_t, kMaxClusters> unissued_int{};
  std::array<std::uint32_t, kMaxClusters> unissued_fp{};
  std::array<std::uint32_t, kMaxClusters> idle_int{};
  std::array<std::uint32_t, kMaxClusters> idle_fp{};
  bool any_unissued = false;

  for (int c = 0; c < n; ++c) {
    Cluster& cluster = clusters_[static_cast<std::size_t>(c)];
    // Idle clusters (nothing ready, nothing to send) are skipped entirely;
    // their issue slots still count as idle supply for NREADY below.
    int issued_int = 0;
    int issued_fp = 0;
    if (!cluster.int_ready.empty()) {
      issue_ready_list(c, cluster.int_iq, cluster.int_ready,
                       config_.issue_width,
                       unissued_int[static_cast<std::size_t>(c)], issued_int);
    }
    if (!cluster.fp_ready.empty()) {
      issue_ready_list(c, cluster.fp_iq, cluster.fp_ready,
                       config_.issue_width,
                       unissued_fp[static_cast<std::size_t>(c)], issued_fp);
    }
    idle_int[static_cast<std::size_t>(c)] =
        static_cast<std::uint32_t>(config_.issue_width - issued_int);
    idle_fp[static_cast<std::size_t>(c)] =
        static_cast<std::uint32_t>(config_.issue_width - issued_fp);
    any_unissued = any_unissued ||
                   (unissued_int[static_cast<std::size_t>(c)] |
                    unissued_fp[static_cast<std::size_t>(c)]) != 0;
    if (!cluster.comm_ready.empty()) issue_comms(c);
  }

  // With zero unissued-ready demand everywhere, both matchings are zero.
  if (any_unissued) {
    const std::size_t count = static_cast<std::size_t>(n);
    counters_.nready_sum +=
        nready_matching({unissued_int.data(), count},
                        {idle_int.data(), count}) +
        nready_matching({unissued_fp.data(), count}, {idle_fp.data(), count});
  }
}

// --- Dispatch ------------------------------------------------------------

SteerRequest Processor::build_request(const MicroOp& op) const {
  SteerRequest request;
  request.cls = op.cls;
  if (op.has_dst()) {
    request.has_dst = true;
    request.dst_cls = op.dst.cls;
  }
  for (const RegId& src : op.src) {
    if (!src.valid()) continue;
    const ValueId value = rename_[static_cast<std::size_t>(src.flat())];
    if (!request.srcs.contains(value)) {
      request.srcs.push_back(value);
      request.src_cls.push_back(src.cls);
    }
  }
  return request;
}

void Processor::apply_dispatch(const MicroOp& op, std::uint64_t seq,
                               const SteerRequest& request,
                               const SteerDecision& decision) {
  const int cluster = decision.cluster;

  // Register readers for already-mapped sources first: a pending reader
  // protects the copy from being evicted by the allocations below.
  for (const ValueId src : request.srcs) {
    if (values_.info(src).mapped_in(cluster)) {
      values_.add_reader(src, cluster);
    }
  }

  // Copy registers and communication instructions for missing operands.
  for (const SteerComm& comm : decision.comms) {
    const ValueId value = request.srcs[comm.operand];
    const bool allocated =
        allocate_reg_evicting(cluster, request.src_cls[comm.operand]);
    RINGCLU_ASSERT(allocated);  // plan_candidate verified obtainability
    values_.add_copy(value, cluster);
    values_.add_reader(value, cluster);
    // The comm itself reads the value in the source cluster; the pending
    // reader keeps that copy from being evicted before the comm issues.
    values_.add_reader(value, comm.from_cluster);
    CommOp comm_op;
    comm_op.value = value;
    comm_op.id = next_comm_id_++;
    comm_op.src_cluster = comm.from_cluster;
    comm_op.dst_cluster = static_cast<std::uint8_t>(cluster);
    comm_op.created_cycle = cycle_;
    clusters_[comm.from_cluster].comm_queue.insert(comm_op);
    // Schedule the comm's readiness: it can first try the bus the cycle
    // after dispatch (issue precedes dispatch within a cycle) and no
    // earlier than its source value's readable cycle.
    const std::int64_t readable =
        values_.info(value)
            .readable_cycle[static_cast<std::size_t>(comm.from_cluster)];
    if (readable == kNeverReadable) {
      values_.add_waiter(value, comm.from_cluster,
                         wake_token(WakeKind::Comm, comm.from_cluster,
                                    comm_op.id));
    } else {
      comm_due_.push(CommDue{std::max(readable, cycle_ + 1), comm_op.id,
                             comm.from_cluster});
    }
  }

  DynInst inst;
  inst.op = op;
  inst.dispatch_cycle = cycle_;
  inst.srcs = request.srcs;

  // STA/STD split: a store issues (address generation) as soon as its
  // address operand is ready; the data operand is read when it arrives and
  // only gates the store's completion, not younger loads' disambiguation.
  if (op.is_store() && op.src[1].valid()) {
    const ValueId addr_value =
        rename_[static_cast<std::size_t>(op.src[0].flat())];
    const ValueId data_value = inst.srcs.size() == 2
                                   ? request.srcs[1]
                                   : kInvalidValue;
    if (data_value != kInvalidValue && data_value != addr_value) {
      inst.srcs.clear();
      inst.srcs.push_back(addr_value);
      inst.store_data = data_value;
    }
  }

  if (op.has_dst()) {
    const int home = dest_home(cluster);
    const bool allocated = allocate_reg_evicting(home, op.dst.cls);
    RINGCLU_ASSERT(allocated);
    inst.dst_value = values_.create(op.dst.cls, home);
    inst.released_value = rename_[static_cast<std::size_t>(op.dst.flat())];
    rename_[static_cast<std::size_t>(op.dst.flat())] = inst.dst_value;
  }

  if (op.is_mem()) lsq_.allocate(seq, op.is_store());

  const std::uint32_t rob_index =
      rob_.push(std::move(inst), seq, InstState::Dispatched, cluster);
  Cluster& cl = clusters_[static_cast<std::size_t>(cluster)];
  IssueQueue& queue =
      op_unit(op.cls) == UnitKind::Int ? cl.int_iq : cl.fp_iq;
  queue.insert(IqEntry{rob_index, seq});

  // Wakeup bookkeeping: count sources whose readable cycle is still
  // unknown and subscribe to them; once none remain, the entry enters its
  // cluster's ready list at the max known operand-ready cycle.
  const DynInst& stored = rob_.at(rob_index);
  std::uint32_t wait = 0;
  std::int64_t ready_at = cycle_;  // floor: cannot issue before dispatch
  for (const ValueId src : stored.srcs) {
    const std::int64_t readable =
        values_.info(src).readable_cycle[static_cast<std::size_t>(cluster)];
    if (readable == kNeverReadable) {
      values_.add_waiter(src, cluster,
                         wake_token(WakeKind::IqEntry, 0, rob_index));
      ++wait;
    } else {
      ready_at = std::max(ready_at, readable);
    }
  }
  rob_.wait_srcs(rob_index) = wait;
  rob_.ready_at(rob_index) = ready_at;
  if (wait == 0) schedule_iq_ready(rob_index, ready_at);

  policy_->on_dispatch(cluster);
  ++counters_.dispatched_per_cluster[static_cast<std::size_t>(cluster)];
}

void Processor::do_dispatch() {
  int dispatched = 0;
  bool steer_stalled = false;
  bool rob_stalled = false;
  bool lsq_stalled = false;

  while (dispatched < config_.dispatch_width && !decodeq_.empty()) {
    const FrontEndOp front = decodeq_.front();
    if (front.stage_cycle >= cycle_) break;  // still in decode this cycle
    if (rob_.full()) {
      rob_stalled = true;
      break;
    }
    if (front.op.is_mem() && lsq_.full()) {
      lsq_stalled = true;
      break;
    }

    if (front.op.cls == OpClass::Nop) {
      DynInst inst;
      inst.op = front.op;
      inst.dispatch_cycle = cycle_;
      inst.complete_cycle = cycle_;
      rob_.push(std::move(inst), front.seq, InstState::Done, /*cluster=*/-1);
      decodeq_.pop_front();
      ++dispatched;
      continue;
    }

    const SteerRequest request = build_request(front.op);
    steering_srcs_ = request.srcs;
    const SteerDecision decision = policy_->steer(request, steer_context_);
    if (decision.stall) {
      steering_srcs_.clear();
      steer_stalled = true;
      break;
    }
    apply_dispatch(front.op, front.seq, request, decision);
    steering_srcs_.clear();
    decodeq_.pop_front();
    ++dispatched;
  }

  if (steer_stalled) ++counters_.steer_stall_cycles;
  if (rob_stalled) ++counters_.rob_stall_cycles;
  if (lsq_stalled) ++counters_.lsq_stall_cycles;
}

// --- Front end -----------------------------------------------------------

void Processor::do_decode() {
  int moved = 0;
  while (moved < config_.decode_width && !fetchq_.empty() &&
         decodeq_.size() < static_cast<std::size_t>(config_.decodeq_size)) {
    FrontEndOp front = fetchq_.front();
    if (front.stage_cycle >= cycle_) break;  // fetched this cycle
    front.stage_cycle = cycle_;
    decodeq_.push_back(front);
    fetchq_.pop_front();
    ++moved;
  }
}

void Processor::do_fetch(TraceSource& trace) {
  if (fetch_blocked_) return;
  if (cycle_ < icache_stall_until_) {
    ++counters_.icache_stall_cycles;
    return;
  }

  int fetched = 0;
  while (fetched < config_.fetch_width &&
         fetchq_.size() < static_cast<std::size_t>(config_.fetchq_size)) {
    if (!have_peeked_) {
      if (trace_exhausted_ || !trace.next(peeked_)) {
        trace_exhausted_ = true;
        break;
      }
      have_peeked_ = true;
    }

    // Instruction-cache access per distinct line.
    const std::uint64_t line =
        peeked_.pc / config_.mem.l1i.line_bytes;
    if (line != last_fetch_line_) {
      const int latency = mem_.inst_access(peeked_.pc);
      last_fetch_line_ = line;
      if (latency > config_.mem.l1i_latency) {
        icache_stall_until_ = cycle_ + latency;
        break;  // the op is fetched after the miss completes
      }
    }

    FrontEndOp fop;
    fop.op = peeked_;
    fop.seq = next_seq_++;
    fop.stage_cycle = cycle_;
    have_peeked_ = false;

    bool taken_branch = false;
    if (fop.op.is_branch()) {
      const BranchPrediction prediction =
          frontend_.predict_and_train(fop.op);
      if (prediction.mispredicted) {
        fetch_blocked_ = true;
        fetch_blocked_seq_ = fop.seq;
      }
      taken_branch = fop.op.taken;
    }

    fetchq_.push_back(fop);
    ++fetched;
    if (fetch_blocked_) break;   // wait for the branch to resolve
    if (taken_branch) break;     // one taken branch per fetch cycle
  }
}

// --- Main loop -----------------------------------------------------------

void Processor::step() {
  ++cycle_;
  dcache_ports_used_ = 0;

  do_events();
  do_commit();
  do_bus();
  do_memory();
  do_issue();
  do_dispatch();
  do_decode();

  ++counters_.cycles;
  counters_.rob_occupancy_sum += rob_.size();
  counters_.regs_in_use_sum += static_cast<std::uint64_t>(regs_.total_in_use());

  if (!rob_.empty() && cycle_ - last_commit_cycle_ >= kWatchdogCycles) {
    dump_state(stderr);
    RINGCLU_ASSERT(false && "watchdog: no commit progress");
  }
}

void Processor::dump_state(std::FILE* out) const {
  std::fprintf(out, "=== processor state at cycle %lld (%s) ===\n",
               static_cast<long long>(cycle_), config_.name.c_str());
  std::fprintf(out, "rob: %zu/%zu fetchq=%zu decodeq=%zu pending_loads=%zu\n",
               rob_.size(), rob_.capacity(), fetchq_.size(), decodeq_.size(),
               active_loads_.size() + load_due_.size());
  if (!rob_.empty()) {
    const std::uint32_t head_index = rob_.head_index();
    const DynInst& head = rob_.at(head_index);
    const int head_cluster = rob_.cluster(head_index);
    std::fprintf(out,
                 "rob head: seq=%llu cls=%s state=%d cluster=%d "
                 "dispatch=%lld issue=%lld\n",
                 static_cast<unsigned long long>(rob_.seq(head_index)),
                 std::string(op_name(head.op.cls)).c_str(),
                 static_cast<int>(rob_.state(head_index)), head_cluster,
                 static_cast<long long>(head.dispatch_cycle),
                 static_cast<long long>(head.issue_cycle));
    for (const ValueId src : head.srcs) {
      const ValueInfo& info = values_.info(src);
      std::fprintf(out,
                   "  src v%u: home=%d mapped=%03x produced=%d "
                   "readable@%d=%s\n",
                   src, info.home, info.mapped_mask, info.produced,
                   head_cluster,
                   head_cluster >= 0 &&
                           info.readable_in(head_cluster, cycle_)
                       ? "yes"
                       : "no");
    }
  }
  for (int c = 0; c < config_.num_clusters; ++c) {
    const Cluster& cl = clusters_[static_cast<std::size_t>(c)];
    std::fprintf(out,
                 "cluster %d: int_iq=%zu fp_iq=%zu comm=%zu free_int=%d "
                 "free_fp=%d\n",
                 c, cl.int_iq.size(), cl.fp_iq.size(), cl.comm_queue.size(),
                 regs_.free_count(c, RegClass::Int),
                 regs_.free_count(c, RegClass::Fp));
  }
}

bool Processor::drained() const {
  return trace_exhausted_ && !have_peeked_ && rob_.empty() &&
         fetchq_.empty() && decodeq_.empty();
}

void Processor::sync_external() {
  counters_.branches = frontend_.branches();
  counters_.mispredicts = frontend_.mispredicts();
  counters_.l1d_accesses = mem_.l1d().accesses();
  counters_.l1d_misses = mem_.l1d().misses();
  counters_.l2_accesses = mem_.l2().accesses();
  counters_.l2_misses = mem_.l2().misses();
  counters_.load_forwards = lsq_.forwards();
}

void Processor::warmup(TraceSource& trace, std::uint64_t warmup_instrs) {
  RINGCLU_EXPECTS(!measuring_);
  const auto wall_start = WallClock::now();
  run_start_committed_ = committed_total_;
  // The bound is absolute (total committed), matching the historical
  // monolithic run(): a second run() on the same processor skips warmup.
  while (committed_total_ < warmup_instrs && !drained()) {
    step();
    do_fetch(trace);
  }
  // Synced here so a warmup checkpoint captures consistent counters.
  sync_external();
  warmup_pending_ = true;
  pre_run_wall_seconds_ += seconds_since(wall_start);
}

SimResult Processor::measure(TraceSource& trace, std::uint64_t measure_instrs,
                             const RunHooks& hooks) {
  const auto wall_start = WallClock::now();
  if (!measuring_) {
    if (!warmup_pending_) run_start_committed_ = committed_total_;
    warmup_pending_ = false;
    sync_external();
    measure_baseline_ = counters_;
    measure_start_committed_ = committed_total_;
    // Relative to the post-warmup commit count: the warmup loop may
    // overshoot by up to a commit burst, which must not shorten the
    // measured window.
    measure_target_ = committed_total_ + measure_instrs;
    measuring_ = true;
  }
  // Else: resuming a mid-measure snapshot — baseline/target/start were
  // restored with the rest of the state and measure_instrs is ignored.

  // Time-resolved sampling state (sim_observer.h).  Sampling only reads
  // counters between steps, so the simulated numbers are identical with
  // and without hooks; the disabled path costs one branch per iteration.
  // On a resumed run the interval series restarts from the resume point
  // (sample_index continues, deltas reconcile from here); the end-of-run
  // counters are exact either way.
  const bool sampling = hooks.sampling();
  const std::uint64_t already_done =
      committed_total_ - measure_start_committed_;
  std::uint64_t next_boundary =
      sampling ? (already_done / hooks.interval_instrs + 1) *
                     hooks.interval_instrs
               : 0;
  std::uint64_t sample_index =
      sampling ? already_done / hooks.interval_instrs : 0;
  SimCounters prev_cumulative;  // zeros; dispatched vector sized on use
  if (sampling) {
    prev_cumulative.dispatched_per_cluster.assign(
        counters_.dispatched_per_cluster.size(), 0);
    if (already_done > 0) {
      prev_cumulative = counters_.minus(measure_baseline_);
    }
  }
  auto emit_sample = [&](bool final_sample) {
    IntervalSample sample;
    sample.index = sample_index++;
    sample.interval_instrs = hooks.interval_instrs;
    sample.final_sample = final_sample;
    sample.cumulative = counters_.minus(measure_baseline_);
    sample.delta = sample.cumulative.minus(prev_cumulative);
    prev_cumulative = sample.cumulative;
    hooks.observer->on_interval(sample);
  };

  // Crash-resume snapshot cadence, fully parallel to sampling and equally
  // read-only (save_state mutates nothing).
  const bool snapshotting = hooks.snapshotting();
  std::uint64_t next_snapshot =
      snapshotting ? (already_done / hooks.snapshot_interval_instrs + 1) *
                         hooks.snapshot_interval_instrs
                   : 0;

  while (committed_total_ < measure_target_ && !drained()) {
    step();
    do_fetch(trace);
    if (sampling &&
        committed_total_ - measure_start_committed_ >= next_boundary) {
      // One sample per crossing step: a commit burst that jumps several
      // boundaries yields a single wider interval, keeping sample count
      // bounded by instructions retired.
      sync_external();
      emit_sample(/*final_sample=*/false);
      const std::uint64_t done = committed_total_ - measure_start_committed_;
      next_boundary =
          (done / hooks.interval_instrs + 1) * hooks.interval_instrs;
    }
    if (snapshotting &&
        committed_total_ - measure_start_committed_ >= next_snapshot) {
      sync_external();
      hooks.on_snapshot();
      const std::uint64_t done = committed_total_ - measure_start_committed_;
      next_snapshot = (done / hooks.snapshot_interval_instrs + 1) *
                      hooks.snapshot_interval_instrs;
    }
  }
  sync_external();
  if (sampling) {
    // Final (possibly short or empty) tail so the series always
    // reconciles exactly with the end-of-run counters.
    emit_sample(/*final_sample=*/true);
  }
  measuring_ = false;

  SimResult result;
  result.config_name = config_.name;
  result.benchmark = std::string(trace.name());
  result.counters = counters_.minus(measure_baseline_);
  result.wall_seconds = pre_run_wall_seconds_ + seconds_since(wall_start);
  pre_run_wall_seconds_ = 0.0;
  result.total_committed = committed_total_ - run_start_committed_;
  return result;
}

SimResult Processor::run(TraceSource& trace, std::uint64_t warmup_instrs,
                         std::uint64_t measure_instrs,
                         const RunHooks& hooks) {
  warmup(trace, warmup_instrs);
  return measure(trace, measure_instrs, hooks);
}

}  // namespace ringclu
