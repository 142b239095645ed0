/// \file processor_state.cpp
/// Processor checkpoint serialization (save_state/restore_state) and the
/// whole-file save_checkpoint/restore_checkpoint entry points.  Kept apart
/// from processor.cpp: this file is all marshalling, no timing model.
///
/// Layout note: restore_state requires a Processor freshly constructed
/// with the identical ArchConfig — construction-derived structure (queue
/// capacities, cache geometry, bus distance tables, steering policy kind)
/// is rebuilt by the constructor and only verified here, while every
/// mutable field is overwritten.  Scratch buffers that are empty between
/// cycles (deliveries_, steering_srcs_) are cleared, not serialized.

#include <algorithm>
#include <queue>
#include <vector>

#include "core/checkpoint.h"
#include "core/processor.h"
#include "util/format.h"

namespace ringclu {
namespace {

constexpr std::uint32_t kTagCounters = checkpoint_tag('C', 'N', 'T', 'R');
constexpr std::uint32_t kTagValues = checkpoint_tag('V', 'M', 'A', 'P');
constexpr std::uint32_t kTagRegs = checkpoint_tag('R', 'E', 'G', 'F');
constexpr std::uint32_t kTagClusters = checkpoint_tag('C', 'L', 'U', 'S');
constexpr std::uint32_t kTagBuses = checkpoint_tag('B', 'U', 'S', 'S');
constexpr std::uint32_t kTagMem = checkpoint_tag('M', 'E', 'M', 'H');
constexpr std::uint32_t kTagLsq = checkpoint_tag('L', 'S', 'Q', 'Q');
constexpr std::uint32_t kTagFrontEnd = checkpoint_tag('F', 'E', 'N', 'D');
constexpr std::uint32_t kTagRob = checkpoint_tag('R', 'O', 'B', 'B');
constexpr std::uint32_t kTagEvents = checkpoint_tag('E', 'V', 'N', 'T');
constexpr std::uint32_t kTagRename = checkpoint_tag('R', 'E', 'N', 'M');
constexpr std::uint32_t kTagMisc = checkpoint_tag('M', 'I', 'S', 'C');
constexpr std::uint32_t kTagRunState = checkpoint_tag('R', 'U', 'N', 'S');
constexpr std::uint32_t kTagSteering = checkpoint_tag('S', 'T', 'E', 'E');
constexpr std::uint32_t kTagTrace = checkpoint_tag('T', 'R', 'A', 'C');
constexpr std::uint32_t kTagProcessor = checkpoint_tag('P', 'R', 'O', 'C');

/// Pops a copied priority queue into ascending order.  Safe for
/// serialization because each queue's comparator is a total order on its
/// actual contents (ties broken by unique seq/id), so the pop sequence is
/// independent of internal heap layout.
template <typename Queue>
[[nodiscard]] std::vector<typename Queue::value_type> drain_copy(
    Queue queue) {
  std::vector<typename Queue::value_type> out;
  out.reserve(queue.size());
  while (!queue.empty()) {
    out.push_back(queue.top());
    queue.pop();
  }
  return out;
}

}  // namespace

void Processor::save_state(CheckpointWriter& out) const {
  out.begin_section(kTagCounters);
  counters_.save_state(out);
  out.end_section();

  out.begin_section(kTagValues);
  values_.save_state(out);
  out.end_section();

  out.begin_section(kTagRegs);
  regs_.save_state(out);
  out.end_section();

  out.begin_section(kTagClusters);
  out.u64(clusters_.size());
  for (const Cluster& cluster : clusters_) {
    cluster.int_iq.save_state(out);
    cluster.fp_iq.save_state(out);
    cluster.comm_queue.save_state(out);
    cluster.fus.save_state(out);
    out.u64(cluster.int_ready.size());
    for (const ReadyRef& ref : cluster.int_ready) {
      out.u32(ref.rob_index);
      out.u64(ref.seq);
    }
    out.u64(cluster.fp_ready.size());
    for (const ReadyRef& ref : cluster.fp_ready) {
      out.u32(ref.rob_index);
      out.u64(ref.seq);
    }
    out.vec_u64(cluster.comm_ready);
  }
  out.end_section();

  out.begin_section(kTagBuses);
  buses_.save_state(out);
  out.end_section();

  out.begin_section(kTagMem);
  mem_.save_state(out);
  out.end_section();

  out.begin_section(kTagLsq);
  lsq_.save_state(out);
  out.end_section();

  out.begin_section(kTagFrontEnd);
  frontend_.save_state(out);
  out.end_section();

  out.begin_section(kTagRob);
  rob_.save_state(out);
  out.end_section();

  out.begin_section(kTagEvents);
  {
    // Calendar-ring events as a flat list; each re-buckets by its cycle on
    // restore.  In-bucket order is irrelevant (do_events sorts by seq).
    std::uint64_t ring_count = 0;
    for (const auto& bucket : event_ring_) ring_count += bucket.size();
    out.u64(ring_count);
    for (const auto& bucket : event_ring_) {
      for (const Event& event : bucket) {
        out.i64(event.cycle);
        out.u8(static_cast<std::uint8_t>(event.kind));
        out.u32(event.rob_index);
        out.u64(event.seq);
      }
    }
    const std::vector<Event> overflow = drain_copy(overflow_events_);
    out.u64(overflow.size());
    for (const Event& event : overflow) {
      out.i64(event.cycle);
      out.u8(static_cast<std::uint8_t>(event.kind));
      out.u32(event.rob_index);
      out.u64(event.seq);
    }
    for (const auto* queue : {&load_due_, &store_due_}) {
      const std::vector<TimedRef> refs = drain_copy(*queue);
      out.u64(refs.size());
      for (const TimedRef& ref : refs) {
        out.i64(ref.cycle);
        out.u64(ref.seq);
        out.u32(ref.rob_index);
      }
    }
    const std::vector<CommDue> comms = drain_copy(comm_due_);
    out.u64(comms.size());
    for (const CommDue& due : comms) {
      out.i64(due.cycle);
      out.u64(due.id);
      out.u8(due.cluster);
    }
    // Active and parked loads as one list in arrival order.
    std::vector<ActiveLoad> loads(active_loads_);
    for (const std::vector<ActiveLoad>& parked : parked_) {
      loads.insert(loads.end(), parked.begin(), parked.end());
    }
    std::sort(loads.begin(), loads.end(),
              [](const ActiveLoad& a, const ActiveLoad& b) {
                return a.arrival < b.arrival;
              });
    std::vector<std::uint64_t> active;
    active.reserve(loads.size());
    for (const ActiveLoad& load : loads) active.push_back(load.rob_index);
    out.vec_u64(active);
    out.u64(events_pending_);
  }
  out.end_section();

  out.begin_section(kTagRename);
  for (ValueId id : rename_) out.u32(id);
  out.end_section();

  out.begin_section(kTagMisc);
  out.u64(ready_total_);
  out.i64(cycle_);
  out.u64(next_seq_);
  out.u64(next_comm_id_);
  out.u64(committed_total_);
  out.i64(last_commit_cycle_);
  out.boolean(fetch_blocked_);
  out.u64(fetch_blocked_seq_);
  out.i64(icache_stall_until_);
  out.u64(last_fetch_line_);
  out.boolean(trace_exhausted_);
  out.boolean(have_peeked_);
  save_micro_op(out, peeked_);
  for (const auto* queue : {&fetchq_, &decodeq_}) {
    out.u64(queue->size());
    for (const FrontEndOp& op : *queue) {
      save_micro_op(out, op.op);
      out.u64(op.seq);
      out.i64(op.stage_cycle);
    }
  }
  out.i64(dcache_ports_used_);
  out.end_section();

  out.begin_section(kTagRunState);
  out.boolean(measuring_);
  out.boolean(warmup_pending_);
  measure_baseline_.save_state(out);
  out.u64(measure_target_);
  out.u64(measure_start_committed_);
  out.u64(run_start_committed_);
  out.end_section();

  out.begin_section(kTagSteering);
  out.str(policy_->name());
  policy_->save_state(out);
  out.end_section();
}

void Processor::restore_state(CheckpointReader& in) {
  if (!in.begin_section(kTagCounters)) return;
  counters_.restore_state(in);
  if (!in.end_section()) return;
  if (in.ok() &&
      counters_.dispatched_per_cluster.size() != clusters_.size()) {
    in.fail("cluster count mismatch");
    return;
  }

  if (!in.begin_section(kTagValues)) return;
  values_.restore_state(in);
  if (!in.end_section()) return;

  if (!in.begin_section(kTagRegs)) return;
  regs_.restore_state(in);
  if (!in.end_section()) return;

  if (!in.begin_section(kTagClusters)) return;
  if (in.u64() != clusters_.size()) {
    in.fail("cluster count mismatch");
    return;
  }
  for (Cluster& cluster : clusters_) {
    cluster.int_iq.restore_state(in);
    cluster.fp_iq.restore_state(in);
    cluster.comm_queue.restore_state(in);
    cluster.fus.restore_state(in);
    for (auto* ready : {&cluster.int_ready, &cluster.fp_ready}) {
      const std::uint64_t count = in.u64();
      if (!in.ok() || count > rob_.capacity()) {
        in.fail("ready list out of range");
        return;
      }
      ready->clear();
      for (std::uint64_t i = 0; i < count; ++i) {
        ReadyRef ref;
        ref.rob_index = in.u32();
        ref.seq = in.u64();
        ready->push_back(ref);
      }
    }
    in.vec_u64(cluster.comm_ready);
  }
  if (!in.end_section()) return;

  if (!in.begin_section(kTagBuses)) return;
  buses_.restore_state(in);
  if (!in.end_section()) return;

  if (!in.begin_section(kTagMem)) return;
  mem_.restore_state(in);
  if (!in.end_section()) return;

  if (!in.begin_section(kTagLsq)) return;
  lsq_.restore_state(in);
  if (!in.end_section()) return;

  if (!in.begin_section(kTagFrontEnd)) return;
  frontend_.restore_state(in);
  if (!in.end_section()) return;

  if (!in.begin_section(kTagRob)) return;
  rob_.restore_state(in);
  if (!in.end_section()) return;

  // LSQ ordinals restart at 0, oldest first: the ROB's memory ops, walked
  // from the head, must be exactly the LSQ's entries in the same order.
  {
    std::uint64_t ord = lsq_.head_ordinal();
    for (std::size_t i = 0; i < rob_.size(); ++i) {
      const auto index = static_cast<std::uint32_t>(
          (rob_.head_index() + i) % rob_.capacity());
      if (!rob_.at(index).op.is_mem()) continue;
      if (ord - lsq_.head_ordinal() >= lsq_.size() ||
          lsq_.seq_at(ord) != rob_.seq(index)) {
        in.fail("rob/lsq mismatch in checkpoint");
        return;
      }
      lsq_ord_[index] = ord++;
    }
    if (ord - lsq_.head_ordinal() != lsq_.size()) {
      in.fail("rob/lsq mismatch in checkpoint");
      return;
    }
  }

  if (!in.begin_section(kTagEvents)) return;
  {
    for (auto& bucket : event_ring_) bucket.clear();
    const std::uint64_t ring_count = in.u64();
    if (!in.ok() || ring_count > (1u << 24)) {
      in.fail("event count out of range");
      return;
    }
    for (std::uint64_t i = 0; i < ring_count; ++i) {
      Event event{0, EventKind::Complete, 0, 0};
      event.cycle = in.i64();
      event.kind = static_cast<EventKind>(in.u8());
      event.rob_index = in.u32();
      event.seq = in.u64();
      event_ring_[static_cast<std::size_t>(event.cycle) &
                  (kEventRingSize - 1)]
          .push_back(event);
    }
    overflow_events_ = {};
    const std::uint64_t overflow_count = in.u64();
    if (!in.ok() || overflow_count > (1u << 24)) {
      in.fail("event count out of range");
      return;
    }
    for (std::uint64_t i = 0; i < overflow_count; ++i) {
      Event event{0, EventKind::Complete, 0, 0};
      event.cycle = in.i64();
      event.kind = static_cast<EventKind>(in.u8());
      event.rob_index = in.u32();
      event.seq = in.u64();
      overflow_events_.push(event);
    }
    for (auto* queue : {&load_due_, &store_due_}) {
      *queue = {};
      const std::uint64_t count = in.u64();
      if (!in.ok() || count > (1u << 24)) {
        in.fail("timed-ref count out of range");
        return;
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        TimedRef ref{0, 0, 0};
        ref.cycle = in.i64();
        ref.seq = in.u64();
        ref.rob_index = in.u32();
        queue->push(ref);
      }
    }
    comm_due_ = {};
    const std::uint64_t comm_count = in.u64();
    if (!in.ok() || comm_count > (1u << 24)) {
      in.fail("comm-due count out of range");
      return;
    }
    for (std::uint64_t i = 0; i < comm_count; ++i) {
      CommDue due{0, 0, 0};
      due.cycle = in.i64();
      due.id = in.u64();
      due.cluster = in.u8();
      comm_due_.push(due);
    }
    std::vector<std::uint64_t> active;
    in.vec_u64(active);
    // Every saved load is asked once on the next memory stage, which
    // re-parks the gated ones: the parking lists are derived state.
    active_loads_.clear();
    for (std::vector<ActiveLoad>& parked : parked_) parked.clear();
    parked_total_ = 0;
    for (const std::uint64_t rob_index : active) {
      active_loads_.push_back(ActiveLoad{
          static_cast<std::uint32_t>(rob_index), active_loads_.size()});
    }
    next_arrival_ = active_loads_.size();
    events_pending_ = in.u64();
    if (in.ok() &&
        events_pending_ != ring_count + overflow_count) {
      in.fail("events_pending mismatch");
      return;
    }
  }
  if (!in.end_section()) return;

  if (!in.begin_section(kTagRename)) return;
  for (ValueId& id : rename_) id = in.u32();
  if (!in.end_section()) return;

  if (!in.begin_section(kTagMisc)) return;
  ready_total_ = in.u64();
  cycle_ = in.i64();
  next_seq_ = in.u64();
  next_comm_id_ = in.u64();
  committed_total_ = in.u64();
  last_commit_cycle_ = in.i64();
  fetch_blocked_ = in.boolean();
  fetch_blocked_seq_ = in.u64();
  icache_stall_until_ = in.i64();
  last_fetch_line_ = in.u64();
  trace_exhausted_ = in.boolean();
  have_peeked_ = in.boolean();
  restore_micro_op(in, peeked_);
  for (auto* queue : {&fetchq_, &decodeq_}) {
    queue->clear();
    const std::uint64_t count = in.u64();
    if (!in.ok() || count > (1u << 20)) {
      in.fail("front-end queue out of range");
      return;
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      FrontEndOp op;
      restore_micro_op(in, op.op);
      op.seq = in.u64();
      op.stage_cycle = in.i64();
      queue->push_back(op);
    }
  }
  dcache_ports_used_ = static_cast<int>(in.i64());
  if (!in.end_section()) return;

  if (!in.begin_section(kTagRunState)) return;
  measuring_ = in.boolean();
  warmup_pending_ = in.boolean();
  measure_baseline_.restore_state(in);
  measure_target_ = in.u64();
  measure_start_committed_ = in.u64();
  // The saved run start is kept in the format but not reused: the commits
  // before this checkpoint were restored, not simulated by this run, so
  // total_committed (and the throughput derived from it) counts from here.
  (void)in.u64();
  run_start_committed_ = committed_total_;
  if (!in.end_section()) return;

  if (!in.begin_section(kTagSteering)) return;
  const std::string policy_name = in.str();
  if (in.ok() && policy_name != policy_->name()) {
    in.fail(str_format("steering policy mismatch: checkpoint has '%s', "
                       "config builds '%s'",
                       policy_name.c_str(),
                       std::string(policy_->name()).c_str()));
    return;
  }
  policy_->restore_state(in);
  if (!in.end_section()) return;

  // Per-cycle scratch: empty between cycles by construction.
  deliveries_.clear();
  steering_srcs_.clear();
  steer_stall_holds_ = false;
  // Host-side wall accounting restarts; the harness adds restore time.
  pre_run_wall_seconds_ = 0.0;
}

bool save_checkpoint(const std::string& path, const Processor& processor,
                     const TraceSource& trace, const CheckpointMeta& meta,
                     std::string* error) {
  CheckpointWriter out;
  out.u64(kCheckpointMagic);
  out.u32(kCheckpointFormatVersion);
  out.i64(kSimSchemaVersion);
  out.str(processor.config().fingerprint());
  out.str(trace.name());
  out.u64(meta.seed);
  out.u64(processor.committed_total());
  out.u64(trace.position());
  out.f64(meta.prefix_wall_seconds);
  out.begin_section(kTagTrace);
  trace.save_pos(out);
  out.end_section();
  out.begin_section(kTagProcessor);
  processor.save_state(out);
  out.end_section();
  return out.write_file(path, error);
}

namespace {

/// Reads and validates the fixed header; fills \p meta.
bool read_header(CheckpointReader& in, CheckpointMeta& meta,
                 std::string* error) {
  if (in.u64() != kCheckpointMagic) {
    if (error) *error = "not a checkpoint file (bad magic)";
    return false;
  }
  meta.format_version = in.u32();
  meta.sim_schema = static_cast<std::int32_t>(in.i64());
  meta.config_fingerprint = in.str();
  meta.workload = in.str();
  meta.seed = in.u64();
  meta.committed = in.u64();
  meta.trace_position = in.u64();
  meta.prefix_wall_seconds = in.f64();
  if (!in.ok()) {
    if (error) *error = in.error();
    return false;
  }
  if (meta.format_version != kCheckpointFormatVersion) {
    if (error) {
      *error = str_format("checkpoint format version %u, expected %u",
                          meta.format_version, kCheckpointFormatVersion);
    }
    return false;
  }
  if (meta.sim_schema != kSimSchemaVersion) {
    if (error) {
      *error = str_format("checkpoint schema %d, expected %d",
                          meta.sim_schema, kSimSchemaVersion);
    }
    return false;
  }
  return true;
}

}  // namespace

bool restore_checkpoint(const std::string& path, Processor& processor,
                        TraceSource& trace,
                        const CheckpointExpectation& expect,
                        CheckpointMeta* meta, std::string* error) {
  auto reader = CheckpointReader::from_file(path, error);
  if (!reader) return false;
  CheckpointReader& in = *reader;
  CheckpointMeta header;
  if (!read_header(in, header, error)) return false;
  if (header.config_fingerprint != expect.config_fingerprint) {
    if (error) *error = "checkpoint configuration fingerprint mismatch";
    return false;
  }
  if (header.workload != expect.workload) {
    if (error) *error = "checkpoint workload mismatch";
    return false;
  }
  if (header.seed != expect.seed) {
    if (error) *error = "checkpoint seed mismatch";
    return false;
  }
  if (!in.begin_section(kTagTrace)) {
    if (error) *error = in.error();
    return false;
  }
  trace.restore_pos(in);
  if (!in.end_section()) {
    if (error) *error = in.error();
    return false;
  }
  if (!in.begin_section(kTagProcessor)) {
    if (error) *error = in.error();
    return false;
  }
  processor.restore_state(in);
  if (!in.ok() || !in.end_section()) {
    if (error) *error = in.error();
    return false;
  }
  if (meta) *meta = header;
  return true;
}

std::optional<CheckpointMeta> read_checkpoint_meta(const std::string& path,
                                                   std::string* error) {
  auto reader = CheckpointReader::from_file(path, error);
  if (!reader) return std::nullopt;
  CheckpointMeta meta;
  if (!read_header(*reader, meta, error)) return std::nullopt;
  return meta;
}

}  // namespace ringclu
