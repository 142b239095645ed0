/// \file processor_state.cpp
/// Processor checkpoint fields (Processor::transfer) and the whole-file
/// save_checkpoint/restore_checkpoint entry points.  Kept apart from
/// processor.cpp: this file is all marshalling, no timing model.
///
/// Layout note: loading requires a Processor constructed with the
/// identical ArchConfig — construction-derived structure (queue
/// capacities, cache geometry, bus distance tables, steering policy kind)
/// is built by the constructor and only verified here, while every
/// mutable field is overwritten.  Scratch that is empty between cycles
/// (deliveries_, steering_srcs_) and the per-stall steer watch are reset,
/// not serialized.

#include <algorithm>
#include <string>
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

/// Limits on a loaded event or front-end list (counts past these are
/// corrupt; the reader also checks them against the bytes left).
constexpr std::uint64_t kMaxEvents = 1u << 24;
constexpr std::uint64_t kMaxFrontEndOps = 1u << 20;

}  // namespace

template <class Io>
void Processor::transfer(Io& io) {
  // Ready and active-load lists hold ROB slots, so the ROB size bounds them.
  const auto max_rob = static_cast<std::size_t>(config_.rob_size);
  io.section(kTagCounters, [&] { counters_.transfer(io); });
  io.section(kTagValues, [&] { values_.transfer(io); });
  io.section(kTagRegs, [&] { regs_.transfer(io); });
  io.section(kTagClusters, [&] {
    if (!io.expect(clusters_.size(), "cluster count mismatch")) return;
    for (Cluster& cluster : clusters_) cluster.transfer(io, max_rob);
  });
  io.section(kTagBuses, [&] { buses_.transfer(io); });
  io.section(kTagMem, [&] { mem_.transfer(io); });
  io.section(kTagLsq, [&] { lsq_.transfer(io); });
  io.section(kTagFrontEnd, [&] { frontend_.transfer(io); });
  io.section(kTagRob, [&] { rob_.transfer(io); });

  io.section(kTagEvents, [&] {
    // Calendar-ring events as a flat list, re-bucketed by cycle on load.
    // In-bucket order is irrelevant (do_events sorts by seq).
    std::vector<Event> ring;
    if constexpr (!Io::kLoading) {
      for (const auto& bucket : event_ring_) {
        ring.insert(ring.end(), bucket.begin(), bucket.end());
      }
    }
    io.items(ring, kMaxEvents, Event::kCheckpointBytes);
    if constexpr (Io::kLoading) {
      for (auto& bucket : event_ring_) bucket.clear();
      for (const Event& event : ring) {
        event_ring_[static_cast<std::size_t>(event.cycle) &
                    (kEventRingSize - 1)]
            .push_back(event);
      }
    }
    // Ties in each heap's order are broken by a unique seq/id.
    overflow_events_.transfer(io, kMaxEvents, Event::kCheckpointBytes);
    load_due_.transfer(io, kMaxEvents, TimedRef::kCheckpointBytes);
    store_due_.transfer(io, kMaxEvents, TimedRef::kCheckpointBytes);
    comm_due_.transfer(io, kMaxEvents, CommDue::kCheckpointBytes);
    // Active and parked loads as one list in arrival order; the first
    // memory stage after a load asks each again and re-parks the gated.
    if constexpr (Io::kLoading) {
      io.items(active_loads_, max_rob, ActiveLoad::kCheckpointBytes);
    } else {
      std::vector<ActiveLoad> loads(active_loads_);
      for (const std::vector<ActiveLoad>& parked : parked_) {
        loads.insert(loads.end(), parked.begin(), parked.end());
      }
      std::sort(loads.begin(), loads.end(),
                [](const ActiveLoad& a, const ActiveLoad& b) {
                  return a.arrival < b.arrival;
                });
      io.items(loads, max_rob, ActiveLoad::kCheckpointBytes);
    }
    io.u64(events_pending_);
  });

  io.section(kTagRename, [&] {
    for (ValueId& id : rename_) io.u32(id);
  });

  io.section(kTagMisc, [&] {
    io.u64(ready_total_);
    io.i64(cycle_);
    io.u64(next_seq_);
    io.u64(next_comm_id_);
    io.u64(committed_total_);
    io.i64(last_commit_cycle_);
    io.boolean(fetch_blocked_);
    io.u64(fetch_blocked_seq_);
    io.i64(icache_stall_until_);
    io.u64(last_fetch_line_);
    io.boolean(trace_exhausted_);
    io.boolean(have_peeked_);
    peeked_.transfer(io);
    io.items(fetchq_, kMaxFrontEndOps, FrontEndOp::kCheckpointBytes);
    io.items(decodeq_, kMaxFrontEndOps, FrontEndOp::kCheckpointBytes);
    io.i64(dcache_ports_used_);
  });

  io.section(kTagRunState, [&] {
    io.boolean(measuring_);
    io.boolean(warmup_pending_);
    measure_baseline_.transfer(io);
    io.u64(measure_target_);
    io.u64(measure_start_committed_);
    io.u64(run_start_committed_);  // save-only: rebuild_derived() resets it
  });

  io.section(kTagSteering, [&] {
    std::string policy_name(policy_->name());
    io.str(policy_name);
    if (!io.check(policy_name == policy_->name(), "steering policy mismatch")) {
      return;
    }
    if constexpr (Io::kLoading) {
      policy_->restore_state(io);
    } else {
      policy_->save_state(io);
    }
  });

  if constexpr (Io::kLoading) {
    if (io.ok()) rebuild_derived(io);
  }
}
template void Processor::transfer(CheckpointWriter&);
template void Processor::transfer(CheckpointReader&);

void Processor::rebuild_derived(CheckpointReader& in) {
  std::size_t events = overflow_events_.size();
  for (const auto& bucket : event_ring_) events += bucket.size();
  if (!in.check(counters_.dispatched_per_cluster.size() == clusters_.size(),
                "cluster count mismatch") ||
      !in.check(events_pending_ == events, "events_pending mismatch")) {
    return;
  }
  // LSQ ordinals restart at 0, oldest first: the ROB's memory ops, walked
  // from the head, must be exactly the LSQ's entries in the same order.
  lsq_ord_.assign(lsq_ord_.size(), 0);
  std::uint64_t ord = lsq_.head_ordinal();
  for (std::size_t i = 0; i < rob_.size(); ++i) {
    const auto index = static_cast<std::uint32_t>(
        (rob_.head_index() + i) % rob_.capacity());
    if (!rob_.at(index).op.is_mem()) continue;
    if (!in.check(ord - lsq_.head_ordinal() < lsq_.size() &&
                      lsq_.seq_at(ord) == rob_.seq(index),
                  "rob/lsq mismatch in checkpoint")) {
      return;
    }
    lsq_ord_[index] = ord++;
  }
  if (!in.check(ord - lsq_.head_ordinal() == lsq_.size(),
                "rob/lsq mismatch in checkpoint")) {
    return;
  }
  // The loaded loads are renumbered by arrival and none is parked.
  for (std::vector<ActiveLoad>& parked : parked_) parked.clear();
  parked_total_ = 0;
  for (std::size_t i = 0; i < active_loads_.size(); ++i) {
    active_loads_[i].arrival = i;
  }
  next_arrival_ = active_loads_.size();
  // The saved run start is kept in the format but not reused: the commits
  // before this checkpoint were restored, not simulated by this run, so
  // total_committed (and the throughput derived from it) counts from here.
  run_start_committed_ = committed_total_;
  // Per-cycle scratch: empty between cycles by construction.
  deliveries_.clear();
  steering_srcs_.clear();
  // No stall is held: the first dispatch asks the policy again.
  steer_stall_holds_ = false;
  steer_watch_.clear();
  steer_watch_unit_ = UnitKind::Int;
  steer_watch_srcs_.clear();
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
  out.section(kTagTrace, [&] { trace.save_pos(out); });
  out.section(kTagProcessor, [&] { out.save(processor); });
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
  in.section(kTagTrace, [&] { trace.restore_pos(in); });
  in.section(kTagProcessor, [&] { processor.transfer(in); });
  if (!in.ok()) {
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
