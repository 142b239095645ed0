#pragma once

/// \file processor.h
/// The cycle-level clustered out-of-order processor model.  One Processor
/// simulates either machine (Ring or Conv) — the differences are confined
/// to the destination-home rule (next cluster vs. same cluster), the bus
/// orientation and the steering policy.
///
/// Stage order within a cycle (reverse pipeline order, so same-cycle
/// producer->consumer flows are modeled without double-stepping):
///   events -> commit -> bus -> memory -> issue -> dispatch -> decode ->
///   fetch.
///
/// Trace-driven, correct-path-only: a mispredicted branch stalls fetch
/// until it resolves instead of injecting wrong-path work (see DESIGN.md).
///
/// After a cycle in which no stage changed state, the clock jumps to the
/// cycle before the next timed trigger, adding the skipped cycles'
/// per-cycle sums in one step (DESIGN.md §6): observably identical to
/// stepping through them.

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "bpred/predictor.h"
#include "cluster/fu.h"
#include "cluster/issue_queue.h"
#include "cluster/regfile.h"
#include "cluster/value_map.h"
#include "core/arch_config.h"
#include "core/checkpoint.h"
#include "core/dyn_inst.h"
#include "core/sim_observer.h"
#include "core/sim_result.h"
#include "interconnect/bus_set.h"
#include "mem/hierarchy.h"
#include "mem/lsq.h"
#include "steer/steering.h"
#include "trace/trace_source.h"
#include "util/min_heap.h"

namespace ringclu {

class Processor final : public SteerOracle {
 public:
  explicit Processor(const ArchConfig& config, std::uint64_t seed = 1);

  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  /// Runs \p warmup_instrs committed instructions to warm caches/predictors,
  /// then measures until another \p measure_instrs commit.  With sampling
  /// hooks attached (sim_observer.h), the measurement window additionally
  /// emits one IntervalSample per hooks.interval_instrs committed
  /// instructions; sampling is read-only and leaves the returned counters
  /// bit-identical to an unhooked run.
  [[nodiscard]] SimResult run(TraceSource& trace, std::uint64_t warmup_instrs,
                              std::uint64_t measure_instrs,
                              const RunHooks& hooks = {});

  /// Phase-split API: run() is exactly warmup() followed by measure().
  /// Splitting lets the harness checkpoint between the phases (save after
  /// warmup, or restore a warmup checkpoint and call measure() directly)
  /// with bit-identical results to a monolithic run().
  void warmup(TraceSource& trace, std::uint64_t warmup_instrs);
  [[nodiscard]] SimResult measure(TraceSource& trace,
                                  std::uint64_t measure_instrs,
                                  const RunHooks& hooks = {});

  /// True between the first step of a measure() and its return — i.e. when
  /// a snapshot taken now would resume mid-measurement.
  [[nodiscard]] bool mid_measure() const { return measuring_; }

  /// Attributes host wall-clock spent outside warmup()/measure() (e.g.
  /// checkpoint restore) to the next measure()'s wall_seconds.
  void add_pre_run_wall_seconds(double seconds) {
    pre_run_wall_seconds_ += seconds;
  }

  /// Committed instructions since construction (warmup included).
  [[nodiscard]] std::uint64_t committed_total() const {
    return committed_total_;
  }

  /// Checkpoint fields (core/checkpoint.h): the complete
  /// microarchitectural state (pipeline, queues, caches, predictor,
  /// values, steering, counters and measurement-phase bookkeeping).
  /// Loading requires a Processor constructed with the identical
  /// ArchConfig, overwrites all of its state and leaves it bit-identical
  /// to the one that was saved.
  template <class Io>
  void transfer(Io& io);

  /// Equal simulation state.  Two processors loaded from the same bytes
  /// compare equal exactly when transfer() covers every member (the
  /// CheckpointEquality tests).
  friend bool operator==(const Processor&, const Processor&) = default;

  // --- SteerOracle -------------------------------------------------------
  [[nodiscard]] bool iq_can_accept(int cluster, UnitKind kind) const override;
  [[nodiscard]] int comm_free_entries(int cluster) const override;
  [[nodiscard]] bool regs_obtainable(int cluster, RegClass cls,
                                     int count) const override;
  [[nodiscard]] int free_regs(int cluster, RegClass cls) const override;
  [[nodiscard]] int free_regs_total(int cluster) const override;

  /// Current cycle (exposed for tests).
  [[nodiscard]] std::int64_t now() const { return cycle_; }

  /// Diagnostic dump of pipeline/queue/register state.
  void dump_state(std::FILE* out) const;
  [[nodiscard]] const ArchConfig& config() const { return config_; }
  [[nodiscard]] const SimCounters& counters() const { return counters_; }
  [[nodiscard]] const ValueMap& values() const { return values_; }

  // --- Introspection (invariant tests / debugging) -----------------------
  [[nodiscard]] std::size_t rob_size() const { return rob_.size(); }
  [[nodiscard]] std::size_t lsq_size() const { return lsq_.size(); }
  /// Gated loads parked on their blocking stores right now.
  [[nodiscard]] std::size_t parked_loads() const { return parked_total_; }
  /// Dispatch is holding a remembered steer stall (DESIGN.md §6).
  [[nodiscard]] bool steer_stall_held() const { return steer_stall_holds_; }
  [[nodiscard]] std::size_t frontend_queue_size() const {
    return fetchq_.size() + decodeq_.size();
  }
  [[nodiscard]] int regs_in_use() const { return regs_.total_in_use(); }
  /// Instructions that entered the pipeline (assigned a sequence number).
  [[nodiscard]] std::uint64_t fetched() const { return next_seq_ - 1; }

 private:
  /// A ready-but-unissued issue-queue entry (all sources readable).  Ready
  /// lists are kept seq-sorted so selection stays oldest-first, exactly
  /// like the historical full-queue scan.
  struct ReadyRef {
    std::uint32_t rob_index = 0;
    std::uint64_t seq = 0;

    static constexpr std::size_t kCheckpointBytes = 12;
    template <class Io>
    void transfer(Io& io) {
      io.u32(rob_index);
      io.u64(seq);
    }

    friend bool operator==(const ReadyRef&, const ReadyRef&) = default;
  };

  struct Cluster {
    IssueQueue int_iq;
    IssueQueue fp_iq;
    CommQueue comm_queue;
    FuPool fus;
    /// Ready sets of the event-driven scheduler: entries whose operands are
    /// all readable this cycle but which have not issued yet.
    std::vector<ReadyRef> int_ready;
    std::vector<ReadyRef> fp_ready;
    /// Ready comms (ids into comm_queue), ascending == queue order.
    std::vector<std::uint64_t> comm_ready;
    Cluster(int iq_int, int iq_fp, int iq_comm, int width)
        : int_iq(static_cast<std::size_t>(iq_int)),
          fp_iq(static_cast<std::size_t>(iq_fp)),
          comm_queue(static_cast<std::size_t>(iq_comm)),
          fus(width) {}

    /// \p max_ready bounds each ready list (the ROB capacity).
    template <class Io>
    void transfer(Io& io, std::size_t max_ready) {
      int_iq.transfer(io);
      fp_iq.transfer(io);
      comm_queue.transfer(io);
      fus.transfer(io);
      io.items(int_ready, max_ready, ReadyRef::kCheckpointBytes);
      io.items(fp_ready, max_ready, ReadyRef::kCheckpointBytes);
      io.vec_u64(comm_ready);
    }

    friend bool operator==(const Cluster&, const Cluster&) = default;
  };

  struct FrontEndOp {
    MicroOp op;
    std::uint64_t seq = 0;
    std::int64_t stage_cycle = 0;  ///< cycle the op entered this queue

    static constexpr std::size_t kCheckpointBytes = 58 + 16;
    template <class Io>
    void transfer(Io& io) {
      op.transfer(io);
      io.u64(seq);
      io.i64(stage_cycle);
    }

    friend bool operator==(const FrontEndOp&, const FrontEndOp&) = default;
  };

  enum class EventKind : std::uint8_t {
    Complete,
    AddrReady,
    /// All operands of an issue-queue entry become readable this cycle:
    /// move it to its cluster's ready list (before issue runs).
    IqReady,
  };

  struct Event {
    std::int64_t cycle;
    EventKind kind;
    std::uint32_t rob_index;
    std::uint64_t seq;  ///< disambiguates reused ROB slots in ordering
    bool operator>(const Event& other) const {
      return cycle != other.cycle ? cycle > other.cycle : seq > other.seq;
    }

    static constexpr std::size_t kCheckpointBytes = 21;
    template <class Io>
    void transfer(Io& io) {
      io.i64(cycle);
      io.u8(kind);
      io.u32(rob_index);
      io.u64(seq);
    }

    friend bool operator==(const Event&, const Event&) = default;
  };

  /// Min-heap entry for time-bucketed memory operations (loads awaiting
  /// their window, stores awaiting data).  Ordered (cycle, seq) so
  /// same-cycle processing matches the historical sweep order.
  struct TimedRef {
    std::int64_t cycle;
    std::uint64_t seq;
    std::uint32_t rob_index;
    bool operator>(const TimedRef& other) const {
      return cycle != other.cycle ? cycle > other.cycle : seq > other.seq;
    }

    static constexpr std::size_t kCheckpointBytes = 20;
    template <class Io>
    void transfer(Io& io) {
      io.i64(cycle);
      io.u64(seq);
      io.u32(rob_index);
    }

    friend bool operator==(const TimedRef&, const TimedRef&) = default;
  };

  /// Min-heap entry for comms whose value becomes readable at a known
  /// future cycle.
  struct CommDue {
    std::int64_t cycle;
    std::uint64_t id;
    std::uint8_t cluster;
    bool operator>(const CommDue& other) const {
      return cycle != other.cycle ? cycle > other.cycle : id > other.id;
    }

    static constexpr std::size_t kCheckpointBytes = 17;
    template <class Io>
    void transfer(Io& io) {
      io.i64(cycle);
      io.u64(id);
      io.u8(cluster);
    }

    friend bool operator==(const CommDue&, const CommDue&) = default;
  };

  /// A load past its due cycle.  arrival orders loads as they left
  /// load_due_, which is the d-cache port arbitration order.
  struct ActiveLoad {
    std::uint32_t rob_index;
    std::uint64_t arrival;
    /// Answered Proceed but denied a d-cache port.  Proceed is final (no
    /// older store can appear, addresses never change), so the load is
    /// not asked again.
    bool cleared = false;

    /// Loading renumbers the loads by arrival and asks each one again.
    static constexpr std::size_t kCheckpointBytes = 8;
    template <class Io>
    void transfer(Io& io) {
      io.u64(rob_index);
    }

    friend bool operator==(const ActiveLoad&, const ActiveLoad&) = default;
  };

  /// What a fired value-waiter token wakes.  Packing: kind in the top two
  /// bits, cluster (used by Comm wakes) in the next four, payload index
  /// (ROB slot or comm id) in the low 58.
  enum class WakeKind : std::uint64_t { IqEntry = 0, StoreData = 1, Comm = 2 };

  [[nodiscard]] static std::uint64_t wake_token(WakeKind kind, int cluster,
                                                std::uint64_t index) {
    return (static_cast<std::uint64_t>(kind) << 62) |
           (static_cast<std::uint64_t>(cluster) << 58) | index;
  }

  /// After a load: checks the loaded sections against each other, then
  /// rebuilds lsq_ord_, the load parking, the run start, the per-cycle
  /// scratch and the steer-stall memo.
  void rebuild_derived(CheckpointReader& in);

  /// True when the trace ended and the pipeline fully emptied.
  [[nodiscard]] bool drained() const;
  /// Copies component-owned statistics (front end, caches, LSQ) into
  /// counters_; called at phase boundaries and before sampling/snapshots.
  void sync_external();

  /// One cycle (step() then fetch), followed by the quiescent-cycle skip
  /// when no stage changed state.
  void advance(TraceSource& trace);

  // Pipeline stages.  Each returns true when it changed simulator state
  // beyond the per-cycle sums the quiescent-cycle skip accounts for.
  [[nodiscard]] bool step();
  [[nodiscard]] bool do_events();
  [[nodiscard]] bool do_commit();
  [[nodiscard]] bool do_bus();
  [[nodiscard]] bool do_memory();
  [[nodiscard]] bool do_issue();
  [[nodiscard]] bool do_dispatch();
  [[nodiscard]] bool do_decode();
  [[nodiscard]] bool do_fetch(TraceSource& trace);

  // Quiescent-cycle skip.
  /// Earliest cycle after now at which a timed trigger can make a stage
  /// act: an event bucket, a load/store/comm due time, the end of an
  /// i-cache stall, or the watchdog.
  [[nodiscard]] std::int64_t next_trigger() const;
  /// Advances the clock over the quiet cycles before next_trigger(),
  /// repeating the last (quiet) cycle's per-cycle sums; \p stalls_before
  /// holds the stall counters as that cycle began.
  void skip_quiet_cycles(const std::array<std::uint64_t, 4>& stalls_before);

  // Issue helpers.
  void issue_ready_list(int cluster, IssueQueue& queue,
                        std::vector<ReadyRef>& ready, int width,
                        std::uint32_t& unissued_ready, int& issued);
  void issue_instruction(int cluster, std::uint32_t rob_index);
  void issue_comms(int cluster);

  // Event-driven wakeup plumbing.
  /// Sets readability and immediately wakes subscribed consumers.
  void set_readable_waking(ValueId id, int cluster, std::int64_t cycle);
  void handle_wake(std::uint64_t token, std::int64_t readable_cycle);
  /// Queues an operand-ready issue-queue entry for its cluster's ready
  /// list: immediately when \p ready_cycle has passed, else via an IqReady
  /// event.
  void schedule_iq_ready(std::uint32_t rob_index, std::int64_t ready_cycle);
  void push_ready(std::uint32_t rob_index);
  void insert_comm_ready(int cluster, std::uint64_t id);
  /// Moves comms whose operands became readable this cycle into their
  /// clusters' ready lists; true if it moved any.
  bool drain_comm_wakeups();

  // Dispatch helpers.
  [[nodiscard]] SteerRequest build_request(const MicroOp& op) const;
  /// Remembers a pure steer stall of an op with \p request, watching the
  /// resources the steer() call recorded in steer_watch_.
  void hold_steer_stall(const MicroOp& op, const SteerRequest& request);
  /// True when a source of the held stall changed its produced bit or
  /// mapped mask, or a watched (cluster, class) gained an idle copy.
  [[nodiscard]] bool steer_watch_woken() const;
  /// Wake hooks: a resource of \p cluster gained capacity.
  void wake_steer_iq(int cluster, UnitKind kind) {
    if (kind == steer_watch_unit_ && ((steer_watch_.iq >> cluster) & 1u)) {
      steer_stall_holds_ = false;
    }
  }
  void wake_steer_comm(int cluster) {
    if ((steer_watch_.comm >> cluster) & 1u) steer_stall_holds_ = false;
  }
  /// Frees a register, waking a steer stall that watches it.
  void release_reg(int cluster, RegClass cls) {
    regs_.release(cluster, cls);
    if ((steer_watch_.regs[static_cast<std::size_t>(cls)] >> cluster) & 1u) {
      steer_stall_holds_ = false;
    }
  }
  void apply_dispatch(const MicroOp& op, std::uint64_t seq,
                      const SteerRequest& request,
                      const SteerDecision& decision);

  // Memory helpers.
  /// Parks a gated load on its blocking store's LSQ slot.
  void park_load(const ActiveLoad& load);
  /// Returns the loads parked on the store at LSQ ordinal \p store_ord to
  /// the active list, in arrival order: called exactly when that store's
  /// address is set and when it is released.
  void wake_parked(std::uint64_t store_ord);

  // Completion / commit helpers.
  void complete_instruction(std::uint32_t rob_index);
  [[nodiscard]] bool try_complete_store(std::uint32_t rob_index);
  /// Eager copy-release discipline (ArchConfig::eager_copy_release).
  void maybe_eager_release(ValueId id, int cluster);
  void release_value(ValueId id);
  [[nodiscard]] bool allocate_reg_evicting(int cluster, RegClass cls);
  void schedule(std::int64_t cycle, EventKind kind, std::uint32_t rob_index);

  [[nodiscard]] int dest_home(int cluster) const {
    return dest_home_cluster(config_.arch, cluster, config_.num_clusters);
  }

  ArchConfig config_;
  /// The steering policy, compared by state rather than by address.
  struct Policy : std::unique_ptr<SteeringPolicy> {
    friend bool operator==(const Policy& a, const Policy& b) {
      return a->same_state(*b);
    }
  };
  Policy policy_;
  /// Pointers into this processor.
  NotState<SteerContext> steer_context_;

  ValueMap values_;
  RegFileSet regs_;
  std::vector<Cluster> clusters_;
  BusSet buses_;
  MemoryHierarchy mem_;
  LoadStoreQueue lsq_;
  FrontEnd frontend_;
  ReorderBuffer rob_;

  std::deque<FrontEndOp> fetchq_;
  std::deque<FrontEndOp> decodeq_;
  /// Calendar queue for events: a ring of per-cycle buckets indexed by
  /// cycle modulo kEventRingSize gives O(1) scheduling (events are pushed
  /// at bounded horizons — op latency or memory latency).  Events beyond
  /// the ring horizon — possible only with extreme latency configs — fall
  /// back to the ordered heap and merge into their bucket when due.  Each
  /// bucket is sorted by seq at drain time, reproducing the total
  /// (cycle, seq) order of a single priority queue.
  static constexpr std::size_t kEventRingSize = 1024;  // power of two
  std::vector<std::vector<Event>> event_ring_;
  MinHeap<Event> overflow_events_;
  std::size_t events_pending_ = 0;  ///< ring + overflow, for fast skip
  /// Completion-time buckets replacing the historical per-cycle sweeps of
  /// pending loads/stores: a load sits in load_due_ until its address
  /// reaches the cache cluster, then moves to active_loads_ (arrival
  /// order) to ask its disambiguation gate and a d-cache port; a store
  /// sits in store_due_ until its data value is readable.
  MinHeap<TimedRef> load_due_;
  MinHeap<TimedRef> store_due_;
  /// Loads to ask this cycle (new, woken or port-blocked), by arrival.
  std::vector<ActiveLoad> active_loads_;
  /// Gated (MustWait) loads, parked per LSQ slot of their blocking store
  /// until wake_parked() returns them.  Checkpoints save them merged into
  /// active_loads_ by arrival; restore asks every load again and re-parks.
  std::vector<std::vector<ActiveLoad>> parked_;
  std::size_t parked_total_ = 0;  ///< size of every parked_ list together
  std::uint64_t next_arrival_ = 0;
  /// LSQ ordinal of each ROB slot's memory op, for O(1) LSQ access.
  std::vector<std::uint64_t> lsq_ord_;
  MinHeap<CommDue> comm_due_;
  std::vector<BusDelivery> deliveries_;  ///< scratch, reused per cycle

  // Rename state: logical register -> current value.
  std::array<ValueId, kNumFlatArchRegs> rename_{};

  /// Entries across every cluster's int/fp/comm ready lists; lets the
  /// issue stage skip entirely on cycles where nothing can issue.
  std::size_t ready_total_ = 0;

  std::int64_t cycle_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_comm_id_ = 1;
  std::uint64_t committed_total_ = 0;
  std::int64_t last_commit_cycle_ = 0;

  // Fetch-side state.
  bool fetch_blocked_ = false;           ///< unresolved mispredict
  std::uint64_t fetch_blocked_seq_ = 0;  ///< seq of the blocking branch
  std::int64_t icache_stall_until_ = 0;
  std::uint64_t last_fetch_line_ = ~0ull;
  bool trace_exhausted_ = false;
  bool have_peeked_ = false;
  MicroOp peeked_;

  int dcache_ports_used_ = 0;

  /// Steer-stall memo (DESIGN.md §6): the front op stalled on a pure
  /// steer stall, and since then no resource in steer_watch_ gained
  /// capacity and no source in steer_watch_srcs_ changed, so it would
  /// stall again.  The wake hooks (wake_steer_*) and the checks at
  /// dispatch clear it.  A checkpoint holds no stall: after a load the
  /// first dispatch asks the policy again.
  bool steer_stall_holds_ = false;
  /// Resources that rejected the front op's candidates at its last steer().
  SteerWatch steer_watch_;
  UnitKind steer_watch_unit_ = UnitKind::Int;  ///< unit kind of .iq
  /// The stalled op's sources and their produced bit (bit 16) and mapped
  /// mask at the stall.
  struct WatchedSource {
    ValueId value = kInvalidValue;
    std::uint32_t state = 0;

    friend bool operator==(const WatchedSource&,
                           const WatchedSource&) = default;
  };
  StaticVector<WatchedSource, kMaxSrcOperands> steer_watch_srcs_;

  /// Sources of the instruction currently being steered/dispatched; these
  /// must never be chosen as copy-eviction victims on its behalf.
  StaticVector<ValueId, kMaxSrcOperands> steering_srcs_;

  SimCounters counters_;

  // Measurement-phase bookkeeping (serialized, so a mid-measure snapshot
  // resumes exactly where it left off).
  bool measuring_ = false;       ///< inside a measure() window
  bool warmup_pending_ = false;  ///< warmup() ran; measure() not yet started
  SimCounters measure_baseline_;
  std::uint64_t measure_target_ = 0;
  std::uint64_t measure_start_committed_ = 0;
  std::uint64_t run_start_committed_ = 0;

  /// Host wall-clock seconds accumulated by warmup() (or checkpoint
  /// restore, via add_pre_run_wall_seconds) and folded into the next
  /// measure()'s wall_seconds.  Host-side instrumentation: never
  /// serialized (loading zeroes it), excluded from the determinism
  /// contract.
  double pre_run_wall_seconds_ = 0.0;
};

}  // namespace ringclu
