// The discrete-event cache-coherence machine (fast-path core).
//
// Simulates N cores executing atomic-operation streams over MESI-coherent
// cache lines with a home directory per line. Event granularity is one
// coherence transaction: a core issues an operation, the directory
// serializes ownership of the target line, the line travels to the
// requester (latency from the interconnect), the primitive executes
// functionally (value semantics identical to the std::atomic backend, so
// CAS success/failure *emerges* rather than being assumed), and the line is
// released to the next arbitrated waiter.
//
// This is the machinery the paper's model abstracts: the model predicts the
// steady-state of exactly this hand-off process; the simulator provides the
// ground truth the model is validated against (and the stand-in for the
// 36/64-core testbeds this environment lacks).
//
// Internals (docs/sim_core.md has the full layout): line state lives in
// slot-indexed struct-of-arrays storage behind an insert-only flat hash
// (lines are never deleted, only reset), the scheduler is a sorted array of
// at most one event per core (sim/event_queue.hpp), a core's fetch after its
// op retires and its op completion after a local-hit issue skip that array
// when they are strictly earlier than every queued event (the run loop
// dispatches them next, with the same accounting), interconnect routing is
// flattened into dense n*n tables at construction (sim/route_table.hpp),
// residency tracking is an intrusive array-node LRU, and op streams are
// decoded once per op (or once per run, for programs exposing a StaticPlan)
// into a POD the event loop replays without touching std::optional or
// virtual dispatch. All of it is
// behaviour-preserving to the byte: the golden corpus captured from the
// original seed core (tests/sim/core_equivalence_test.cpp), the trace
// goldens and the litmus sets pin the stats, traces and final state, and a
// change that moves them must re-bless them on purpose.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "atomics/primitives.hpp"
#include "common/random.hpp"
#include "obs/trace.hpp"
#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/flat_table.hpp"
#include "sim/program.hpp"
#include "sim/route_table.hpp"
#include "sim/sim_stats.hpp"
#include "sim/types.hpp"

namespace am::sim {

/// Structured watchdog failure: a run exceeded its simulated-cycle budget or
/// processed many events without any line grant / op retirement (livelock —
/// e.g. a mis-calibrated config whose CAS loop can never succeed). The sweep
/// engine catches this and marks the point `timeout` instead of hanging a
/// pool thread forever. The machine that threw is left mid-transaction and
/// must be discarded, not reused.
struct PointTimeout : std::runtime_error {
  enum class Kind : std::uint8_t {
    kCycleBudget,  ///< simulated time passed WatchdogConfig::max_cycles
    kNoProgress,   ///< progress_events events without a grant or retirement
  };
  PointTimeout(Kind k, Cycles at, std::uint64_t events);

  Kind kind;
  Cycles at_cycle;               ///< simulated time when the watchdog fired
  std::uint64_t events_processed;  ///< events handled by the run so far
};

const char* to_string(PointTimeout::Kind k) noexcept;

/// Controlled-schedule seam: when attached, the hook is consulted before the
/// built-in arbitration policy on every directory grant and notified after
/// every op retirement. The conformance fuzzer's PCT scheduler drives
/// adversarial interleavings through this. Like the trace sink and the
/// watchdog, a hook is deliberately OUTSIDE cache_identity/fingerprint —
/// attaching one changes which interleaving is explored, so hooked runs must
/// never be cached as if they were policy runs.
class ScheduleHook {
 public:
  virtual ~ScheduleHook() = default;
  /// Picks the next grant on @p line among @p waiters (arrival order, oldest
  /// first). Return an index into @p waiters, or any value >= waiters.size()
  /// to defer to the machine's configured arbitration policy.
  virtual std::size_t pick(LineId line, const std::vector<CoreId>& waiters) = 0;
  /// Called once per retired operation (a PCT scheduling step).
  virtual void on_step(CoreId core) { (void)core; }
};

/// Budgets enforced by the run() event loop. Zero disables a check; the
/// defaults keep raw Machine users (oracle, calibration probes with huge
/// open-ended windows) unlimited — SimBackend arms generous budgets for
/// sweep points.
struct WatchdogConfig {
  Cycles max_cycles = 0;            ///< simulated-cycle ceiling (0 = none)
  std::uint64_t progress_events = 0;  ///< livelock window in events (0 = none)
};

class Machine {
 public:
  explicit Machine(MachineConfig config, std::uint64_t seed = 1);

  const MachineConfig& config() const noexcept { return config_; }
  const Interconnect& interconnect() const noexcept { return *interconnect_; }
  CoreId core_count() const noexcept { return cores_; }
  /// Simulated time of the event dispatched last. Once run() returns, that
  /// is the run's final event: the cycle its last operation retired.
  Cycles now() const noexcept { return now_; }
  /// Events the last run() dispatched and operations it retired, warm-up
  /// included; set when run() returns or throws PointTimeout. Outside
  /// RunStats, so no digest or cached result depends on them.
  std::uint64_t events_dispatched() const noexcept { return run_events_; }
  std::uint64_t ops_retired() const noexcept { return run_ops_; }
  /// Of the last run's dispatched events, those run inline: dispatched next
  /// without a queue push and pop, because they were strictly earlier than
  /// every queued event. Outside RunStats, like the counts above.
  std::uint64_t events_inlined() const noexcept { return run_inlined_; }

  /// Forces a line into a given coherence state before a run — used by the
  /// state-conditioned latency probes (Table 2). @p owner is the core
  /// receiving the copy for S/E/M; ignored for kInvalid (memory-only).
  void prime_line(LineId line, Mesi state, CoreId owner, std::uint64_t value = 0);

  /// Current value of a line (authoritative directory copy).
  std::uint64_t line_value(LineId line) const;
  /// Coherence state of @p line in @p core's cache.
  Mesi line_state(LineId line, CoreId core) const;

  /// Every line the directory has a record for, ascending — the domain of
  /// the invariant checkers and test snapshots.
  std::vector<LineId> touched_lines() const;

  /// Directory-side snapshot of one line, for external invariant checking.
  struct LineSnapshot {
    CoreId owner = kNoCore;          ///< E/M holder (kNoCore if none)
    Mesi owner_state = Mesi::kInvalid;
    std::vector<CoreId> sharers;     ///< S holders (excludes owner)
    std::uint64_t value = 0;
    bool busy = false;               ///< a transaction is in flight
    std::size_t queued = 0;          ///< waiters at the home directory
  };
  LineSnapshot snapshot_line(LineId line) const;

  /// Runs the MESI single-writer / sharer-consistency checker over every
  /// touched line (the same checks paranoid_checks applies per transaction),
  /// in ascending line order so a multi-line corruption reports
  /// deterministically. Throws std::logic_error naming the first violated
  /// line. Tests attach a TraceSink that calls this to verify the protocol
  /// after every step.
  void verify_invariants() const;

  /// Runs @p program on cores [0, active_cores) for @p warmup + @p measure
  /// cycles; statistics cover operations completing inside the measurement
  /// window only. The machine's caches/directory persist across calls, so a
  /// prime_line() before a run is honoured.
  RunStats run(ThreadProgram& program, CoreId active_cores, Cycles warmup,
               Cycles measure);

  /// Latency (cycles) of a single @p prim by @p core on @p line given the
  /// current primed machine state. Leaves the machine in the post-op state.
  Cycles measure_single_op(CoreId core, Primitive prim, LineId line);

  /// Attaches a structured trace sink (nullptr detaches). The machine emits
  /// one obs::TraceEvent per protocol step (issue, grant, op-done, retry,
  /// invalidate, evict); with no sink attached the hot path pays a single
  /// pointer test per step and nothing else.
  void set_sink(obs::TraceSink* sink) noexcept { sink_ = sink; }

  /// Enables per-line contention profiling; results appear in
  /// RunStats::line_profiles of subsequent run() calls (hottest first).
  void set_line_profiling(bool on) { profile_lines_ = on; }

  /// Enables the epoch sampler: RunStats::epochs gets one EpochSample per
  /// @p window cycles of the measurement window (0 disables).
  void set_epoch_cycles(Cycles window) { epoch_cycles_ = window; }

  /// Arms the run watchdog; run() throws PointTimeout when a budget is
  /// exceeded. A machine whose run threw is mid-transaction and must be
  /// rebuilt before the next run.
  void set_watchdog(WatchdogConfig wd) noexcept { watchdog_ = wd; }
  const WatchdogConfig& watchdog() const noexcept { return watchdog_; }

  /// Attaches a controlled-schedule hook (nullptr detaches). See
  /// ScheduleHook: consulted before arbitration, notified per retirement,
  /// deliberately outside cache_identity.
  void set_schedule_hook(ScheduleHook* hook) noexcept { hook_ = hook; }

  /// Buffered (not yet globally visible) stores of @p core. Always 0 under
  /// MemoryModel::kSc; tests use this to observe TSO buffer occupancy.
  std::size_t store_buffer_depth(CoreId core) const noexcept {
    return core_states_[core].sbuf.size();
  }

 private:
  // --- event machinery -----------------------------------------------------
  enum class EventKind : std::uint8_t { kFetchNext, kIssue, kOpDone,
                                        kDrainDone };

  static constexpr std::uint32_t kNilSlot = ~0u;

  /// Event payload: kind in the top 2 bits, core below. kNoEvent (an
  /// impossible core) marks an empty inline slot.
  static constexpr std::uint32_t kNoEvent = ~0u;
  static std::uint32_t pack(EventKind kind, CoreId core) noexcept {
    return (static_cast<std::uint32_t>(kind) << 30) | core;
  }
  static EventKind kind_of(std::uint32_t payload) noexcept {
    return static_cast<EventKind>(payload >> 30);
  }
  static CoreId core_of(std::uint32_t payload) noexcept {
    return payload & ((1u << 30) - 1);
  }

  struct PendingRequest {
    CoreId core;
    bool exclusive;
    Cycles arrival;
    /// Proximity-arbitration weight exp(-distance(home, core)/bias), frozen
    /// at enqueue (home and bias are fixed per line, so it never changes
    /// while the request waits). 0 under other arbitration policies.
    double weight;
  };

  /// Arrival-ordered pending-request queue. Semantically identical to the
  /// seed core's std::vector (index i is the i-th oldest request), but
  /// erasure shifts whichever side of the erased index is *shorter*: the
  /// prefix slides right under a head cursor (O(1) for the FIFO winner,
  /// index 0) instead of always memmoving the whole suffix left. Relative
  /// order — the only thing arbitration and the invariant checks observe —
  /// is unaffected, so byte-identity is preserved.
  struct ReqQueue {
    std::vector<PendingRequest> items;  ///< live entries at [head, end)
    std::uint32_t head = 0;

    std::size_t size() const noexcept { return items.size() - head; }
    bool empty() const noexcept { return items.size() == head; }
    const PendingRequest& operator[](std::size_t i) const noexcept {
      return items[head + i];
    }
    const PendingRequest& front() const noexcept { return items[head]; }
    void push_back(const PendingRequest& r) { items.push_back(r); }
    void clear() noexcept {
      items.clear();
      head = 0;
    }
    void erase_at(std::size_t idx) {
      const std::size_t n = size();
      if (idx < n - idx) {
        std::move_backward(items.begin() + head,
                           items.begin() + head + static_cast<std::ptrdiff_t>(idx),
                           items.begin() + head + static_cast<std::ptrdiff_t>(idx) + 1);
        ++head;
        // Reclaim the dead prefix once it dominates the storage.
        if (head >= 64 && head * 2 >= items.size()) {
          items.erase(items.begin(), items.begin() + head);
          head = 0;
        }
      } else {
        items.erase(items.begin() + head + static_cast<std::ptrdiff_t>(idx));
      }
    }
  };

  /// One op, decoded from IssueRequest once at fetch time (or once per run
  /// for StaticPlan programs): optionals are resolved to flag bits + values,
  /// the line's SoA slot is resolved, and the fixed serve cost
  /// (l1_hit + exec_cost) is precomputed. The event loop replays this POD.
  struct DecodedOp {
    Primitive prim = Primitive::kFaa;
    std::uint8_t flags = 0;
    LineId line = 0;
    std::uint32_t slot = kNilSlot;
    Cycles work_before = 0;
    Cycles serve_cost = 0;      ///< l1_hit + exec_cost(prim)
    std::uint64_t store_value = 0;
    std::uint64_t cas_expected = 0;
    std::uint64_t cas_desired = 0;
  };
  static constexpr std::uint8_t kHasStore = 1;
  static constexpr std::uint8_t kHasExpected = 2;
  static constexpr std::uint8_t kHasDesired = 4;

  /// A store sitting in a core's TSO store buffer: globally invisible until
  /// its drain transaction commits it at the directory.
  struct BufferedStore {
    LineId line = 0;
    std::uint32_t slot = kNilSlot;
    std::uint64_t value = 0;
  };

  /// Ops that complete on the core without a directory transaction (TSO
  /// buffered stores / forwarded loads; FENCE under both models).
  enum class LocalOp : std::uint8_t {
    kNone,
    kBufferedStore,   ///< store retired into the local store buffer
    kForwardedLoad,   ///< load served from this core's own buffered store
    kFence,           ///< fence retirement (buffer already empty)
  };

  /// What the core resumes once its store-buffer drain completes.
  enum class DrainResume : std::uint8_t {
    kNone,
    kResubmit,  ///< re-submit the parked foreground op (fence/RMW/full buffer)
    kFinish,    ///< end-of-stream drain: mark the core done
  };

  struct CoreState {
    OpContext ctx;
    /// Current op (valid while has_pending). For a StaticPlan core the plan
    /// is decoded into this once per run and replayed in place — fetch never
    /// rewrites it (nothing on the execute path mutates DecodedOp fields).
    DecodedOp op;
    bool done = false;
    bool has_pending = false;
    bool has_plan = false;
    bool holds_token = false;  ///< this core's transaction owns the line slot
    bool drop_write = false;   ///< fault injection: lose this op's write-back
    Cycles issue_time = 0;
    Cycles attempt_start = 0;  ///< submit time of the current acquisition
    Cycles grant_time = 0;     ///< when the current acquisition was served
    std::uint64_t req_id = 0;  ///< trace flow id of the current acquisition
    std::uint32_t attempts_this_op = 0;
    Supply last_supply = Supply::kLocalHit;
    Cycles last_xfer = 0;
    // --- TSO state (empty/idle under kSc) ----------------------------------
    std::vector<BufferedStore> sbuf;  ///< FIFO store buffer, oldest first
    LocalOp local_op = LocalOp::kNone;  ///< pending local completion kind
    bool draining = false;     ///< a drain transaction sequence is in flight
    DrainResume drain_resume = DrainResume::kNone;
    std::uint64_t forward_value = 0;  ///< value a forwarded load observes
  };

  void schedule(Cycles time, EventKind kind, CoreId core) {
    // At most one event per core is in flight; EventQueue relies on it. A
    // pending inline event must be its handler's last push.
    assert(events_.size() < active_cores_);
    assert(inline_payload_ == kNoEvent);
    events_.push(time, next_seq_++, pack(kind, core));
  }
  /// A handler's last push of a fetch after a retirement or an op completion
  /// after a local-hit issue. An event strictly earlier than every queued one
  /// would pop next whatever its seq, so it goes to the inline slot, which
  /// the run loop dispatches before it pops again; equal times lose to the
  /// queued event's older seq and are pushed.
  void schedule_tail(Cycles time, EventKind kind, CoreId core) {
    assert(events_.size() < active_cores_);
    assert(inline_payload_ == kNoEvent);
    if (!events_.push_unless_first(time, next_seq_++, pack(kind, core))) {
      inline_time_ = time;
      inline_payload_ = pack(kind, core);
    }
  }
  /// Schedules a local hit's completion. An issue's hit is the issue's last
  /// push and may run inline; a CAS-loop retry's hit is pushed, so a done
  /// never inlines another done.
  void schedule_hit_done(CoreId core, bool from_issue) {
    const Cycles t = now_ + core_states_[core].op.serve_cost;
    if (from_issue) {
      schedule_tail(t, EventKind::kOpDone, core);
    } else {
      schedule(t, EventKind::kOpDone, core);
    }
  }
  void handle_fetch_next(CoreId core);
  void handle_issue(CoreId core);
  void handle_op_done(CoreId core);
  /// Retires an op that completed locally (TSO buffered store / forwarded
  /// load; FENCE under both models). Split out of handle_op_done so the SC
  /// hot path pays one enum test only.
  void handle_local_op_done(CoreId core);
  /// Commits the head buffered store at the directory and continues the
  /// drain (kDrainDone events).
  void handle_drain_done(CoreId core);
  /// Begins draining @p core's store buffer; @p resume runs when empty.
  void start_drain(CoreId core, DrainResume resume);
  /// Issues the drain transaction for the buffer head (or finishes the
  /// drain and runs the resume action when the buffer is empty).
  void drain_next(CoreId core);
  /// Queues the core's pending request at the line's directory (or serves it
  /// locally when the cached state suffices). Shared by issue and CAS retry;
  /// only an issue's local hit may leave its completion in the inline slot.
  void submit_request(CoreId core, bool from_issue = false);

  /// Decodes @p req into @p op (slot left unresolved).
  void decode(const IssueRequest& req, DecodedOp& op) const;

  /// Grants the line to the next arbitrated waiter if it is free. Inline,
  /// so an uncontended line's release pays two tests and no call.
  void try_grant(std::uint32_t slot) {
    if (line_busy_[slot] == 0 && !line_queue_[slot].empty()) grant_next(slot);
  }
  /// try_grant's body, for a free line with a waiter.
  void grant_next(std::uint32_t slot);
  /// Chooses the next request index per the arbitration policy. @p id is
  /// the line (its home agent anchors the proximity bias).
  std::size_t arbitrate(std::uint32_t slot, LineId id);
  /// Applies ownership/sharer updates for a grant and returns the transfer
  /// latency + supply class.
  std::pair<Cycles, Supply> apply_grant(std::uint32_t slot, LineId id,
                                        const PendingRequest& req);

  /// Executes the primitive's value semantics against the line's value.
  OpResult apply_op(Primitive prim, std::uint32_t slot, OpContext& ctx);

  /// Removes core's copy (if any) from a line record. Counts invalidations.
  void invalidate_copy(std::uint32_t slot, LineId id, CoreId core);

  /// MESI single-writer / sharer-consistency checker (paranoid_checks).
  /// Aborts the run via std::logic_error on violation.
  void check_line_invariants(std::uint32_t slot, LineId id) const;

  /// LRU residency tracking per core (capacity = config.cache_capacity_lines).
  /// touch() marks a line most-recently-used and evicts the LRU line when
  /// over capacity; forget() drops bookkeeping when a copy is invalidated.
  /// A core re-touching the line it touched last (the common case for
  /// private-line and single-hot-line workloads) returns inline: the head
  /// node already tracks the slot.
  void touch_resident(CoreId core, std::uint32_t slot) {
    const Residency& res = residency_[core];
    if (res.head != kNilSlot && res.nodes[res.head].slot == slot) return;
    touch_resident_slow(core, slot);
  }
  void touch_resident_slow(CoreId core, std::uint32_t slot);
  void forget_resident(CoreId core, std::uint32_t slot);
  void evict_one(CoreId core);

  /// SoA slot for @p id, creating the record on first touch (mirrors the
  /// old lines_[id] insertion points; slots are never deleted).
  std::uint32_t slot_of(LineId id);
  /// Slot for @p id or kNilSlot; never creates.
  std::uint32_t find_slot(LineId id) const noexcept {
    return line_index_.find(id, kNilSlot);
  }
  /// @p core's state of the line in @p slot; the owner's test is inline.
  Mesi state_of(std::uint32_t slot, CoreId core) const {
    if (line_owner_[slot] == core) return line_owner_state_[slot];
    return sharer_state(slot, core);
  }
  /// kShared when @p core holds a Shared copy, else kInvalid.
  Mesi sharer_state(std::uint32_t slot, CoreId core) const;

  void record_completion(CoreId core, const OpResult& r, Cycles latency);
  bool in_measure_window(Cycles t) const noexcept {
    return t >= warmup_end_ && t < end_time_;
  }

  // --- observability -------------------------------------------------------
  /// Forwards @p e to the attached sink, if any.
  void emit(const obs::TraceEvent& e) {
    if (sink_ != nullptr) sink_->on_event(e);
  }
  // The three hooks below sit on the per-event hot path, so each inlines its
  // disabled-case test and defers the real work to an out-of-line _slow body:
  // with no sink/profiler/sampler attached a run pays only the flag tests.

  /// Records a line-slot grant in the per-line profile and trace.
  void note_grant(LineId id, CoreId core, Supply supply, Cycles xfer,
                  std::uint32_t queue_depth, bool counts_acquisition) {
    if (sink_ != nullptr || profile_lines_) {
      note_grant_slow(id, core, supply, xfer, queue_depth, counts_acquisition);
    }
  }
  void note_grant_slow(LineId id, CoreId core, Supply supply, Cycles xfer,
                       std::uint32_t queue_depth, bool counts_acquisition);
  /// Epoch bucket covering time @p t, or nullptr when sampling is off or
  /// @p t lies outside the measurement window.
  EpochSample* epoch_at(Cycles t) {
    return epoch_cycles_ == 0 ? nullptr : epoch_at_slow(t);
  }
  EpochSample* epoch_at_slow(Cycles t);
  /// Tracks the in-flight request count for the epoch sampler.
  void adjust_outstanding(int delta) {
    outstanding_ = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(outstanding_) + delta);
    if (epoch_cycles_ != 0) adjust_outstanding_slow();
  }
  void adjust_outstanding_slow();

  MachineConfig config_;
  std::unique_ptr<Interconnect> interconnect_;
  CoreId cores_;

  EventQueue events_;
  std::uint64_t next_seq_ = 0;
  Cycles now_ = 0;
  /// The inline slot (schedule_tail): an event to dispatch before the next
  /// pop, or kNoEvent. It is empty whenever a handler starts. Its event took
  /// a seq like a pushed one, so the seq stream is the same either way.
  Cycles inline_time_ = 0;
  std::uint32_t inline_payload_ = kNoEvent;

  // --- line store: slot-indexed struct-of-arrays ---------------------------
  // Parallel arrays indexed by slot; line_index_ maps LineId -> slot. Slots
  // are created on first touch and never removed (prime_line resets contents
  // in place), so the flat hash needs no tombstones and the hot scalar
  // fields (owner/state/value/busy) stay dense. The per-slot sharers/queue
  // vectors keep their capacity across transactions — after warm-up the
  // event loop allocates nothing.
  FlatMap64 line_index_;
  std::vector<LineId> line_ids_;                 ///< slot -> LineId
  std::vector<CoreId> line_owner_;               ///< E/M holder
  std::vector<Mesi> line_owner_state_;
  std::vector<std::uint64_t> line_value_;
  std::vector<std::uint8_t> line_busy_;          ///< transaction in flight
  std::vector<std::vector<CoreId>> line_sharers_;  ///< S holders (no owner)
  std::vector<ReqQueue> line_queue_;
  /// Prefix sums of line_queue_ weights: line_prefix_[s][i] is the seed
  /// core's running total after adding queue entry i's weight. The first
  /// line_prefix_valid_[s] entries are current; a grant that erases queue
  /// index k lowers the watermark to k, so arbitrate() resumes the exact
  /// sequential FP add chain from the last unchanged prefix instead of
  /// re-summing the whole queue (kProximityBiased only).
  std::vector<std::vector<double>> line_prefix_;
  std::vector<std::uint32_t> line_prefix_valid_;

  // --- per-core LRU residency: intrusive array-node lists ------------------
  struct ResNode {
    std::uint32_t prev = kNilSlot;
    std::uint32_t next = kNilSlot;
    std::uint32_t slot = kNilSlot;  ///< line slot this node tracks
  };
  struct Residency {
    std::vector<ResNode> nodes;      ///< node pool (grows, never shrinks)
    std::vector<std::uint32_t> free; ///< recycled node indices
    std::uint32_t head = kNilSlot;   ///< most recently used
    std::uint32_t tail = kNilSlot;   ///< least recently used
    std::uint32_t count = 0;
    FlatSlotMap index;               ///< line slot -> node index
  };
  std::vector<Residency> residency_;

  std::vector<CoreState> core_states_;
  std::vector<Xoshiro256> rngs_;
  Xoshiro256 arb_rng_{0x9d2c5680};  ///< arbitration races (kProximityBiased)

  // --- precomputed routing/cost tables (see route_table.hpp) ---------------
  /// Shared across Machines built from the same preset (interconnect
  /// identity); immutable once built.
  std::shared_ptr<const RouteTable> routes_;
  /// exp(-d / arbitration_bias) per distance d (kProximityBiased only).
  std::vector<double> weight_by_dist_;
  /// l1_hit + exec_cost per primitive; index 7 is FENCE (fence_cost alone —
  /// a fence touches no cache). Internal only: serialized per-primitive
  /// arrays stay 7 wide (see Primitive::kFence).
  std::array<Cycles, 8> serve_cost_{};

  /// True iff config_.memory_model == MemoryModel::kTso; the single flag the
  /// SC hot paths test.
  bool tso_ = false;

  // Reusable scratch (replaces the per-grant sharer-snapshot copy the seed
  // core heap-allocated).
  std::vector<CoreId> scratch_sharers_;
  std::vector<CoreId> scratch_waiters_;  ///< ScheduleHook::pick argument

  obs::TraceSink* sink_ = nullptr;
  ScheduleHook* hook_ = nullptr;
  std::uint64_t next_req_id_ = 0;

  bool profile_lines_ = false;
  std::unordered_map<LineId, LineProfile> line_prof_;

  Cycles epoch_cycles_ = 0;
  std::vector<EpochSample> epochs_;
  std::uint32_t outstanding_ = 0;

  WatchdogConfig watchdog_{};
  /// Bumped on every line grant and op retirement; the run loop compares it
  /// across events to detect livelock (events flowing, nothing advancing).
  std::uint64_t progress_marks_ = 0;

  // Per-run telemetry tallies, published to obs::metrics::default_registry()
  // once per run() (success and watchdog paths both flush). The event loop
  // only bumps plain members — the shared counters are touched exactly once
  // per run, so simulation throughput is unaffected by telemetry.
  void flush_metrics(std::uint64_t cycles);
  std::uint64_t run_events_ = 0;        ///< events dispatched
  std::uint64_t run_inlined_ = 0;       ///< of which run inline
  std::uint64_t run_ops_ = 0;           ///< operations retired
  std::uint64_t run_grants_ = 0;        ///< directory line grants
  std::uint64_t run_transitions_ = 0;   ///< MESI state transitions applied
  std::uint64_t run_invalidations_ = 0; ///< copies invalidated

  // Per-run context.
  ThreadProgram* program_ = nullptr;
  CoreId active_cores_ = 0;
  Cycles warmup_end_ = 0;
  Cycles end_time_ = 0;
  RunStats* stats_ = nullptr;
  EnergyAccounting* energy_ = nullptr;
};

}  // namespace am::sim
