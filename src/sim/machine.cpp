#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace am::sim {

PointTimeout::PointTimeout(Kind k, Cycles at, std::uint64_t events)
    : std::runtime_error(std::string("watchdog: ") + to_string(k) +
                         " at cycle " + std::to_string(at) + " after " +
                         std::to_string(events) + " events"),
      kind(k),
      at_cycle(at),
      events_processed(events) {}

const char* to_string(PointTimeout::Kind k) noexcept {
  switch (k) {
    case PointTimeout::Kind::kCycleBudget: return "cycle budget exceeded";
    case PointTimeout::Kind::kNoProgress: return "no forward progress";
  }
  return "?";
}

Machine::Machine(MachineConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      interconnect_(config_.make_interconnect()),
      cores_(config_.core_count()) {
  if (!interconnect_) throw std::invalid_argument("Machine: bad interconnect");
  if (config_.cache_capacity_lines == 0) config_.cache_capacity_lines = 1;
  core_states_.resize(cores_);
  residency_.resize(cores_);
  rngs_.reserve(cores_);
  SplitMix64 sm(seed);
  for (CoreId c = 0; c < cores_; ++c) rngs_.emplace_back(sm.next());
  arb_rng_ = Xoshiro256(sm.next());

  // Flatten the interconnect virtuals into dense tables (shared across
  // Machines of the same preset), and the proximity weights into a
  // per-distance lookup: exp() of the same inputs the seed core evaluated
  // per sharer, so the arbitration draws are bit-identical.
  routes_ = shared_route_table(*interconnect_);
  if (config_.arbitration == Arbitration::kProximityBiased) {
    weight_by_dist_ = routes_->proximity_weights(config_.arbitration_bias);
  }
  for (const Primitive p : kAllPrimitives) {
    serve_cost_[static_cast<std::size_t>(p)] =
        config_.l1_hit + config_.exec_cost_of(p);
  }
  // FENCE retires on the core without touching the cache: no l1_hit term.
  serve_cost_[static_cast<std::size_t>(Primitive::kFence)] = config_.fence_cost;
  tso_ = config_.memory_model == MemoryModel::kTso;
}

std::uint32_t Machine::slot_of(LineId id) {
  bool created = false;
  const std::uint32_t slot = line_index_.find_or_insert(
      id, static_cast<std::uint32_t>(line_ids_.size()), created);
  if (created) {
    line_ids_.push_back(id);
    line_owner_.push_back(kNoCore);
    line_owner_state_.push_back(Mesi::kInvalid);
    line_value_.push_back(0);
    line_busy_.push_back(0);
    line_sharers_.emplace_back();
    line_queue_.emplace_back();
    line_prefix_.emplace_back();
    line_prefix_valid_.push_back(0);
  }
  return slot;
}

void Machine::prime_line(LineId id, Mesi state, CoreId owner,
                         std::uint64_t value) {
  const std::uint32_t s = slot_of(id);
  for (CoreId c = 0; c < cores_; ++c) forget_resident(c, s);
  line_owner_[s] = kNoCore;
  line_owner_state_[s] = Mesi::kInvalid;
  line_sharers_[s].clear();
  line_busy_[s] = 0;
  line_queue_[s].clear();
  line_prefix_valid_[s] = 0;
  line_value_[s] = value;
  switch (state) {
    case Mesi::kInvalid:
      break;  // memory-only
    case Mesi::kShared:
      line_sharers_[s].push_back(owner);
      break;
    case Mesi::kExclusive:
      line_owner_[s] = owner;
      line_owner_state_[s] = Mesi::kExclusive;
      break;
    case Mesi::kModified:
      line_owner_[s] = owner;
      line_owner_state_[s] = Mesi::kModified;
      break;
  }
  if (state != Mesi::kInvalid) touch_resident(owner, s);
}

std::uint64_t Machine::line_value(LineId id) const {
  const std::uint32_t s = find_slot(id);
  return s == kNilSlot ? 0 : line_value_[s];
}

Mesi Machine::sharer_state(std::uint32_t slot, CoreId core) const {
  const std::vector<CoreId>& sh = line_sharers_[slot];
  if (std::find(sh.begin(), sh.end(), core) != sh.end()) {
    return Mesi::kShared;
  }
  return Mesi::kInvalid;
}

Mesi Machine::line_state(LineId id, CoreId core) const {
  const std::uint32_t s = find_slot(id);
  return s == kNilSlot ? Mesi::kInvalid : state_of(s, core);
}

std::vector<LineId> Machine::touched_lines() const {
  std::vector<LineId> ids = line_ids_;
  std::sort(ids.begin(), ids.end());
  return ids;
}

Machine::LineSnapshot Machine::snapshot_line(LineId id) const {
  LineSnapshot snap;
  const std::uint32_t s = find_slot(id);
  if (s == kNilSlot) return snap;
  snap.owner = line_owner_[s];
  snap.owner_state = line_owner_state_[s];
  snap.sharers = line_sharers_[s];
  snap.value = line_value_[s];
  snap.busy = line_busy_[s] != 0;
  snap.queued = line_queue_[s].size();
  return snap;
}

void Machine::verify_invariants() const {
  // Ascending line order: with several lines corrupted at once the report
  // always names the lowest id (the seed core walked an unordered_map, so
  // the named line varied with hash layout).
  for (const LineId id : touched_lines()) {
    check_line_invariants(find_slot(id), id);
  }
}

void Machine::set_trace(std::ostream* os) {
  if (os == nullptr) {
    owned_sink_.reset();
    sink_ = nullptr;
    return;
  }
  owned_sink_ = std::make_unique<obs::TextTraceSink>(*os);
  sink_ = owned_sink_.get();
}

EpochSample* Machine::epoch_at_slow(Cycles t) {
  if (!in_measure_window(t)) return nullptr;
  const std::size_t idx =
      static_cast<std::size_t>((t - warmup_end_) / epoch_cycles_);
  if (idx >= epochs_.size()) epochs_.resize(idx + 1);
  return &epochs_[idx];
}

void Machine::adjust_outstanding_slow() {
  if (EpochSample* ep = epoch_at(now_)) {
    ep->outstanding_max = std::max(ep->outstanding_max, outstanding_);
  }
}

void Machine::note_grant_slow(LineId id, CoreId core, Supply supply,
                              Cycles xfer, std::uint32_t queue_depth,
                              bool counts_acquisition) {
  if (sink_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kGrant;
    e.time = now_;
    e.core = core;
    e.line = id;
    e.req_id = core_states_[core].req_id;
    e.supply = static_cast<std::uint8_t>(supply);
    e.xfer_cycles = xfer;
    e.queue_depth = queue_depth;
    sink_->on_event(e);
  }
  if (profile_lines_ && in_measure_window(now_)) {
    LineProfile& p = line_prof_[id];
    ++p.accesses;
    ++p.supply[static_cast<std::size_t>(supply)];
    if (counts_acquisition) {
      ++p.acquisitions;
      p.queue_depth_sum += queue_depth;
      p.queue_depth_max = std::max(p.queue_depth_max, queue_depth);
    }
  }
}

void Machine::decode(const IssueRequest& req, DecodedOp& op) const {
  op.prim = req.prim;
  op.flags = 0;
  op.line = req.line;
  op.slot = kNilSlot;
  op.work_before = req.work_before;
  op.serve_cost = serve_cost_[static_cast<std::size_t>(req.prim)];
  if (req.store_value) {
    op.flags |= kHasStore;
    op.store_value = *req.store_value;
  }
  if (req.cas_expected) {
    op.flags |= kHasExpected;
    op.cas_expected = *req.cas_expected;
  }
  if (req.cas_desired) {
    op.flags |= kHasDesired;
    op.cas_desired = *req.cas_desired;
  }
}

RunStats Machine::run(ThreadProgram& program, CoreId active_cores,
                      Cycles warmup, Cycles measure) {
  if (active_cores > cores_) {
    throw std::invalid_argument("Machine::run: more active cores than exist");
  }
  // Per-run reset: cores restart with fresh contexts; lines (and any primed
  // state) persist. Any stale busy flags would wedge the directory, so a
  // previous run must have drained — the event loop below guarantees that.
  now_ = 0;
  for (auto& cs : core_states_) cs = CoreState{};

  RunStats stats;
  stats.freq_ghz = config_.freq_ghz;
  stats.threads.assign(active_cores, ThreadStats{});
  stats.measured_cycles = measure;
  EnergyAccounting energy(config_.energy);

  line_prof_.clear();
  epochs_.clear();
  outstanding_ = 0;
  run_ops_ = 0;
  run_grants_ = 0;
  run_transitions_ = 0;
  run_invalidations_ = 0;
  stats.epoch_cycles = epoch_cycles_;
  if (sink_ != nullptr) {
    sink_->on_run_begin(obs::TraceRunInfo{config_.name, active_cores, warmup,
                                          measure});
  }

  program_ = &program;
  active_cores_ = active_cores;
  warmup_end_ = warmup;
  end_time_ = warmup + measure;
  stats_ = &stats;
  energy_ = &energy;

  // Decode static plans once per run. A planned core's fetch skips the
  // next_op/on_result virtuals entirely — legal only because plan-eligible
  // programs draw no RNG and ignore results (see StaticPlan in program.hpp),
  // so the skipped calls were behaviourally empty.
  for (CoreId c = 0; c < active_cores; ++c) {
    if (const auto plan = program.static_plan(c)) {
      decode(plan->op, core_states_[c].op);
      core_states_[c].has_plan = true;
    }
  }

  for (CoreId c = 0; c < active_cores; ++c) schedule(0, EventKind::kFetchNext, c);

  // Watchdog state: the budget is on simulated time, the livelock check on
  // events dispatched without a grant or an op retirement in between.
  progress_marks_ = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t events_inlined = 0;  // taken from the inline slot
  std::uint64_t taken_at = ~0ull;    // events_processed at the last take
  std::uint64_t last_marks = 0;
  std::uint64_t last_progress_event = 0;

  try {
    while (!events_.empty()) {
      SchedEntry ev = events_.pop();
      // Each pass dispatches one event: the popped one, then any event its
      // handler left in the inline slot (at most issue -> done -> fetch, as
      // an issue is never inlined). An inlined event gets the same
      // bookkeeping in the same order as a popped one.
      for (;;) {
        now_ = ev.time;
        if (watchdog_.max_cycles != 0 && now_ > watchdog_.max_cycles) {
          throw PointTimeout(PointTimeout::Kind::kCycleBudget, now_,
                             events_processed);
        }
        const CoreId core = core_of(ev.payload);
        switch (kind_of(ev.payload)) {
          case EventKind::kFetchNext: handle_fetch_next(core); break;
          case EventKind::kIssue: handle_issue(core); break;
          case EventKind::kOpDone: handle_op_done(core); break;
          case EventKind::kDrainDone: handle_drain_done(core); break;
        }
        ++events_processed;
        if (progress_marks_ != last_marks) {
          last_marks = progress_marks_;
          last_progress_event = events_processed;
        } else if (watchdog_.progress_events != 0 &&
                   events_processed - last_progress_event >=
                       watchdog_.progress_events) {
          throw PointTimeout(PointTimeout::Kind::kNoProgress, now_,
                             events_processed);
        }
        if (inline_payload_ == kNoEvent) break;
        ev.time = inline_time_;
        ev.payload = inline_payload_;
        inline_payload_ = kNoEvent;
        ++events_inlined;
        taken_at = events_processed;
      }
    }
  } catch (...) {
    // The machine is mid-transaction (busy lines, queued requests) and must
    // be discarded; leave it consistent enough to destroy and keep any
    // attached trace well-formed.
    events_.clear();
    inline_payload_ = kNoEvent;
    if (sink_ != nullptr) sink_->on_run_end();
    run_events_ = events_processed;
    // An event taken from the slot whose budget check or handler threw was
    // never dispatched: events_processed has not moved since its take.
    run_inlined_ = events_inlined - (events_processed == taken_at);
    flush_metrics(now_);
    program_ = nullptr;
    stats_ = nullptr;
    energy_ = nullptr;
    throw;
  }

  energy.add_static(measure);
  stats.energy = energy.breakdown();

  if (profile_lines_) {
    stats.line_profiles.reserve(line_prof_.size());
    for (auto& [id, prof] : line_prof_) {
      prof.line = id;
      stats.line_profiles.push_back(prof);
    }
    std::sort(stats.line_profiles.begin(), stats.line_profiles.end(),
              [](const LineProfile& a, const LineProfile& b) {
                if (a.acquisitions != b.acquisitions) {
                  return a.acquisitions > b.acquisitions;
                }
                if (a.accesses != b.accesses) return a.accesses > b.accesses;
                return a.line < b.line;
              });
  }
  if (epoch_cycles_ > 0) {
    // Pad to the full window so the time-series has no missing tail; skip
    // the padding for open-ended runs (measure_single_op uses a huge
    // measure window that would never fill).
    const Cycles full = (measure + epoch_cycles_ - 1) / epoch_cycles_;
    if (full <= (1u << 20) && epochs_.size() < full) {
      epochs_.resize(static_cast<std::size_t>(full));
    }
    for (std::size_t i = 0; i < epochs_.size(); ++i) {
      epochs_[i].start = static_cast<Cycles>(i) * epoch_cycles_;
    }
    stats.epochs = epochs_;
  }
  if (sink_ != nullptr) sink_->on_run_end();
  run_events_ = events_processed;
  run_inlined_ = events_inlined;
  flush_metrics(now_);

  program_ = nullptr;
  stats_ = nullptr;
  energy_ = nullptr;
  return stats;
}

void Machine::handle_fetch_next(CoreId core) {
  CoreState& cs = core_states_[core];
  if (cs.done || now_ >= end_time_) {
    // TSO: buffered stores must still reach the directory before the core
    // retires — the final memory state (which conformance checks) would
    // otherwise silently lose the write-backs.
    if (tso_ && !cs.sbuf.empty() && !cs.draining) {
      start_drain(core, DrainResume::kFinish);
      return;
    }
    cs.done = true;
    return;
  }
  if (cs.has_plan) {
    // The plan was decoded into cs.op once at run start and nothing on the
    // execute path mutates it; only the slot needs resolving, once.
    if (cs.op.slot == kNilSlot && cs.op.prim != Primitive::kFence) {
      cs.op.slot = slot_of(cs.op.line);
    }
  } else {
    const auto next = program_->next_op(core, rngs_[core]);
    if (!next) {
      if (tso_ && !cs.sbuf.empty() && !cs.draining) {
        start_drain(core, DrainResume::kFinish);
        return;
      }
      cs.done = true;
      return;
    }
    decode(*next, cs.op);
    // A fence targets no line: leave the slot unresolved so it fabricates no
    // directory record (touched_lines stays the set of real lines).
    if (cs.op.prim != Primitive::kFence) cs.op.slot = slot_of(cs.op.line);
  }
  cs.has_pending = true;
  cs.attempts_this_op = 0;
  // Zero think time adds zero to both tallies, so the window test (and the
  // stats/energy touches behind it) can be skipped outright.
  if (cs.op.work_before != 0 && in_measure_window(now_) &&
      core < stats_->threads.size()) {
    stats_->threads[core].work_cycles += cs.op.work_before;
    energy_->add_active_cycles(cs.op.work_before);
  }
  schedule(now_ + cs.op.work_before, EventKind::kIssue, core);
}

void Machine::handle_issue(CoreId core) {
  CoreState& cs = core_states_[core];
  cs.issue_time = now_;
  cs.req_id = ++next_req_id_;
  if (sink_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kIssue;
    e.time = now_;
    e.core = core;
    e.line = cs.op.line;
    e.req_id = cs.req_id;
    e.prim = static_cast<std::uint8_t>(cs.op.prim);
    sink_->on_event(e);
  }
  adjust_outstanding(+1);
  submit_request(core, /*from_issue=*/true);
}

void Machine::submit_request(CoreId core, bool from_issue) {
  CoreState& cs = core_states_[core];
  cs.attempt_start = now_;
  const Primitive prim = cs.op.prim;

  // FENCE retires on the core; no line, no directory. Under TSO it first
  // drains the store buffer (that is its whole point); under SC the buffer
  // is always empty and the fence is a priced ordering no-op.
  if (prim == Primitive::kFence) {
    if (tso_ && !cs.sbuf.empty()) {
      start_drain(core, DrainResume::kResubmit);
      return;
    }
    cs.local_op = LocalOp::kFence;
    cs.holds_token = false;
    cs.last_supply = Supply::kLocalHit;
    cs.last_xfer = 0;
    cs.grant_time = now_;
    schedule(now_ + cs.op.serve_cost, EventKind::kOpDone, core);
    return;
  }

  if (tso_) {
    // STORE retires into the local store buffer: globally invisible until a
    // drain commits it. A full buffer forces a drain first (the op parks and
    // resubmits once the buffer is empty).
    if (prim == Primitive::kStore) {
      if (cs.sbuf.size() >= config_.store_buffer_entries) {
        start_drain(core, DrainResume::kResubmit);
        return;
      }
      cs.local_op = LocalOp::kBufferedStore;
      cs.holds_token = false;
      cs.last_supply = Supply::kLocalHit;
      cs.last_xfer = 0;
      cs.grant_time = now_;
      schedule(now_ + cs.op.serve_cost, EventKind::kOpDone, core);
      return;
    }
    if (prim == Primitive::kLoad) {
      // Store-to-load forwarding: the newest own buffered store to the same
      // line supplies the value. A load to any OTHER line falls through to
      // the directory past the buffered stores — the store-load reordering
      // TSO permits and SC forbids.
      for (auto it = cs.sbuf.rbegin(); it != cs.sbuf.rend(); ++it) {
        if (it->line == cs.op.line) {
          cs.local_op = LocalOp::kForwardedLoad;
          cs.forward_value = it->value;
          cs.holds_token = false;
          cs.last_supply = Supply::kLocalHit;
          cs.last_xfer = 0;
          cs.grant_time = now_;
          schedule(now_ + cs.op.serve_cost, EventKind::kOpDone, core);
          return;
        }
      }
    } else if (!cs.sbuf.empty()) {
      // RMWs are fencing on x86 (lock prefix): drain, then resubmit.
      start_drain(core, DrainResume::kResubmit);
      return;
    }
  }

  const std::uint32_t s = cs.op.slot;
  const Mesi st = state_of(s, core);

  // Pure read on any valid copy: an L1 hit that needs no directory slot and
  // can proceed concurrently with other readers.
  if (prim == Primitive::kLoad && st != Mesi::kInvalid) {
    touch_resident(core, s);
    cs.last_supply = Supply::kLocalHit;
    cs.last_xfer = 0;
    cs.holds_token = false;
    cs.grant_time = now_;
    note_grant(cs.op.line, core, Supply::kLocalHit, 0, 0,
               /*counts_acquisition=*/false);
    schedule_hit_done(core, from_issue);
    return;
  }

  // Writer that already owns the line exclusively: take the line slot
  // without a transfer (an uncontended lock-prefixed op on a hot line).
  if (needs_exclusive(prim) && line_owner_[s] == core && line_busy_[s] == 0 &&
      (st == Mesi::kExclusive || st == Mesi::kModified)) {
    touch_resident(core, s);
    line_busy_[s] = 1;
    cs.holds_token = true;
    cs.last_supply = Supply::kLocalHit;
    cs.last_xfer = 0;
    cs.grant_time = now_;
    note_grant(cs.op.line, core, Supply::kLocalHit, 0, 0,
               /*counts_acquisition=*/true);
    schedule_hit_done(core, from_issue);
    return;
  }

  // Fault injection (conformance self-tests only): a writer holding the line
  // Shared skips the S->M upgrade round-trip, executes on its local copy and
  // silently loses the write-back.
  if (config_.fault == FaultInjection::kLostUpgradeWrite &&
      needs_exclusive(prim) && st == Mesi::kShared && line_busy_[s] == 0) {
    touch_resident(core, s);
    line_busy_[s] = 1;
    cs.holds_token = true;
    cs.drop_write = true;
    cs.last_supply = Supply::kLocalHit;
    cs.last_xfer = 0;
    cs.grant_time = now_;
    note_grant(cs.op.line, core, Supply::kLocalHit, 0, 0,
               /*counts_acquisition=*/true);
    schedule(now_ + cs.op.serve_cost, EventKind::kOpDone, core);
    return;
  }

  // The proximity-arbitration weight is a pure function of (home, core,
  // bias), all fixed for the life of the request, so it is frozen here once
  // instead of being recomputed on every arbitration round.
  double weight = 0.0;
  if (config_.arbitration == Arbitration::kProximityBiased) {
    const CoreId home = static_cast<CoreId>(cs.op.line % cores_);
    weight = weight_by_dist_[routes_->distance(home, core)];
  }
  line_queue_[s].push_back(
      PendingRequest{core, needs_exclusive(prim), now_, weight});
  try_grant(s);
}

std::size_t Machine::arbitrate(std::uint32_t slot, LineId id) {
  const ReqQueue& q = line_queue_[slot];
  assert(!q.empty());
  if (hook_ != nullptr) {
    // Controlled scheduling (PCT): the hook overrides the policy. Out-of-
    // range return defers to the configured arbitration below.
    scratch_waiters_.clear();
    for (std::size_t i = 0; i < q.size(); ++i) {
      scratch_waiters_.push_back(q[i].core);
    }
    const std::size_t pick = hook_->pick(id, scratch_waiters_);
    if (pick < q.size()) return pick;
  }
  if (config_.arbitration == Arbitration::kFifo) {
    // Requests are queued in arrival order.
    return 0;
  }

  if (config_.arbitration == Arbitration::kNearestFirst) {
    const CoreId owner = line_owner_[slot];
    if (owner == kNoCore) return 0;
    // Anti-starvation: a sufficiently aged request is served first
    // regardless of distance (queue index 0 holds the oldest request).
    if (config_.arbitration_age_limit > 0 &&
        now_ - q.front().arrival > config_.arbitration_age_limit) {
      return 0;
    }
    // Deterministic nearest-first: the requester closest to the data wins.
    std::size_t best = 0;
    std::uint32_t best_d = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t i = 0; i < q.size(); ++i) {
      const std::uint32_t d = routes_->distance(owner, q[i].core);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    return best;
  }

  // Proximity-biased race: requests race to the line's *home agent* (the
  // directory slice that serializes them); a requester closer to the home
  // wins with probability proportional to exp(-distance/bias). Because the
  // home is fixed per line, the advantage is persistent — the mechanism
  // behind the paper's long-run unfairness.
  //
  // The seed core rebuilt the running total 0+w0+w1+...+w_{n-1} from scratch
  // every round. Here the per-line prefix-sum cache resumes that *exact*
  // sequential add chain from the last prefix unaffected by queue edits
  // (erasing index k shifts entries >= k, so the watermark drops to k):
  // every partial sum is bit-identical to the seed's, hence every arb_rng_
  // draw outcome is too. The winner-pick loop below must stay subtractive
  // over the per-entry weights — reformulating it against prefix
  // *differences* would round differently.
  (void)id;
  const std::size_t n = q.size();
  std::vector<double>& pre = line_prefix_[slot];
  if (pre.size() < n) pre.resize(n);
  std::size_t valid = line_prefix_valid_[slot];
  double total = valid > 0 ? pre[valid - 1] : 0.0;
  for (std::size_t i = valid; i < n; ++i) {
    total += q[i].weight;
    pre[i] = total;
  }
  line_prefix_valid_[slot] = static_cast<std::uint32_t>(n);
  double pick = arb_rng_.next_double() * total;
  for (std::size_t i = 0; i < n; ++i) {
    pick -= q[i].weight;
    if (pick <= 0.0) return i;
  }
  return n - 1;
}

void Machine::touch_resident_slow(CoreId core, std::uint32_t slot) {
  Residency& res = residency_[core];
  const std::uint32_t n = res.index.find(slot, kNilSlot);
  if (n != kNilSlot) {
    if (res.head == n) return;  // already most recently used
    // Unlink and relink at the head.
    ResNode& node = res.nodes[n];
    if (node.prev != kNilSlot) res.nodes[node.prev].next = node.next;
    if (node.next != kNilSlot) res.nodes[node.next].prev = node.prev;
    if (res.tail == n) res.tail = node.prev;
    node.prev = kNilSlot;
    node.next = res.head;
    if (res.head != kNilSlot) res.nodes[res.head].prev = n;
    res.head = n;
    if (res.tail == kNilSlot) res.tail = n;
    return;
  }
  std::uint32_t fresh;
  if (!res.free.empty()) {
    fresh = res.free.back();
    res.free.pop_back();
  } else {
    fresh = static_cast<std::uint32_t>(res.nodes.size());
    res.nodes.emplace_back();
  }
  ResNode& node = res.nodes[fresh];
  node.slot = slot;
  node.prev = kNilSlot;
  node.next = res.head;
  if (res.head != kNilSlot) res.nodes[res.head].prev = fresh;
  res.head = fresh;
  if (res.tail == kNilSlot) res.tail = fresh;
  res.index.insert(slot, fresh);
  ++res.count;
  if (res.count > config_.cache_capacity_lines) evict_one(core);
}

void Machine::forget_resident(CoreId core, std::uint32_t slot) {
  Residency& res = residency_[core];
  const std::uint32_t n = res.index.find(slot, kNilSlot);
  if (n == kNilSlot) return;
  ResNode& node = res.nodes[n];
  if (node.prev != kNilSlot) res.nodes[node.prev].next = node.next;
  if (node.next != kNilSlot) res.nodes[node.next].prev = node.prev;
  if (res.head == n) res.head = node.next;
  if (res.tail == n) res.tail = node.prev;
  res.index.erase(slot);
  res.free.push_back(n);
  --res.count;
}

void Machine::evict_one(CoreId core) {
  Residency& res = residency_[core];
  // Evict the least-recently-used line whose transaction slot is free
  // (an in-flight line cannot leave the cache mid-transaction).
  for (std::uint32_t n = res.tail; n != kNilSlot; n = res.nodes[n].prev) {
    const std::uint32_t s = res.nodes[n].slot;
    if (line_busy_[s] != 0) continue;
    const LineId victim = line_ids_[s];
    // Drop this core's copy; a Modified line writes back (the directory
    // value is already authoritative, so only the energy/stat is charged).
    const bool was_dirty =
        line_owner_[s] == core && line_owner_state_[s] == Mesi::kModified;
    if (line_owner_[s] == core) {
      line_owner_[s] = kNoCore;
      line_owner_state_[s] = Mesi::kInvalid;
    } else {
      std::vector<CoreId>& sh = line_sharers_[s];
      const auto sit = std::find(sh.begin(), sh.end(), core);
      if (sit != sh.end()) sh.erase(sit);
    }
    if (stats_ != nullptr && in_measure_window(now_)) {
      ++stats_->evictions;
      if (was_dirty && energy_ != nullptr) energy_->add_memory_fetch();
    }
    if (sink_ != nullptr) {
      obs::TraceEvent e;
      e.kind = obs::TraceEventKind::kEvict;
      e.time = now_;
      e.core = core;
      e.line = victim;
      sink_->on_event(e);
    }
    forget_resident(core, s);
    return;
  }
}

void Machine::check_line_invariants(std::uint32_t slot, LineId id) const {
  const CoreId owner = line_owner_[slot];
  const Mesi owner_state = line_owner_state_[slot];
  const std::vector<CoreId>& sharers = line_sharers_[slot];
  const ReqQueue& queue = line_queue_[slot];
  // Single-writer: an E/M owner excludes any Shared copy.
  if (owner != kNoCore) {
    if (owner_state != Mesi::kExclusive && owner_state != Mesi::kModified) {
      throw std::logic_error("MESI violation: owner without E/M state, line " +
                             std::to_string(id));
    }
    if (!sharers.empty()) {
      throw std::logic_error(
          "MESI violation: sharers coexist with an exclusive owner, line " +
          std::to_string(id));
    }
    if (owner >= cores_) {
      throw std::logic_error("MESI violation: owner out of range, line " +
                             std::to_string(id));
    }
  } else if (owner_state != Mesi::kInvalid) {
    throw std::logic_error("MESI violation: ownerless E/M state, line " +
                           std::to_string(id));
  }
  // Sharer list is a set of valid cores.
  for (std::size_t i = 0; i < sharers.size(); ++i) {
    if (sharers[i] >= cores_) {
      throw std::logic_error("MESI violation: sharer out of range, line " +
                             std::to_string(id));
    }
    for (std::size_t j = i + 1; j < sharers.size(); ++j) {
      if (sharers[i] == sharers[j]) {
        throw std::logic_error("MESI violation: duplicate sharer, line " +
                               std::to_string(id));
      }
    }
  }
  // Each core has at most one pending request for this line.
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (std::size_t j = i + 1; j < queue.size(); ++j) {
      if (queue[i].core == queue[j].core) {
        throw std::logic_error(
            "protocol violation: duplicate request from one core, line " +
            std::to_string(id));
      }
    }
  }
}

void Machine::invalidate_copy(std::uint32_t slot, LineId id, CoreId core) {
  bool had_copy = false;
  forget_resident(core, slot);
  if (line_owner_[slot] == core) {
    line_owner_[slot] = kNoCore;
    line_owner_state_[slot] = Mesi::kInvalid;
    had_copy = true;
  }
  std::vector<CoreId>& sh = line_sharers_[slot];
  const auto it = std::find(sh.begin(), sh.end(), core);
  if (it != sh.end()) {
    sh.erase(it);
    had_copy = true;
  }
  if (had_copy) {
    ++run_invalidations_;
    ++run_transitions_;  // some valid state -> I
    if (stats_ != nullptr && in_measure_window(now_)) ++stats_->invalidations;
    if (profile_lines_ && in_measure_window(now_)) {
      ++line_prof_[id].invalidations;
    }
    if (sink_ != nullptr) {
      obs::TraceEvent e;
      e.kind = obs::TraceEventKind::kInvalidate;
      e.time = now_;
      e.core = core;
      e.line = id;
      sink_->on_event(e);
    }
  }
}

std::pair<Cycles, Supply> Machine::apply_grant(std::uint32_t slot, LineId id,
                                               const PendingRequest& req) {
  const CoreId requester = req.core;
  Cycles xfer = 0;
  Supply supply = Supply::kLocalHit;

  const bool charge = in_measure_window(now_);
  const CoreId owner = line_owner_[slot];
  if (owner != kNoCore && owner != requester) {
    // Dirty/exclusive copy elsewhere: cache-to-cache transfer.
    xfer = routes_->transfer_cycles(owner, requester);
    supply = routes_->supply_class(owner, requester);
    if (charge) {
      energy_->add_transfer(routes_->hops(owner, requester),
                            supply == Supply::kFar);
    }
    if (req.exclusive) {
      invalidate_copy(slot, id, owner);
      // Snapshot into reusable scratch: the seed core copied the sharer
      // vector per grant; same iteration order, no allocation.
      scratch_sharers_.assign(line_sharers_[slot].begin(),
                              line_sharers_[slot].end());
      for (const CoreId s : scratch_sharers_) {
        invalidate_copy(slot, id, s);
      }
      line_owner_[slot] = requester;
      line_owner_state_[slot] = Mesi::kModified;  // RFO: arrives ready-to-write
    } else {
      // Read request downgrades the owner to Shared; both keep copies.
      line_sharers_[slot].push_back(owner);
      line_owner_[slot] = kNoCore;
      line_owner_state_[slot] = Mesi::kInvalid;
      line_sharers_[slot].push_back(requester);
    }
  } else if (owner == requester) {
    // Requester queued behind other transactions but still owns the copy.
    xfer = 0;
    supply = Supply::kLocalHit;
  } else if (!line_sharers_[slot].empty()) {
    xfer = config_.shared_supply;
    supply = Supply::kNear;
    if (charge) energy_->add_transfer(1, false);
    if (req.exclusive) {
      // Fault injection (conformance self-tests only): leave the other
      // Shared copies alive next to the new M owner.
      if (config_.fault != FaultInjection::kSkipSharedInvalidate) {
        scratch_sharers_.assign(line_sharers_[slot].begin(),
                                line_sharers_[slot].end());
        for (const CoreId s : scratch_sharers_) {
          if (s != requester) invalidate_copy(slot, id, s);
        }
      }
      // Upgrade: drop our own shared copy record and take ownership.
      std::vector<CoreId>& sh = line_sharers_[slot];
      const auto self = std::find(sh.begin(), sh.end(), requester);
      if (self != sh.end()) sh.erase(self);
      line_owner_[slot] = requester;
      line_owner_state_[slot] = Mesi::kModified;
    } else {
      line_sharers_[slot].push_back(requester);
    }
  } else {
    // No cached copy anywhere: fill from memory.
    xfer = config_.memory_fill;
    supply = Supply::kMemory;
    if (charge) energy_->add_memory_fetch();
    if (stats_ != nullptr && in_measure_window(now_)) ++stats_->memory_fetches;
    if (req.exclusive) {
      line_owner_[slot] = requester;
      line_owner_state_[slot] = Mesi::kModified;
    } else {
      // Sole reader: MESI grants Exclusive-clean.
      line_owner_[slot] = requester;
      line_owner_state_[slot] = Mesi::kExclusive;
    }
  }
  return {xfer, supply};
}

void Machine::grant_next(std::uint32_t slot) {
  const LineId id = line_ids_[slot];

  const std::size_t idx = arbitrate(slot, id);
  ReqQueue& q = line_queue_[slot];
  const PendingRequest req = q[idx];
  q.erase_at(idx);
  // Entries at and beyond idx shifted; their cached prefix sums are stale.
  line_prefix_valid_[slot] =
      std::min(line_prefix_valid_[slot], static_cast<std::uint32_t>(idx));

  if (in_measure_window(now_)) energy_->add_directory_lookup();
  const auto [xfer, supply] = apply_grant(slot, id, req);
  if (stats_ != nullptr && in_measure_window(now_) &&
      req.core < stats_->threads.size()) {
    ++stats_->transfers[static_cast<std::size_t>(supply)];
  }

  if (config_.paranoid_checks) check_line_invariants(slot, id);
  ++run_grants_;
  // A grant that supplied the line from anywhere but the requester's own
  // cache changed the requester's MESI state (I/S -> M/E/S); a local hit
  // kept it. Invalidations triggered inside apply_grant counted already.
  if (supply != Supply::kLocalHit) ++run_transitions_;
  ++progress_marks_;  // a directory grant moved a line: forward progress
  note_grant(id, req.core, supply, xfer,
             static_cast<std::uint32_t>(line_queue_[slot].size()),
             /*counts_acquisition=*/true);
  touch_resident(req.core, slot);
  CoreState& cs = core_states_[req.core];
  cs.last_supply = supply;
  cs.last_xfer = xfer;
  cs.holds_token = true;
  cs.grant_time = now_;
  line_busy_[slot] = 1;
  if (tso_ && cs.draining) {
    // Drain write-back: the store's exec cost was paid when it buffered;
    // the commit pays the transfer plus the local write (l1_hit).
    schedule(now_ + xfer + config_.l1_hit, EventKind::kDrainDone, req.core);
  } else {
    schedule(now_ + xfer + cs.op.serve_cost, EventKind::kOpDone, req.core);
  }
}

OpResult Machine::apply_op(Primitive prim, std::uint32_t slot,
                           OpContext& ctx) {
  // Mirrors am::execute() over std::atomic so both backends share value
  // semantics; equivalence is asserted by tests/sim/semantics_test.cpp.
  OpResult r;
  const std::uint64_t old = line_value_[slot];
  switch (prim) {
    case Primitive::kLoad:
      r.observed = old;
      ctx.expected = old;
      break;
    case Primitive::kStore:
      line_value_[slot] = ctx.store_value;
      r.observed = ctx.store_value;
      break;
    case Primitive::kSwap:
      r.observed = old;
      line_value_[slot] = ctx.store_value;
      ctx.expected = ctx.store_value;
      break;
    case Primitive::kTas:
      r.observed = old;
      line_value_[slot] = 1;
      r.success = (old == 0);
      ctx.expected = 1;
      break;
    case Primitive::kFaa:
      r.observed = old;
      line_value_[slot] = old + 1;
      ctx.expected = old + 1;
      break;
    case Primitive::kCas:
    case Primitive::kCasLoop:
      if (old == ctx.expected) {
        line_value_[slot] = ctx.cas_desired.value_or(old + 1);
        ctx.expected = line_value_[slot];
        r.observed = old;
        r.success = true;
      } else {
        ctx.expected = old;  // refresh, exactly like compare_exchange
        r.observed = old;
        r.success = false;
      }
      break;
    case Primitive::kFence:
      // Fences retire as LocalOp::kFence and never reach apply_op.
      break;
  }
  return r;
}

void Machine::record_completion(CoreId core, const OpResult& r, Cycles latency) {
  if (core >= stats_->threads.size()) return;
  ThreadStats& ts = stats_->threads[core];
  const auto prim_idx = static_cast<std::size_t>(core_states_[core].op.prim);
  ++ts.ops;
  // FENCE (index 7) has no per-primitive bucket: the serialized arrays are
  // pinned at 7 wide (see Primitive::kFence).
  if (prim_idx < ts.ops_by_prim.size()) ++ts.ops_by_prim[prim_idx];
  if (r.success) {
    ++ts.successes;
    if (prim_idx < ts.successes_by_prim.size()) {
      ++ts.successes_by_prim[prim_idx];
    }
  } else {
    ++ts.failures;
  }
  ts.latency_sum += static_cast<double>(latency);
  ts.latency_hist.add(std::max<double>(1.0, static_cast<double>(latency)));
  if (ts.ops == 1) {
    ts.latency_min = ts.latency_max = latency;
  } else {
    ts.latency_min = std::min(ts.latency_min, latency);
    ts.latency_max = std::max(ts.latency_max, latency);
  }
}

void Machine::handle_op_done(CoreId core) {
  CoreState& cs = core_states_[core];
  if (cs.local_op != LocalOp::kNone) {
    handle_local_op_done(core);
    return;
  }
  const std::uint32_t slot = cs.op.slot;
  const Primitive prim = cs.op.prim;

  ++cs.attempts_this_op;
  if (cs.op.flags == 0) {
    // No operands attached (loads, plain RMWs): one test instead of three.
    cs.ctx.cas_desired.reset();
  } else {
    if (cs.op.flags & kHasStore) cs.ctx.store_value = cs.op.store_value;
    if ((cs.op.flags & kHasExpected) && cs.attempts_this_op == 1) {
      cs.ctx.expected = cs.op.cas_expected;
    }
    if (cs.op.flags & kHasDesired) {
      cs.ctx.cas_desired = cs.op.cas_desired;
    } else {
      cs.ctx.cas_desired.reset();
    }
  }
  const std::uint64_t value_before = line_value_[slot];
  OpResult result = apply_op(prim, slot, cs.ctx);
  if (cs.drop_write) {
    line_value_[slot] = value_before;  // injected lost update
    cs.drop_write = false;
  }

  const Cycles exec = cs.op.serve_cost;
  const Cycles latency = now_ - cs.issue_time;
  // Queue + transfer stall of *this acquisition* (a CAS loop's failed
  // attempts each stall separately; charging per attempt keeps losing
  // cores' spin energy accounted even when their op never completes).
  const Cycles attempt_span = now_ - cs.attempt_start;
  const Cycles waited = attempt_span > exec ? attempt_span - exec : 0;
  // Cycles this acquisition held the line slot (0 for a pure local read,
  // which never takes the slot).
  const Cycles held = cs.holds_token ? now_ - cs.grant_time : 0;

  const bool in_window = in_measure_window(now_);
  if (in_window && core < stats_->threads.size()) {
    ThreadStats& ts = stats_->threads[core];
    ts.exec_cycles += exec;
    ts.wait_cycles += waited;
    // Attempts (line acquisitions) are charged when they happen so that a
    // CAS loop's failed acquisitions count even if the op never completes
    // inside the window.
    ++ts.attempts;
    energy_->add_active_cycles(exec);
    energy_->add_spin_cycles(waited);
  }
  if (profile_lines_ && in_window && held > 0) {
    line_prof_[cs.op.line].hold_cycles += held;
  }
  if (EpochSample* ep = epoch_at(now_)) {
    ++ep->attempts;
    ep->wait_cycles += waited;
    ep->exec_cycles += exec;
  }

  // Release the line slot before anything else so queued requesters are
  // served ahead of our own retry — the hardware behaviour that makes
  // CAS loops lose their line between attempts.
  if (cs.holds_token) {
    cs.holds_token = false;
    line_busy_[slot] = 0;
  }

  if (prim == Primitive::kCasLoop && !result.success) {
    if (sink_ != nullptr) {
      obs::TraceEvent e;
      e.kind = obs::TraceEventKind::kRetry;
      e.time = now_;
      e.core = core;
      e.line = cs.op.line;
      // The retry starts a fresh acquisition flow (new id so the viewer
      // draws one arrow per attempt -> grant pair).
      e.req_id = next_req_id_ + 1;
      e.prim = static_cast<std::uint8_t>(prim);
      e.supply = static_cast<std::uint8_t>(cs.last_supply);
      e.value = line_value_[slot];
      e.hold_cycles = held;
      sink_->on_event(e);
    }
    cs.req_id = ++next_req_id_;
    try_grant(slot);
    submit_request(core);  // retry; issue_time (and thus latency) persists
    return;
  }

  if (sink_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kOpDone;
    e.time = now_;
    e.core = core;
    e.line = cs.op.line;
    e.req_id = cs.req_id;
    e.prim = static_cast<std::uint8_t>(prim);
    e.supply = static_cast<std::uint8_t>(cs.last_supply);
    e.success = result.success;
    e.value = line_value_[slot];
    e.latency = latency;
    e.hold_cycles = held;
    sink_->on_event(e);
  }
  if (EpochSample* ep = epoch_at(now_)) ++ep->ops;
  adjust_outstanding(-1);
  ++run_ops_;
  ++progress_marks_;  // an operation retired: forward progress

  if (in_window && core < stats_->threads.size()) {
    record_completion(core, result, latency);
  }
  cs.has_pending = false;
  // Plan-eligible programs ignore results (contract in program.hpp), so the
  // virtual call is skipped on the static fast path.
  if (!cs.has_plan) program_->on_result(core, result);
  if (hook_ != nullptr) hook_->on_step(core);
  try_grant(slot);
  schedule_tail(now_, EventKind::kFetchNext, core);
}

void Machine::handle_local_op_done(CoreId core) {
  CoreState& cs = core_states_[core];
  const Primitive prim = cs.op.prim;
  const LocalOp kind = cs.local_op;
  cs.local_op = LocalOp::kNone;
  ++cs.attempts_this_op;

  OpResult result;
  switch (kind) {
    case LocalOp::kFence:
      result.observed = 0;
      if (stats_ != nullptr && in_measure_window(now_)) {
        ++stats_->fences;
        energy_->add_fence();
      }
      break;
    case LocalOp::kBufferedStore: {
      if (cs.op.flags & kHasStore) cs.ctx.store_value = cs.op.store_value;
      cs.ctx.cas_desired.reset();
      cs.sbuf.push_back(
          BufferedStore{cs.op.line, cs.op.slot, cs.ctx.store_value});
      result.observed = cs.ctx.store_value;
      break;
    }
    case LocalOp::kForwardedLoad:
      result.observed = cs.forward_value;
      cs.ctx.expected = cs.forward_value;
      break;
    case LocalOp::kNone:
      break;
  }

  const Cycles exec = cs.op.serve_cost;
  const Cycles latency = now_ - cs.issue_time;
  const Cycles attempt_span = now_ - cs.attempt_start;
  const Cycles waited = attempt_span > exec ? attempt_span - exec : 0;
  const bool in_window = in_measure_window(now_);
  if (in_window && core < stats_->threads.size()) {
    ThreadStats& ts = stats_->threads[core];
    ts.exec_cycles += exec;
    ts.wait_cycles += waited;
    ++ts.attempts;
    energy_->add_active_cycles(exec);
    energy_->add_spin_cycles(waited);
  }
  if (EpochSample* ep = epoch_at(now_)) {
    ++ep->attempts;
    ep->wait_cycles += waited;
    ep->exec_cycles += exec;
    ++ep->ops;
  }
  if (sink_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kOpDone;
    e.time = now_;
    e.core = core;
    e.line = cs.op.line;
    e.req_id = cs.req_id;
    e.prim = static_cast<std::uint8_t>(prim);
    e.supply = static_cast<std::uint8_t>(Supply::kLocalHit);
    e.success = result.success;
    e.value = result.observed;
    e.latency = latency;
    sink_->on_event(e);
  }
  adjust_outstanding(-1);
  ++run_ops_;
  ++progress_marks_;  // a local retirement is forward progress too
  if (in_window && core < stats_->threads.size()) {
    record_completion(core, result, latency);
  }
  cs.has_pending = false;
  if (!cs.has_plan) program_->on_result(core, result);
  if (hook_ != nullptr) hook_->on_step(core);
  schedule_tail(now_, EventKind::kFetchNext, core);
}

void Machine::start_drain(CoreId core, DrainResume resume) {
  CoreState& cs = core_states_[core];
  cs.draining = true;
  cs.drain_resume = resume;
  drain_next(core);
}

void Machine::drain_next(CoreId core) {
  CoreState& cs = core_states_[core];
  if (cs.sbuf.empty()) {
    cs.draining = false;
    const DrainResume resume = cs.drain_resume;
    cs.drain_resume = DrainResume::kNone;
    if (resume == DrainResume::kResubmit) {
      submit_request(core);  // the parked foreground op proceeds
    } else if (resume == DrainResume::kFinish) {
      cs.done = true;
    }
    return;
  }
  // The head store needs exclusive ownership of its line to commit — the
  // drain is an ordinary directory transaction competing with everyone else.
  const BufferedStore& bs = cs.sbuf.front();
  const std::uint32_t s = bs.slot;
  const Mesi st = state_of(s, core);
  if (line_owner_[s] == core && line_busy_[s] == 0 &&
      (st == Mesi::kExclusive || st == Mesi::kModified)) {
    touch_resident(core, s);
    line_busy_[s] = 1;
    cs.holds_token = true;
    cs.last_supply = Supply::kLocalHit;
    cs.last_xfer = 0;
    cs.grant_time = now_;
    schedule(now_ + config_.l1_hit, EventKind::kDrainDone, core);
    return;
  }
  double weight = 0.0;
  if (config_.arbitration == Arbitration::kProximityBiased) {
    const CoreId home = static_cast<CoreId>(bs.line % cores_);
    weight = weight_by_dist_[routes_->distance(home, core)];
  }
  line_queue_[s].push_back(PendingRequest{core, /*exclusive=*/true, now_,
                                          weight});
  try_grant(s);
}

void Machine::handle_drain_done(CoreId core) {
  CoreState& cs = core_states_[core];
  const BufferedStore bs = cs.sbuf.front();
  cs.sbuf.erase(cs.sbuf.begin());  // FIFO: oldest store commits first
  line_value_[bs.slot] = bs.value;
  if (stats_ != nullptr && in_measure_window(now_)) {
    ++stats_->store_buffer_drains;
  }
  if (sink_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kDrain;
    e.time = now_;
    e.core = core;
    e.line = bs.line;
    e.value = bs.value;
    e.queue_depth = static_cast<std::uint32_t>(cs.sbuf.size());
    sink_->on_event(e);
  }
  ++progress_marks_;  // a committed write-back is forward progress
  if (cs.holds_token) {
    cs.holds_token = false;
    line_busy_[bs.slot] = 0;
  }
  try_grant(bs.slot);
  drain_next(core);
}

void Machine::flush_metrics(std::uint64_t cycles) {
  namespace m = obs::metrics;
  if (!m::enabled()) return;
  // One registry lookup per process (the instruments are immortal), one
  // sharded fetch-add per counter per run.
  static m::Counter& runs = m::default_registry().counter(
      "am_sim_runs_total", "Machine::run calls completed (incl. watchdog)");
  static m::Counter& sim_cycles = m::default_registry().counter(
      "am_sim_cycles_total", "Simulated cycles elapsed across all runs");
  static m::Counter& events = m::default_registry().counter(
      "am_sim_events_total", "Events dispatched by the simulator's run loop");
  static m::Counter& inlined = m::default_registry().counter(
      "am_sim_events_inline_total",
      "Dispatched events run inline, without a queue push and pop");
  static m::Counter& ops = m::default_registry().counter(
      "am_sim_ops_total", "Atomic operations retired by the simulator");
  static m::Counter& grants = m::default_registry().counter(
      "am_sim_directory_grants_total", "Directory line-slot grants served");
  static m::Counter& transitions = m::default_registry().counter(
      "am_sim_mesi_transitions_total", "MESI line-state transitions applied");
  static m::Counter& invals = m::default_registry().counter(
      "am_sim_invalidations_total", "Cache-line copies invalidated");
  runs.inc();
  sim_cycles.inc(cycles);
  events.inc(run_events_);
  inlined.inc(run_inlined_);
  ops.inc(run_ops_);
  grants.inc(run_grants_);
  transitions.inc(run_transitions_);
  invals.inc(run_invalidations_);
}

Cycles Machine::measure_single_op(CoreId core, Primitive prim, LineId id) {
  IssueRequest req;
  req.prim = prim;
  req.line = id;
  ScriptProgram script(core, {req});
  const RunStats st = run(script, core + 1, 0, std::numeric_limits<Cycles>::max() / 2);
  if (core < st.threads.size() && st.threads[core].ops == 1) {
    return static_cast<Cycles>(st.threads[core].latency_sum);
  }
  return 0;
}

}  // namespace am::sim
