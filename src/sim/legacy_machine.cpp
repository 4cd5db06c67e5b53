// Verbatim port of the seed-core machine.cpp (see legacy_machine.hpp for
// why this exists and why it must not change behaviour). The only edits
// relative to the seed file are the namespace, the removal of the
// PointTimeout definitions (shared with the live core via machine.hpp) and
// the removal of the telemetry flush (the reference core must not
// double-count the process-wide am_sim_* counters).
#include "sim/legacy_machine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace am::sim::legacy {

Machine::Machine(MachineConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      interconnect_(config_.make_interconnect()),
      cores_(config_.core_count()) {
  if (!interconnect_) throw std::invalid_argument("Machine: bad interconnect");
  // The frozen seed core is sequentially consistent only; a TSO config here
  // would silently simulate the wrong model (and differential comparisons
  // against the live core would be meaningless).
  if (config_.memory_model != MemoryModel::kSc) {
    throw std::invalid_argument(
        "legacy::Machine: only MemoryModel::kSc is supported");
  }
  if (config_.cache_capacity_lines == 0) config_.cache_capacity_lines = 1;
  core_states_.resize(cores_);
  residency_.resize(cores_);
  rngs_.reserve(cores_);
  SplitMix64 sm(seed);
  for (CoreId c = 0; c < cores_; ++c) rngs_.emplace_back(sm.next());
  arb_rng_ = Xoshiro256(sm.next());
}

void Machine::prime_line(LineId id, Mesi state, CoreId owner,
                         std::uint64_t value) {
  LineState& ls = line(id);
  for (CoreId c = 0; c < cores_; ++c) forget_resident(c, id);
  ls = LineState{};
  ls.value = value;
  switch (state) {
    case Mesi::kInvalid:
      break;  // memory-only
    case Mesi::kShared:
      ls.sharers.push_back(owner);
      break;
    case Mesi::kExclusive:
      ls.owner = owner;
      ls.owner_state = Mesi::kExclusive;
      break;
    case Mesi::kModified:
      ls.owner = owner;
      ls.owner_state = Mesi::kModified;
      break;
  }
  if (state != Mesi::kInvalid) touch_resident(owner, id);
}

std::uint64_t Machine::line_value(LineId id) const {
  const auto it = lines_.find(id);
  return it == lines_.end() ? 0 : it->second.value;
}

Mesi Machine::state_of(const LineState& ls, CoreId core) const {
  if (ls.owner == core) return ls.owner_state;
  if (std::find(ls.sharers.begin(), ls.sharers.end(), core) != ls.sharers.end()) {
    return Mesi::kShared;
  }
  return Mesi::kInvalid;
}

Mesi Machine::line_state(LineId id, CoreId core) const {
  const auto it = lines_.find(id);
  return it == lines_.end() ? Mesi::kInvalid : state_of(it->second, core);
}

std::vector<LineId> Machine::touched_lines() const {
  std::vector<LineId> ids;
  ids.reserve(lines_.size());
  for (const auto& [id, ls] : lines_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Machine::LineSnapshot Machine::snapshot_line(LineId id) const {
  LineSnapshot snap;
  const auto it = lines_.find(id);
  if (it == lines_.end()) return snap;
  const LineState& ls = it->second;
  snap.owner = ls.owner;
  snap.owner_state = ls.owner_state;
  snap.sharers = ls.sharers;
  snap.value = ls.value;
  snap.busy = ls.busy;
  snap.queued = ls.queue.size();
  return snap;
}

void Machine::verify_invariants() const {
  for (const auto& [id, ls] : lines_) check_line_invariants(ls, id);
}

void Machine::schedule(Cycles time, EventKind kind, CoreId core) {
  events_.push(Event{time, next_seq_++, kind, core});
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

RunStats Machine::run(ThreadProgram& program, CoreId active_cores,
                      Cycles warmup, Cycles measure) {
  if (active_cores > cores_) {
    throw std::invalid_argument("Machine::run: more active cores than exist");
  }
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

  for (CoreId c = 0; c < active_cores; ++c) schedule(0, EventKind::kFetchNext, c);

  progress_marks_ = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t last_marks = 0;
  std::uint64_t last_progress_event = 0;

  try {
    while (!events_.empty()) {
      const Event ev = events_.top();
      events_.pop();
      now_ = ev.time;
      if (watchdog_.max_cycles != 0 && now_ > watchdog_.max_cycles) {
        throw PointTimeout(PointTimeout::Kind::kCycleBudget, now_,
                           events_processed);
      }
      switch (ev.kind) {
        case EventKind::kFetchNext: handle_fetch_next(ev); break;
        case EventKind::kIssue: handle_issue(ev); break;
        case EventKind::kOpDone: handle_op_done(ev); break;
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
    }
  } catch (...) {
    events_ = {};
    if (sink_ != nullptr) sink_->on_run_end();
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

  program_ = nullptr;
  stats_ = nullptr;
  energy_ = nullptr;
  return stats;
}

void Machine::handle_fetch_next(const Event& ev) {
  CoreState& cs = core_states_[ev.core];
  if (cs.done || now_ >= end_time_) {
    cs.done = true;
    return;
  }
  auto next = program_->next_op(ev.core, rngs_[ev.core]);
  if (!next) {
    cs.done = true;
    return;
  }
  cs.pending = *next;
  cs.has_pending = true;
  cs.attempts_this_op = 0;
  if (in_measure_window(now_) && ev.core < stats_->threads.size()) {
    stats_->threads[ev.core].work_cycles += next->work_before;
    energy_->add_active_cycles(next->work_before);
  }
  schedule(now_ + next->work_before, EventKind::kIssue, ev.core);
}

void Machine::handle_issue(const Event& ev) {
  CoreState& cs = core_states_[ev.core];
  cs.issue_time = now_;
  cs.req_id = ++next_req_id_;
  if (sink_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kIssue;
    e.time = now_;
    e.core = ev.core;
    e.line = cs.pending.line;
    e.req_id = cs.req_id;
    e.prim = static_cast<std::uint8_t>(cs.pending.prim);
    sink_->on_event(e);
  }
  adjust_outstanding(+1);
  submit_request(ev.core);
}

void Machine::submit_request(CoreId core) {
  CoreState& cs = core_states_[core];
  cs.attempt_start = now_;
  const Primitive prim = cs.pending.prim;
  LineState& ls = line(cs.pending.line);
  const Mesi st = state_of(ls, core);

  if (prim == Primitive::kLoad && st != Mesi::kInvalid) {
    touch_resident(core, cs.pending.line);
    cs.last_supply = Supply::kLocalHit;
    cs.last_xfer = 0;
    cs.holds_token = false;
    cs.grant_time = now_;
    note_grant(cs.pending.line, core, Supply::kLocalHit, 0, 0,
               /*counts_acquisition=*/false);
    schedule(now_ + config_.l1_hit + config_.exec_cost_of(prim),
             EventKind::kOpDone, core);
    return;
  }

  if (needs_exclusive(prim) && ls.owner == core && !ls.busy &&
      (st == Mesi::kExclusive || st == Mesi::kModified)) {
    touch_resident(core, cs.pending.line);
    ls.busy = true;
    cs.holds_token = true;
    cs.last_supply = Supply::kLocalHit;
    cs.last_xfer = 0;
    cs.grant_time = now_;
    note_grant(cs.pending.line, core, Supply::kLocalHit, 0, 0,
               /*counts_acquisition=*/true);
    schedule(now_ + config_.l1_hit + config_.exec_cost_of(prim),
             EventKind::kOpDone, core);
    return;
  }

  if (config_.fault == FaultInjection::kLostUpgradeWrite &&
      needs_exclusive(prim) && st == Mesi::kShared && !ls.busy) {
    touch_resident(core, cs.pending.line);
    ls.busy = true;
    cs.holds_token = true;
    cs.drop_write = true;
    cs.last_supply = Supply::kLocalHit;
    cs.last_xfer = 0;
    cs.grant_time = now_;
    note_grant(cs.pending.line, core, Supply::kLocalHit, 0, 0,
               /*counts_acquisition=*/true);
    schedule(now_ + config_.l1_hit + config_.exec_cost_of(prim),
             EventKind::kOpDone, core);
    return;
  }

  ls.queue.push_back(PendingRequest{core, needs_exclusive(prim), now_});
  try_grant(cs.pending.line);
}

std::size_t Machine::arbitrate(const LineState& ls, LineId id) {
  assert(!ls.queue.empty());
  if (config_.arbitration == Arbitration::kFifo) {
    return 0;
  }

  if (config_.arbitration == Arbitration::kNearestFirst) {
    if (ls.owner == kNoCore) return 0;
    if (config_.arbitration_age_limit > 0 &&
        now_ - ls.queue.front().arrival > config_.arbitration_age_limit) {
      return 0;
    }
    std::size_t best = 0;
    std::uint32_t best_d = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t i = 0; i < ls.queue.size(); ++i) {
      const std::uint32_t d =
          interconnect_->distance(ls.owner, ls.queue[i].core);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    return best;
  }

  const CoreId home = static_cast<CoreId>(id % cores_);
  double total = 0.0;
  std::vector<double> weight(ls.queue.size());
  for (std::size_t i = 0; i < ls.queue.size(); ++i) {
    const std::uint32_t d = interconnect_->distance(home, ls.queue[i].core);
    weight[i] = std::exp(-static_cast<double>(d) / config_.arbitration_bias);
    total += weight[i];
  }
  double pick = arb_rng_.next_double() * total;
  for (std::size_t i = 0; i < ls.queue.size(); ++i) {
    pick -= weight[i];
    if (pick <= 0.0) return i;
  }
  return ls.queue.size() - 1;
}

void Machine::touch_resident(CoreId core, LineId id) {
  Residency& res = residency_[core];
  const auto it = res.index.find(id);
  if (it != res.index.end()) {
    res.lru.splice(res.lru.begin(), res.lru, it->second);
    return;
  }
  res.lru.push_front(id);
  res.index[id] = res.lru.begin();
  if (res.lru.size() > config_.cache_capacity_lines) evict_one(core);
}

void Machine::forget_resident(CoreId core, LineId id) {
  Residency& res = residency_[core];
  const auto it = res.index.find(id);
  if (it == res.index.end()) return;
  res.lru.erase(it->second);
  res.index.erase(it);
}

void Machine::evict_one(CoreId core) {
  Residency& res = residency_[core];
  for (auto it = res.lru.rbegin(); it != res.lru.rend(); ++it) {
    const LineId victim = *it;
    LineState& ls = line(victim);
    if (ls.busy) continue;
    const bool was_dirty =
        ls.owner == core && ls.owner_state == Mesi::kModified;
    if (ls.owner == core) {
      ls.owner = kNoCore;
      ls.owner_state = Mesi::kInvalid;
    } else {
      const auto sit = std::find(ls.sharers.begin(), ls.sharers.end(), core);
      if (sit != ls.sharers.end()) ls.sharers.erase(sit);
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
    forget_resident(core, victim);
    return;
  }
}

void Machine::check_line_invariants(const LineState& ls, LineId id) const {
  if (ls.owner != kNoCore) {
    if (ls.owner_state != Mesi::kExclusive && ls.owner_state != Mesi::kModified) {
      throw std::logic_error("MESI violation: owner without E/M state, line " +
                             std::to_string(id));
    }
    if (!ls.sharers.empty()) {
      throw std::logic_error(
          "MESI violation: sharers coexist with an exclusive owner, line " +
          std::to_string(id));
    }
    if (ls.owner >= cores_) {
      throw std::logic_error("MESI violation: owner out of range, line " +
                             std::to_string(id));
    }
  } else if (ls.owner_state != Mesi::kInvalid) {
    throw std::logic_error("MESI violation: ownerless E/M state, line " +
                           std::to_string(id));
  }
  for (std::size_t i = 0; i < ls.sharers.size(); ++i) {
    if (ls.sharers[i] >= cores_) {
      throw std::logic_error("MESI violation: sharer out of range, line " +
                             std::to_string(id));
    }
    for (std::size_t j = i + 1; j < ls.sharers.size(); ++j) {
      if (ls.sharers[i] == ls.sharers[j]) {
        throw std::logic_error("MESI violation: duplicate sharer, line " +
                               std::to_string(id));
      }
    }
  }
  for (std::size_t i = 0; i < ls.queue.size(); ++i) {
    for (std::size_t j = i + 1; j < ls.queue.size(); ++j) {
      if (ls.queue[i].core == ls.queue[j].core) {
        throw std::logic_error(
            "protocol violation: duplicate request from one core, line " +
            std::to_string(id));
      }
    }
  }
}

void Machine::invalidate_copy(LineState& ls, LineId id, CoreId core) {
  bool had_copy = false;
  forget_resident(core, id);
  if (ls.owner == core) {
    ls.owner = kNoCore;
    ls.owner_state = Mesi::kInvalid;
    had_copy = true;
  }
  const auto it = std::find(ls.sharers.begin(), ls.sharers.end(), core);
  if (it != ls.sharers.end()) {
    ls.sharers.erase(it);
    had_copy = true;
  }
  if (had_copy) {
    ++run_invalidations_;
    ++run_transitions_;
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

std::pair<Cycles, Supply> Machine::apply_grant(LineState& ls, LineId id,
                                               const PendingRequest& req) {
  const CoreId requester = req.core;
  Cycles xfer = 0;
  Supply supply = Supply::kLocalHit;

  const bool charge = in_measure_window(now_);
  if (ls.owner != kNoCore && ls.owner != requester) {
    xfer = interconnect_->transfer_cycles(ls.owner, requester);
    supply = interconnect_->supply_class(ls.owner, requester);
    if (charge) {
      energy_->add_transfer(interconnect_->hops(ls.owner, requester),
                            supply == Supply::kFar);
    }
    if (req.exclusive) {
      const CoreId old_owner = ls.owner;
      invalidate_copy(ls, id, old_owner);
      for (const CoreId s : std::vector<CoreId>(ls.sharers)) {
        invalidate_copy(ls, id, s);
      }
      ls.owner = requester;
      ls.owner_state = Mesi::kModified;
    } else {
      ls.sharers.push_back(ls.owner);
      ls.owner = kNoCore;
      ls.owner_state = Mesi::kInvalid;
      ls.sharers.push_back(requester);
    }
  } else if (ls.owner == requester) {
    xfer = 0;
    supply = Supply::kLocalHit;
  } else if (!ls.sharers.empty()) {
    xfer = config_.shared_supply;
    supply = Supply::kNear;
    if (charge) energy_->add_transfer(1, false);
    if (req.exclusive) {
      if (config_.fault != FaultInjection::kSkipSharedInvalidate) {
        for (const CoreId s : std::vector<CoreId>(ls.sharers)) {
          if (s != requester) invalidate_copy(ls, id, s);
        }
      }
      const auto self = std::find(ls.sharers.begin(), ls.sharers.end(), requester);
      if (self != ls.sharers.end()) ls.sharers.erase(self);
      ls.owner = requester;
      ls.owner_state = Mesi::kModified;
    } else {
      ls.sharers.push_back(requester);
    }
  } else {
    xfer = config_.memory_fill;
    supply = Supply::kMemory;
    if (charge) energy_->add_memory_fetch();
    if (stats_ != nullptr && in_measure_window(now_)) ++stats_->memory_fetches;
    if (req.exclusive) {
      ls.owner = requester;
      ls.owner_state = Mesi::kModified;
    } else {
      ls.owner = requester;
      ls.owner_state = Mesi::kExclusive;
    }
  }
  return {xfer, supply};
}

void Machine::try_grant(LineId id) {
  LineState& ls = line(id);
  if (ls.busy || ls.queue.empty()) return;

  const std::size_t idx = arbitrate(ls, id);
  const PendingRequest req = ls.queue[idx];
  ls.queue.erase(ls.queue.begin() + static_cast<std::ptrdiff_t>(idx));

  if (in_measure_window(now_)) energy_->add_directory_lookup();
  const auto [xfer, supply] = apply_grant(ls, id, req);
  if (stats_ != nullptr && in_measure_window(now_) &&
      req.core < stats_->threads.size()) {
    ++stats_->transfers[static_cast<std::size_t>(supply)];
  }

  if (config_.paranoid_checks) check_line_invariants(ls, id);
  ++run_grants_;
  if (supply != Supply::kLocalHit) ++run_transitions_;
  ++progress_marks_;
  note_grant(id, req.core, supply, xfer,
             static_cast<std::uint32_t>(ls.queue.size()),
             /*counts_acquisition=*/true);
  touch_resident(req.core, id);
  CoreState& cs = core_states_[req.core];
  cs.last_supply = supply;
  cs.last_xfer = xfer;
  cs.holds_token = true;
  cs.grant_time = now_;
  ls.busy = true;
  schedule(now_ + xfer + config_.l1_hit +
               config_.exec_cost_of(cs.pending.prim),
           EventKind::kOpDone, req.core);
}

OpResult Machine::apply_op(Primitive prim, LineState& ls, OpContext& ctx) {
  OpResult r;
  const std::uint64_t old = ls.value;
  switch (prim) {
    case Primitive::kLoad:
      r.observed = old;
      ctx.expected = old;
      break;
    case Primitive::kStore:
      ls.value = ctx.store_value;
      r.observed = ctx.store_value;
      break;
    case Primitive::kSwap:
      r.observed = old;
      ls.value = ctx.store_value;
      ctx.expected = ctx.store_value;
      break;
    case Primitive::kTas:
      r.observed = old;
      ls.value = 1;
      r.success = (old == 0);
      ctx.expected = 1;
      break;
    case Primitive::kFaa:
      r.observed = old;
      ls.value = old + 1;
      ctx.expected = old + 1;
      break;
    case Primitive::kCas:
    case Primitive::kCasLoop:
      if (old == ctx.expected) {
        ls.value = ctx.cas_desired.value_or(old + 1);
        ctx.expected = ls.value;
        r.observed = old;
        r.success = true;
      } else {
        ctx.expected = old;
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
  const auto prim_idx =
      static_cast<std::size_t>(core_states_[core].pending.prim);
  ++ts.ops;
  ++ts.ops_by_prim[prim_idx];
  if (r.success) {
    ++ts.successes;
    ++ts.successes_by_prim[prim_idx];
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

void Machine::handle_op_done(const Event& ev) {
  CoreState& cs = core_states_[ev.core];
  LineState& ls = line(cs.pending.line);
  const Primitive prim = cs.pending.prim;

  ++cs.attempts_this_op;
  if (cs.pending.store_value) cs.ctx.store_value = *cs.pending.store_value;
  if (cs.pending.cas_expected && cs.attempts_this_op == 1) {
    cs.ctx.expected = *cs.pending.cas_expected;
  }
  cs.ctx.cas_desired = cs.pending.cas_desired;
  const std::uint64_t value_before = ls.value;
  OpResult result = apply_op(prim, ls, cs.ctx);
  if (cs.drop_write) {
    ls.value = value_before;
    cs.drop_write = false;
  }

  const Cycles exec = config_.l1_hit + config_.exec_cost_of(prim);
  const Cycles latency = now_ - cs.issue_time;
  const Cycles attempt_span = now_ - cs.attempt_start;
  const Cycles waited = attempt_span > exec ? attempt_span - exec : 0;
  const Cycles held = cs.holds_token ? now_ - cs.grant_time : 0;

  const bool in_window = in_measure_window(now_);
  if (in_window && ev.core < stats_->threads.size()) {
    ThreadStats& ts = stats_->threads[ev.core];
    ts.exec_cycles += exec;
    ts.wait_cycles += waited;
    ++ts.attempts;
    energy_->add_active_cycles(exec);
    energy_->add_spin_cycles(waited);
  }
  if (profile_lines_ && in_window && held > 0) {
    line_prof_[cs.pending.line].hold_cycles += held;
  }
  if (EpochSample* ep = epoch_at(now_)) {
    ++ep->attempts;
    ep->wait_cycles += waited;
    ep->exec_cycles += exec;
  }

  if (cs.holds_token) {
    cs.holds_token = false;
    ls.busy = false;
  }

  if (prim == Primitive::kCasLoop && !result.success) {
    if (sink_ != nullptr) {
      obs::TraceEvent e;
      e.kind = obs::TraceEventKind::kRetry;
      e.time = now_;
      e.core = ev.core;
      e.line = cs.pending.line;
      e.req_id = next_req_id_ + 1;
      e.prim = static_cast<std::uint8_t>(prim);
      e.supply = static_cast<std::uint8_t>(cs.last_supply);
      e.value = ls.value;
      e.hold_cycles = held;
      sink_->on_event(e);
    }
    cs.req_id = ++next_req_id_;
    try_grant(cs.pending.line);
    submit_request(ev.core);
    return;
  }

  if (sink_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kOpDone;
    e.time = now_;
    e.core = ev.core;
    e.line = cs.pending.line;
    e.req_id = cs.req_id;
    e.prim = static_cast<std::uint8_t>(prim);
    e.supply = static_cast<std::uint8_t>(cs.last_supply);
    e.success = result.success;
    e.value = ls.value;
    e.latency = latency;
    e.hold_cycles = held;
    sink_->on_event(e);
  }
  if (EpochSample* ep = epoch_at(now_)) ++ep->ops;
  adjust_outstanding(-1);
  ++run_ops_;
  ++progress_marks_;

  if (in_window && ev.core < stats_->threads.size()) {
    record_completion(ev.core, result, latency);
  }
  cs.has_pending = false;
  program_->on_result(ev.core, result);
  try_grant(cs.pending.line);
  schedule(now_, EventKind::kFetchNext, ev.core);
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

}  // namespace am::sim::legacy
