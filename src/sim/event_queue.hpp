// Event scheduler for the simulator core: a vector kept sorted by
// (time, seq) with a head cursor.
//
// Order contract (locked down by tests/sim/event_queue_test.cpp against the
// seed core's scheduler as a reference): pop() returns entries in ascending
// (time, seq) order, so equal times dispatch FIFO by the caller's insertion
// counter. Every digest, trace and watchdog message of the simulator rests on
// that order.
//
// Why a sorted array: each core has at most one event in flight (fetch ->
// issue -> done, or one store-buffer drain step; a core waiting in a line
// queue has none), so the queue never holds more than the run's active cores
// (<= 64 on every preset). Most pushes land at the tail (monotone streams and
// same-time lockstep bursts) or strictly before the head (the pushing core's
// next event is the earliest one), and both are O(1) here. The machine
// offers a core's fetch after a retirement and its completion after a
// local-hit issue through push_unless_first(): a strictly-earliest one is
// declined and dispatched next without entering the array. docs/sim_core.md
// has the measurements and the designs that lost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace am::sim {

/// One scheduled event. `seq` is the caller's insertion counter and is the
/// FIFO tie-break among equal times; `payload` is opaque to the queue.
struct SchedEntry {
  Cycles time = 0;
  std::uint64_t seq = 0;
  std::uint32_t payload = 0;
};

class EventQueue {
 public:
  /// Inserts an entry. Any time is allowed, including one earlier than the
  /// last pop; the total order is still honoured.
  void push(Cycles time, std::uint64_t seq, std::uint32_t payload) {
    const SchedEntry e{time, seq, payload};
    if (empty() || !before(e, items_.back())) {
      items_.push_back(e);
    } else if (head_ > 0 && before(e, items_[head_])) {
      items_[--head_] = e;  // reuse the popped prefix
    } else {
      auto it = items_.end() - 1;
      const auto first = items_.begin() + static_cast<std::ptrdiff_t>(head_);
      while (it != first && before(e, *(it - 1))) --it;
      items_.insert(it, e);
    }
  }

  /// Inserts an entry unless it would pop before every queued entry whatever
  /// its seq: the queue is empty or @p time is strictly earlier than the
  /// head's. Returns false, inserting nothing, in that case.
  bool push_unless_first(Cycles time, std::uint64_t seq,
                         std::uint32_t payload) {
    if (empty() || time < items_[head_].time) return false;
    push(time, seq, payload);
    return true;
  }

  /// Removes and returns the minimum entry by (time, seq). Precondition:
  /// !empty().
  SchedEntry pop() {
    const SchedEntry e = items_[head_++];
    if (head_ == items_.size()) {
      clear();
    } else if (head_ >= 64 && head_ * 2 >= items_.size()) {
      // Reclaim the dead prefix once it dominates the array.
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return e;
  }

  bool empty() const noexcept { return head_ == items_.size(); }
  std::size_t size() const noexcept { return items_.size() - head_; }

  /// Drops all entries but keeps the capacity (also the watchdog abort path).
  void clear() noexcept {
    items_.clear();
    head_ = 0;
  }

 private:
  static bool before(const SchedEntry& a, const SchedEntry& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  std::vector<SchedEntry> items_;  ///< live entries at [head_, end), sorted
  std::size_t head_ = 0;
};

}  // namespace am::sim
