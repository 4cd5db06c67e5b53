// Property tests for the event scheduler: randomized workloads are run
// against a std::priority_queue reference with the same (time, seq)
// comparator the seed core used. The byte-identity of the simulator rests on
// the two agreeing on every pop, so the generators here deliberately hit the
// sorted array's structural edges: same-timestamp FIFO bursts, far-apart
// times, pushes earlier than the last pop, a push before the head into the
// popped prefix, a walk-back insert into the middle, floods far past the
// one-event-per-core bound the simulator keeps, and dead-prefix compaction
// mid-stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/random.hpp"
#include "sim/event_queue.hpp"

namespace am::sim {
namespace {

struct RefEntry {
  Cycles time;
  std::uint64_t seq;
  std::uint32_t payload;
  bool operator>(const RefEntry& o) const noexcept {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};

using RefQueue =
    std::priority_queue<RefEntry, std::vector<RefEntry>, std::greater<>>;

/// Drives both queues through the same push/pop schedule and asserts every
/// popped (time, seq, payload) triple matches.
class DualQueue {
 public:
  void push(Cycles time, std::uint32_t payload) {
    cq_.push(time, seq_, payload);
    ref_.push(RefEntry{time, seq_, payload});
    ++seq_;
  }

  void pop_and_check() {
    ASSERT_FALSE(ref_.empty());
    ASSERT_FALSE(cq_.empty());
    const RefEntry want = ref_.top();
    ref_.pop();
    const SchedEntry got = cq_.pop();
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.seq, want.seq);
    ASSERT_EQ(got.payload, want.payload);
    ASSERT_EQ(cq_.size(), ref_.size());
  }

  /// push_unless_first on the queue under test. It must decline exactly an
  /// entry the reference would pop before everything it holds, whatever the
  /// seq: the reference is empty or the time is strictly earlier than its
  /// top's. A declined entry goes to neither queue. Returns whether pushed.
  bool push_unless_first_and_check(Cycles time, std::uint32_t payload) {
    const bool first = ref_.empty() || time < ref_.top().time;
    const bool pushed = cq_.push_unless_first(time, seq_, payload);
    EXPECT_EQ(pushed, !first) << "time " << time;
    if (pushed) ref_.push(RefEntry{time, seq_, payload});
    ++seq_;
    EXPECT_EQ(cq_.size(), ref_.size());
    return pushed;
  }

  void drain_and_check() {
    while (!ref_.empty()) pop_and_check();
    EXPECT_TRUE(cq_.empty());
  }

  std::size_t size() const { return ref_.size(); }

 private:
  EventQueue cq_;
  RefQueue ref_;
  std::uint64_t seq_ = 0;
};

TEST(EventQueue, EmptyAfterConstruction) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, SameTimestampIsFifo) {
  DualQueue dq;
  for (std::uint32_t i = 0; i < 100; ++i) dq.push(42, i);
  // FIFO among equal times: payloads must come back 0..99 in order.
  for (std::uint32_t i = 0; i < 100; ++i) {
    SCOPED_TRACE(i);
    dq.pop_and_check();
  }
}

TEST(EventQueue, InterleavedSameTimeBursts) {
  DualQueue dq;
  std::uint32_t p = 0;
  // Bursts at alternating times pushed out of time order.
  for (int round = 0; round < 20; ++round) {
    const Cycles t = (round % 2 == 0) ? 1000 : 500;
    for (int i = 0; i < 5; ++i) dq.push(t, p++);
  }
  dq.drain_and_check();
}

TEST(EventQueue, MonotoneStream) {
  DualQueue dq;
  Xoshiro256 rng(1);
  Cycles t = 0;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    t += rng.next() % 7;  // non-decreasing, many exact ties
    dq.push(t, i);
    if (rng.next() % 3 == 0) dq.pop_and_check();
  }
  dq.drain_and_check();
}

TEST(EventQueue, RandomMixedWorkload) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    DualQueue dq;
    Xoshiro256 rng(seed);
    std::uint32_t p = 0;
    for (int step = 0; step < 20000; ++step) {
      const bool do_push = dq.size() == 0 || rng.next() % 100 < 55;
      if (do_push) {
        // Mixed scales: mostly near-term, occasional far-future times,
        // occasional duplicates.
        const std::uint64_t r = rng.next() % 100;
        Cycles t;
        if (r < 70) {
          t = rng.next() % 1024;
        } else if (r < 90) {
          t = rng.next() % (1u << 20);
        } else {
          t = rng.next() % (1ull << 40);
        }
        dq.push(t, p++);
      } else {
        dq.pop_and_check();
      }
    }
    dq.drain_and_check();
  }
}

TEST(EventQueue, PushUnlessFirstDeclinesOnlyStrictlyEarliest) {
  DualQueue dq;
  // Empty queue: declined. An equal time loses to the queued entry's older
  // seq, so it is pushed; a strictly earlier one is declined.
  EXPECT_FALSE(dq.push_unless_first_and_check(10, 0));
  dq.push(10, 1);
  EXPECT_TRUE(dq.push_unless_first_and_check(10, 2));
  EXPECT_FALSE(dq.push_unless_first_and_check(9, 3));
  EXPECT_TRUE(dq.push_unless_first_and_check(11, 4));
  dq.drain_and_check();
  // Random streams mixing plain pushes, pops and push_unless_first around
  // the head's time, through the popped-prefix and walk-back paths.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Xoshiro256 rng(seed);
    Cycles now = 0;
    std::uint32_t p = 100;
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t r = rng.next() % 100;
      const Cycles t = now + rng.next() % 16;
      if (r < 35) {
        dq.push(t, p++);
      } else if (r < 70) {
        dq.push_unless_first_and_check(t, p++);
      } else if (dq.size() > 0) {
        dq.pop_and_check();
        now += rng.next() % 4;
      }
    }
    dq.drain_and_check();
  }
}

TEST(EventQueue, CursorRewindOnPastPush) {
  DualQueue dq;
  // Pop deep into time, then push earlier events — the simulator does this
  // when an in-flight transfer completes before an already-scheduled
  // far-future fetch.
  dq.push(1'000'000, 0);
  dq.pop_and_check();  // the last pop was at 1M
  for (std::uint32_t i = 1; i <= 50; ++i) dq.push(i, i);
  dq.push(999'999, 51);
  dq.push(0, 52);  // earlier than everything
  dq.drain_and_check();
}

TEST(EventQueue, GrowAndShrinkKeepOrder) {
  // A 4096-entry flood, far past the simulator's one event per core, in
  // random order: most pushes walk back from the tail. Drained in order.
  DualQueue dq;
  Xoshiro256 rng(99);
  std::uint32_t p = 0;
  for (int i = 0; i < 4096; ++i) dq.push(rng.next() % 100000, p++);
  dq.drain_and_check();
  // The emptied queue starts over from scratch.
  for (int i = 0; i < 100; ++i) dq.push(rng.next() % 1000, p++);
  dq.drain_and_check();
}

TEST(EventQueue, PushBeforeHeadAfterPops) {
  // After pops the popped prefix has room, so an entry strictly before the
  // head is written just in front of it. An entry at the head's own time
  // loses the seq tie-break and must not take that slot.
  DualQueue dq;
  for (std::uint32_t i = 0; i < 10; ++i) dq.push(100 + 10 * i, i);
  for (int i = 0; i < 3; ++i) dq.pop_and_check();  // head now at time 130
  dq.push(125, 10);
  dq.push(120, 11);  // before the new head again
  dq.push(130, 12);  // ties the old head: goes after it
  dq.push(120, 13);  // ties the head written above: goes after it
  dq.pop_and_check();
  dq.push(5, 14);  // far earlier than every pop so far
  dq.drain_and_check();
}

TEST(EventQueue, PushIntoMiddle) {
  // With nothing popped the prefix has no room: an entry before the head is
  // inserted at the front, one between entries walks back from the tail.
  DualQueue dq;
  for (std::uint32_t i = 0; i < 16; ++i) dq.push(1000 + 100 * i, i);
  dq.push(1550, 16);   // middle
  dq.push(1500, 17);   // ties an entry: after it
  dq.push(500, 18);    // before the head, prefix empty: front insert
  dq.push(2450, 19);   // just before the tail
  dq.push(2500, 20);   // ties the tail: appended
  dq.pop_and_check();
  dq.pop_and_check();
  dq.push(1650, 21);   // middle, with a popped prefix
  dq.drain_and_check();
}

TEST(EventQueue, DeadPrefixCompactionMidStream) {
  // The dead prefix is erased once it is at least 64 entries and half the
  // array: 200 monotone pushes and 100 pops erase it on the 100th pop. Then
  // pushes to every edge (the front of a prefix-free array, the middle, the
  // tail, before a regrown prefix) keep landing in order around each erase.
  DualQueue dq;
  Xoshiro256 rng(7);
  std::uint32_t p = 0;
  Cycles t = 0;
  for (int i = 0; i < 200; ++i) dq.push(t += 10, p++);
  for (int i = 0; i < 100; ++i) dq.pop_and_check();
  dq.push(5, p++);      // before the head with no prefix left: front insert
  dq.push(1505, p++);   // middle
  for (int round = 0; round < 2000; ++round) {
    dq.pop_and_check();
    const std::uint64_t r = rng.next() % 10;
    if (r < 6) {
      dq.push(t += 10, p++);               // tail
    } else if (r < 8) {
      dq.push(t - rng.next() % 500, p++);  // middle (or before the head)
    } else if (r < 9) {
      dq.push(0, p++);                     // before everything
    }
    if (dq.size() == 0) dq.push(t += 10, p++);
  }
  dq.drain_and_check();
}

TEST(EventQueue, SparseFarApartTimes) {
  // Each event sits far from the next (the times grow 3x per push and wrap
  // past 2^64): order holds across any gap.
  DualQueue dq;
  Cycles t = 1;
  for (std::uint32_t i = 0; i < 64; ++i) {
    dq.push(t, i);
    t *= 3;
  }
  dq.drain_and_check();
}

TEST(EventQueue, ClearKeepsQueueUsable) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 100; ++i) q.push(i * 10, i, i);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // A cleared queue must order fresh pushes correctly from scratch.
  q.push(30, 0, 0);
  q.push(10, 1, 1);
  q.push(20, 2, 2);
  EXPECT_EQ(q.pop().payload, 1u);
  EXPECT_EQ(q.pop().payload, 2u);
  EXPECT_EQ(q.pop().payload, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PayloadRoundTrips) {
  EventQueue q;
  q.push(5, 0, 0xdeadbeef);
  const SchedEntry e = q.pop();
  EXPECT_EQ(e.time, 5u);
  EXPECT_EQ(e.payload, 0xdeadbeefu);
}

}  // namespace
}  // namespace am::sim
