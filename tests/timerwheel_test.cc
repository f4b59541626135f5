// TimerWheel property tests: the wheel must behave exactly like a sorted
// list keyed by (when, seq) -- same fire order, same minimum, regardless of
// slot geometry, cascades, cancels, or how the cursor advances. The
// reference model here IS that sorted list.

#include "src/kern/timerwheel.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <vector>

#include "gtest/gtest.h"

namespace fluke {
namespace {

// Entries never have their thread dereferenced by the wheel itself, so a
// fake tag pointer is enough to identify them.
Thread* Tag(uint64_t id) { return reinterpret_cast<Thread*>(id + 1); }

struct RefEntry {
  Time when;
  uint64_t seq;
  uint64_t id;
};

// The reference: a map keyed by (when, seq) -- a total order, since seqs
// are unique.
using RefModel = std::map<std::pair<Time, uint64_t>, uint64_t>;

// Drains everything due at `now` from both the wheel and the reference and
// requires identical (when, seq, id) sequences.
void DrainAndCompare(TimerWheel& w, RefModel& ref, Time now) {
  for (;;) {
    TimerWheel::Entry* e = w.PeekDue(now);
    if (e == nullptr) {
      break;
    }
    ASSERT_FALSE(ref.empty());
    const auto it = ref.begin();
    ASSERT_LE(it->first.first, now) << "wheel fired an entry the reference "
                                       "does not consider due";
    EXPECT_EQ(e->when, it->first.first);
    EXPECT_EQ(e->seq, it->first.second);
    EXPECT_EQ(e->thread, Tag(it->second));
    ref.erase(it);
    TimerWheel::Entry* popped = w.PopDue(now);
    ASSERT_EQ(popped, e);
    w.Free(popped);
  }
  // Nothing due remains in the reference either.
  if (!ref.empty()) {
    EXPECT_GT(ref.begin()->first.first, now);
  }
  EXPECT_EQ(w.size(), ref.size());
  if (!ref.empty()) {
    EXPECT_EQ(w.NextDeadline(), ref.begin()->first.first);
  }
}

TEST(TimerWheelTest, FiresInWhenSeqOrder) {
  TimerWheel w;
  RefModel ref;
  uint64_t seq = 0;
  // Equal deadlines tie-break by seq: arm several at the same tick.
  std::vector<Time> whens = {5000, 3000, 3000, 3000, 100000, 5000, 64 << 10};
  std::map<uint64_t, TimerWheel::Entry*> live;
  for (uint64_t i = 0; i < whens.size(); ++i) {
    live[i] = w.Arm(whens[i], seq, Tag(i), 0);
    ref[{whens[i], seq}] = i;
    ++seq;
  }
  DrainAndCompare(w, ref, 4000);
  DrainAndCompare(w, ref, 70000);
  DrainAndCompare(w, ref, 1 << 20);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheelTest, CancelRemovesImmediatelyAndExactly) {
  TimerWheel w;
  RefModel ref;
  std::map<uint64_t, TimerWheel::Entry*> live;
  uint64_t seq = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    const Time when = 1000 + i * 7777;
    live[i] = w.Arm(when, seq, Tag(i), 0);
    ref[{when, seq}] = i;
    ++seq;
  }
  // Cancel every third entry, including the current minimum.
  for (uint64_t i = 0; i < 64; i += 3) {
    w.Cancel(live[i]);
    for (auto it = ref.begin(); it != ref.end(); ++it) {
      if (it->second == i) {
        ref.erase(it);
        break;
      }
    }
    live.erase(i);
  }
  EXPECT_EQ(w.size(), ref.size());
  EXPECT_EQ(w.NextDeadline(), ref.begin()->first.first);
  DrainAndCompare(w, ref, 1 << 20);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheelTest, CascadeBoundaryAtCollectTargetDoesNotStrand) {
  // Regression shape for the FP-config hang: the cursor lands exactly on a
  // level-1 window boundary as Collect()'s final tick, and entries in that
  // window must not wait a whole extra rotation.
  TimerWheel w;
  // One level-0 tick is 1 << 10 ns; a level-1 window is 64 ticks. Put an
  // entry at the start of the next level-1 window...
  const Time boundary_tick = 64;  // cursor tick of the window start
  const Time when = (boundary_tick << 10) + 5;
  w.Arm(when, 0, Tag(1), 0);
  // ...advance so that Collect's target is exactly the boundary tick
  // (PeekDue(now) collects up to tick (now >> 10) + 1)...
  EXPECT_EQ(w.PeekDue((boundary_tick - 1) << 10), nullptr);
  // ...then ask for the deadline and the entry: no rotation-long stall.
  EXPECT_EQ(w.NextDeadline(), when);
  TimerWheel::Entry* e = w.PopDue(when);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->when, when);
  w.Free(e);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheelTest, ArmAfterPopKeepsDeadlineExact) {
  // Popping the minimum invalidates the cached deadline; an Arm() before
  // the next NextDeadline() must not re-validate it with its own, later,
  // `when`.
  TimerWheel w;
  w.Arm(1000, 0, Tag(0), 0);
  w.Arm(2000, 1, Tag(1), 0);
  EXPECT_EQ(w.NextDeadline(), 1000u);
  TimerWheel::Entry* e = w.PopDue(1500);
  ASSERT_NE(e, nullptr);
  w.Free(e);
  w.Arm(9000, 2, Tag(2), 0);
  EXPECT_EQ(w.NextDeadline(), 2000u);
}

TEST(TimerWheelTest, CursorSlotHoldsTheNextRotation) {
  // With the cursor inside level-1 window 0, an entry just under a full
  // level-1 rotation out lands in level-1 slot 0 -- the cursor's own slot
  // -- and must count as that level's last slot, not its first.
  TimerWheel w;
  RefModel ref;
  EXPECT_EQ(w.PeekDue(Time{9} << 10), nullptr);  // cursor to tick 10
  const Time far = (Time{64 * 64 + 5} << 10);     // tick 4101, slot 0
  const Time near = (Time{200} << 10);             // tick 200, slot 3
  w.Arm(far, 0, Tag(0), 0);
  ref[{far, 0}] = 0;
  w.Arm(near, 1, Tag(1), 0);
  ref[{near, 1}] = 1;
  EXPECT_EQ(w.NextDeadline(), near);
  DrainAndCompare(w, ref, near);
  EXPECT_EQ(w.NextDeadline(), far);
  DrainAndCompare(w, ref, far);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheelTest, OverflowEntriesCascadeBackIn) {
  TimerWheel w;
  RefModel ref;
  uint64_t seq = 0;
  // Coverage is 2^(10 + 6*8) ns; these sit on the overflow list.
  const Time huge = Time{1} << 60;
  for (uint64_t i = 0; i < 4; ++i) {
    const Time when = huge + i * 999;
    w.Arm(when, seq, Tag(i), 0);
    ref[{when, seq}] = i;
    ++seq;
  }
  // A near entry fires first; the overflow minimum is still exact.
  w.Arm(2000, seq, Tag(77), 0);
  ref[{2000, seq}] = 77;
  ++seq;
  EXPECT_EQ(w.NextDeadline(), 2000u);
  DrainAndCompare(w, ref, 4000);
  EXPECT_EQ(w.NextDeadline(), huge);
  // Advancing all the way re-places the overflow entries and fires them in
  // order.
  DrainAndCompare(w, ref, huge + 100000);
  EXPECT_TRUE(w.empty());
}

// Erases the reference entry for `id` (linear: the references stay small).
void EraseRef(RefModel& ref, uint64_t id) {
  for (auto it = ref.begin(); it != ref.end(); ++it) {
    if (it->second == id) {
      ref.erase(it);
      return;
    }
  }
}

// Random arm / cancel / cancel-the-minimum / advance steps against the
// reference, checking NextDeadline() after every step. `draw_when` picks an
// absolute deadline (> now) for each arm.
template <typename DrawWhen>
void RandomizedAgainstSortedList(uint64_t seed, DrawWhen draw_when) {
  std::mt19937_64 rng(seed);
  TimerWheel w;
  RefModel ref;
  std::map<uint64_t, TimerWheel::Entry*> live;  // id -> entry
  uint64_t seq = 0;
  uint64_t next_id = 0;
  Time now = 0;
  for (int step = 0; step < 4000; ++step) {
    const uint32_t op = static_cast<uint32_t>(rng() % 100);
    if (op < 55 || live.empty()) {
      const Time when = draw_when(rng, now);
      const uint64_t id = next_id++;
      live[id] = w.Arm(when, seq, Tag(id), 0);
      ref[{when, seq}] = id;
      ++seq;
    } else if (op < 75) {
      // Cancel a pseudo-random live entry, or (every other time) the
      // current minimum, which leaves its slot's cached minimum stale.
      uint64_t id = ref.begin()->second;
      if (op < 65) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng() % live.size()));
        id = it->first;
      }
      w.Cancel(live[id]);
      live.erase(id);
      EraseRef(ref, id);
    } else {
      // Advance: usually a small hop, sometimes a leap across levels.
      const Time hop = op < 95 ? rng() % (Time{1} << 14)
                               : rng() % (Time{1} << 34);
      now += hop;
      DrainAndCompare(w, ref, now);
      for (auto it = live.begin(); it != live.end();) {
        if (ref.end() == std::find_if(ref.begin(), ref.end(),
                                      [&](const auto& kv) {
                                        return kv.second == it->first;
                                      })) {
          it = live.erase(it);  // fired
        } else {
          ++it;
        }
      }
      ASSERT_EQ(live.size(), ref.size());
    }
    if (!ref.empty()) {
      ASSERT_EQ(w.NextDeadline(), ref.begin()->first.first) << "at step " << step;
    }
    ASSERT_EQ(w.size(), ref.size());
  }
  // Drain the tail.
  now += Time{1} << 61;
  DrainAndCompare(w, ref, now);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheelTest, RandomizedAgainstSortedList) {
  // Deltas span every level: sub-tick to beyond the wheel's coverage.
  const Time kDeltas[] = {1,          500,        Time{1} << 12, Time{1} << 18,
                          Time{1} << 25, Time{1} << 33, Time{1} << 45,
                          Time{1} << 59};
  RandomizedAgainstSortedList(0xf1u, [&](std::mt19937_64& rng, Time now) {
    const Time delta = kDeltas[rng() % (sizeof(kDeltas) / sizeof(kDeltas[0]))];
    return now + 1 + rng() % (delta + 1);
  });
}

TEST(TimerWheelTest, RandomizedClusteredAgainstSortedList) {
  // Deadlines cluster in narrow bands at fixed absolute times, one band per
  // level and one past the wheel's coverage, so higher-level slots and the
  // overflow list hold dozens of entries each. Deltas spread over 2^0..2^59
  // (the test above) rarely put more than a few entries in one such slot.
  const Time kBands[] = {Time{1} << 16, Time{1} << 22, Time{1} << 28,
                         Time{1} << 34, Time{1} << 40, Time{1} << 59};
  RandomizedAgainstSortedList(0xc1u, [&](std::mt19937_64& rng, Time now) {
    const Time band = kBands[rng() % (sizeof(kBands) / sizeof(kBands[0]))];
    // A band is 64 level-0 ticks wide; once the cursor passes it, arm near
    // the cursor instead.
    const Time when = band + rng() % (Time{64} << 10);
    return when > now ? when : now + 1 + rng() % (Time{1} << 16);
  });
}

// Where a cluster of deadlines lands with the cursor at tick 0. A level-L
// slot spans 2^(10 + 6L) ns and the whole wheel 2^58 ns.
struct Cluster {
  const char* name;
  Time base;  // first ns of the cluster's slot
  Time span;  // width of the slot
};

const Cluster kClusters[] = {
    {"level1", Time{64} << 10, Time{64} << 10},           // level 1, slot 1
    {"level2", Time{4096} << 10, Time{4096} << 10},       // level 2, slot 1
    {"overflow", Time{1} << 59, Time{1} << 40},           // overflow list
};

// Arms `n` entries at random times inside one cluster's slot.
void ArmCluster(TimerWheel& w, RefModel& ref,
                std::map<uint64_t, TimerWheel::Entry*>& live,
                const Cluster& c, uint64_t n, std::mt19937_64& rng,
                uint64_t& seq) {
  for (uint64_t i = 0; i < n; ++i) {
    const Time when = c.base + rng() % c.span;
    const uint64_t id = seq;
    live[id] = w.Arm(when, seq, Tag(id), 0);
    ref[{when, seq}] = id;
    ++seq;
  }
}

TEST(TimerWheelTest, CancelMinimumRepeatedlyInOneSlot) {
  for (const Cluster& c : kClusters) {
    for (const bool ascending : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << c.name << (ascending ? " ascending" : " random"));
      std::mt19937_64 rng(0x5eedu);
      TimerWheel w;
      RefModel ref;
      std::map<uint64_t, TimerWheel::Entry*> live;
      uint64_t seq = 0;
      ArmCluster(w, ref, live, c, 48, rng, seq);
      ASSERT_EQ(w.NextDeadline(), ref.begin()->first.first);
      while (ref.size() > 1) {
        // Ascending: always the current minimum. Random: any entry, so a
        // stale minimum may survive several cancels before it is needed.
        uint64_t id = ref.begin()->second;
        if (!ascending) {
          auto it = live.begin();
          std::advance(it, static_cast<long>(rng() % live.size()));
          id = it->first;
        }
        w.Cancel(live[id]);
        live.erase(id);
        EraseRef(ref, id);
        ASSERT_EQ(w.NextDeadline(), ref.begin()->first.first);
        // Now and then push a fresh entry into the same (possibly stale)
        // slot: the pushed `when` must not mask the rescan.
        if (rng() % 4 == 0) {
          ArmCluster(w, ref, live, c, 1, rng, seq);
          ASSERT_EQ(w.NextDeadline(), ref.begin()->first.first);
        }
      }
      DrainAndCompare(w, ref, c.base + c.span);
      EXPECT_TRUE(w.empty());
    }
  }
}

TEST(TimerWheelTest, CascadeOutOfStaleSlot) {
  for (const Cluster& c : kClusters) {
    for (const bool rescan_first : {true, false}) {
      SCOPED_TRACE(testing::Message() << c.name
                                      << " rescan_first=" << rescan_first);
      std::mt19937_64 rng(0xca5cu);
      TimerWheel w;
      RefModel ref;
      std::map<uint64_t, TimerWheel::Entry*> live;
      uint64_t seq = 0;
      // A near entry keeps the cached global minimum valid across the
      // cluster's cancels, so the stale slot is met only on a recompute.
      live[seq] = w.Arm(500, seq, Tag(seq), 0);
      ref[{500, seq}] = seq;
      ++seq;
      ArmCluster(w, ref, live, c, 40, rng, seq);
      for (int i = 0; i < 5; ++i) {
        auto it = std::next(ref.begin());  // the cluster's minimum
        const uint64_t id = it->second;
        w.Cancel(live[id]);
        live.erase(id);
        ref.erase(it);
        ASSERT_EQ(w.NextDeadline(), 500u);
      }
      // Either fire the near entry first, so the recompute rescans the
      // stale slot, or advance straight into the cluster's slot, so the
      // slot cascades down while still stale. Either way its entries fire
      // in order.
      if (rescan_first) DrainAndCompare(w, ref, 1000);
      DrainAndCompare(w, ref, c.base);
      DrainAndCompare(w, ref, c.base + c.span / 2);
      DrainAndCompare(w, ref, c.base + c.span);
      EXPECT_TRUE(w.empty());
    }
  }
}

}  // namespace
}  // namespace fluke
