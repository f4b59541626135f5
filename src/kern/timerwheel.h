// Hierarchical timing wheel for thread timeouts (clock_sleep and friends).
//
// The shared EventQueue is a binary heap: fine for the handful of device
// events (timer ticks, disk completions), but O(log n) per operation and
// with no way to delete a cancelled entry -- cancelled timeouts used to
// linger and fire as no-ops. Under a 100k-thread timeout storm the heap and
// its dead entries become the hot structure. The wheel makes arm, cancel
// and fire O(1) amortized, and cancel frees the entry immediately.
//
// Shape: kLevels levels of kSlots slots; a level-0 slot spans 2^kGranBits
// ns (~1 us) and each higher level spans kSlots times the one below. An
// entry is placed by its delta from the wheel cursor; as the cursor crosses
// a higher-level slot boundary that slot's entries cascade down. Entries
// whose delta exceeds the whole wheel sit on an overflow list, kept as the
// single slot of one extra row so it shares the slots' bookkeeping.
//
// Determinism contract. The kernel fires timers merged with the EventQueue
// in global (deadline, seq) order, with seqs minted from the EventQueue's
// own counter at arm time -- so moving a timeout from the queue to the
// wheel cannot reorder it against device events with equal deadlines.
// Within the wheel, entries collected from due slots drain through a
// (when, seq)-keyed min-heap, and (when, seq) pairs are unique, so the fire
// order is a total order independent of slot geometry. NextDeadline() is
// exact (never rounded to slot granularity): the idle dispatch loop
// advances virtual time to precisely the value it returns.
//
// NextDeadline cost. Slot order is time order within a level, so the
// earliest deadline is the minimum over the due-soon heap top, the first
// occupied slot of each level and the overflow list. Each slot keeps the
// minimum `when` of its chain, maintained on push, so a recompute is
// O(kLevels) bitmap and array reads with no chain walk. Cancel stays O(1):
// cancelling a chain's minimum only marks that slot stale, and the next
// NextDeadline() that needs it rescans that one chain once. A burst of
// cancels costs one rescan, not one per cancel. Between recomputes the
// answer is cached.
//
// Storage. The slot heads, minima and stale bitmaps live in one block
// allocated on the first Arm(). The wheel is a by-value Kernel member, and
// most kernels (the Table 5 apps among them) never arm a timeout, so they
// never pay for constructing or touching the block.

#ifndef SRC_KERN_TIMERWHEEL_H_
#define SRC_KERN_TIMERWHEEL_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "src/hal/clock.h"

namespace fluke {

struct Thread;

class TimerWheel {
 public:
  struct Entry {
    Time when = 0;      // exact deadline, ns
    uint64_t seq = 0;   // EventQueue-minted tiebreaker
    Thread* thread = nullptr;
    uint64_t token = 0;  // sleep_token snapshot at arm time
    Entry* prev = nullptr;
    Entry* next = nullptr;
    int8_t level = kFree;  // slot row, or one of the sentinels below
    uint8_t slot = 0;

    static constexpr int8_t kFree = -1;      // on the free list / popped
    static constexpr int8_t kDueSoon = -2;   // in the due-soon heap
    static constexpr int8_t kCancelled = -4; // lazily dead inside the heap
  };

  TimerWheel() = default;
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Arms a timeout at absolute time `when`. O(1). The returned entry stays
  // owned by the wheel; it is freed by Cancel() or by PopDue()+Free().
  Entry* Arm(Time when, uint64_t seq, Thread* t, uint64_t token);

  // Cancels an armed entry. Entries still in a wheel slot (the common case)
  // are unlinked and returned to the free list immediately; only the few
  // already collected into the due-soon heap are marked and reaped lazily.
  void Cancel(Entry* e);

  // Live (non-cancelled) entries.
  bool empty() const { return live_ == 0; }
  uint64_t size() const { return live_; }

  // Exact earliest pending deadline; only valid when !empty(). O(kLevels)
  // when the cached answer was invalidated (see "NextDeadline cost").
  Time NextDeadline();

  // The due (when <= now) entry with the smallest (when, seq), or null.
  // Peek leaves it in place; Pop removes it (caller must Free() it after
  // reading its fields).
  //
  // An idle wheel is the dispatch loop's steady state (RunDueTimers peeks
  // once per iteration even when no sleep was ever armed), so the empty
  // case must cost a couple of loads -- not a slot walk. live_ == 0 with an
  // empty due-soon heap means every slot and the overflow list are empty
  // too: cancelled entries are unlinked from slots eagerly and linger only
  // inside due_soon_.
  Entry* PeekDue(Time now) {
    if (live_ == 0 && due_soon_.empty()) {
      const uint64_t target = (now >> kGranBits) + 1;
      if (target > cur_tick_) {
        cur_tick_ = target;
      }
      return nullptr;
    }
    return PeekDueSlow(now);
  }
  Entry* PopDue(Time now);
  void Free(Entry* e);

  // Entries moved down a level (or re-placed from overflow) by cursor
  // advancement; the "timer_cascades" stat. The kernel binds this to its
  // KernelStats counter so --stats sees it without a sync step.
  void BindCascadeCounter(uint64_t* counter) {
    *counter = *cascades_;
    cascades_ = counter;
  }
  uint64_t cascades() const { return *cascades_; }

 private:
  static constexpr int kGranBits = 10;  // level-0 slot = 1024 ns
  static constexpr int kSlotBits = 6;   // 64 slots per level
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr uint64_t kSlotMask = kSlots - 1;
  static constexpr int kLevels = 8;     // covers 2^58 ns (~9 years)
  // Entries beyond the wheel's coverage: slot 0 of this extra row,
  // re-placed whenever the cursor wraps the top level.
  static constexpr int kOverflowRow = kLevels;

  struct ByWhenSeq {
    bool operator()(const Entry* a, const Entry* b) const {
      return a->when != b->when ? a->when > b->when : a->seq > b->seq;
    }
  };

  // Per-slot state, rows 0..kLevels-1 plus the overflow row. min[l][s] is
  // exact for an occupied slot unless its bit in stale[l] is set; a stale
  // minimum is a lower bound (a cancelled entry's `when`). Both are reset
  // by the first push into an empty slot, so emptying a slot (flush,
  // cascade, cancel) need not touch them.
  struct Slots {
    Entry* head[kLevels + 1][kSlots] = {};
    Time min[kLevels + 1][kSlots];
    uint64_t stale[kLevels + 1] = {};
  };

  Entry* AllocEntry();
  // Links `e` into the slot for its tick (level chosen by delta from the
  // cursor), the overflow row, or the due-soon heap when already due.
  void Place(Entry* e);
  void PushSlot(Entry* e, int level, int slot);
  void UnlinkSlot(Entry* e);
  void PushDueSoon(Entry* e);
  // Moves every entry with tick < target_tick into the due-soon heap,
  // cascading higher levels as their slot boundaries are crossed.
  void Collect(Time now);
  // Drops cancelled entries off the top of the due-soon heap.
  void SkimDueSoon();
  // PeekDue() with a non-empty wheel: collect, skim, inspect the heap top.
  Entry* PeekDueSlow(Time now);
  // Flushes one slot's chain into the due-soon heap (level 0) or re-places
  // its entries (higher levels and the overflow row).
  void FlushLevel0Slot(int slot);
  void CascadeSlot(int level, int slot);
  // Cascades every level whose window boundary the cursor sits on (and
  // re-places overflow entries on a top-level wrap). Must run whenever the
  // cursor lands on a tick -- including Collect()'s final tick.
  void ProcessBoundaries();
  // Next tick at which the wheel has any work, or `bound` if none before.
  uint64_t NextBusyTick(uint64_t bound) const;
  // Absolute level-`level` window index (tick >> kSlotBits * level) of the
  // level's first occupied slot in time order; occupied_[level] != 0.
  uint64_t FirstBusyWindow(int level) const;
  // Exact minimum `when` of an occupied slot's chain, rescanning the chain
  // once if a cancel left its cached minimum stale.
  Time SlotMin(int level, int slot);

  std::unique_ptr<Slots> slots_;         // allocated by the first Arm()
  uint64_t occupied_[kLevels + 1] = {};  // per-row non-empty-slot bitmaps
  std::priority_queue<Entry*, std::vector<Entry*>, ByWhenSeq> due_soon_;

  uint64_t cur_tick_ = 0;  // ticks < cur_tick_ fully collected
  uint64_t live_ = 0;      // live entries (slots + overflow + due-soon)
  uint64_t own_cascades_ = 0;
  uint64_t* cascades_ = &own_cascades_;

  bool cached_min_valid_ = false;
  Time cached_min_ = 0;

  // Entry storage: chunked slab with a LIFO free list; chunks are never
  // returned until destruction, so entry pointers are stable.
  static constexpr size_t kChunkEntries = 256;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  Entry* free_list_ = nullptr;
};

}  // namespace fluke

#endif  // SRC_KERN_TIMERWHEEL_H_
