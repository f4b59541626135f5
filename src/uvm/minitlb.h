// Interpreter translation cache, shared by all three execution engines.
//
// 16 direct-mapped entries per access direction. An entry is (page, host
// base pointer) obtained from MemoryBus::TranslateSpan; hits cost an index,
// a compare and a memcpy -- no virtual call, no page-table walk.
//
// Lifetime. The kernel keeps one MiniTlb per address space (Space::
// BeginUserBurst) and hands it to every RunUser call of that space's
// threads, so entries survive kernel crossings. It is valid across bursts
// because every page-table change between them bumps Space::pt_gen --
// MapPage, UnmapPage, CkptMark, SetDirtyTracking and SharePageFrom all do --
// and the space resets the cache at burst entry whenever the generation has
// moved since the last burst ended. Inside a burst nothing but the cache's
// own write fills can change a translation: a write fill may break
// copy-on-write (IPC page lending), which FillWrite and Space::CowBreak
// handle by dropping the page's entries. RunUser called without a cache
// (tests, other MemoryBus implementations) builds a cold one on its stack.
//
// Shared by all engines (the portable switch loop, the threaded dispatcher
// and the JIT's inlined probes and helpers) so their bus access patterns --
// and therefore the kernel's tlb_* stats -- are identical instruction for
// instruction.

#ifndef SRC_UVM_MINITLB_H_
#define SRC_UVM_MINITLB_H_

#include <cstdint>

#include "src/uvm/interp.h"

// Hot-path annotations for the interpreter; no-ops off GCC/Clang.
#if defined(__GNUC__) || defined(__clang__)
#define FLUKE_LIKELY(x) __builtin_expect(!!(x), 1)
#define FLUKE_NOINLINE __attribute__((noinline))
#else
#define FLUKE_LIKELY(x) (x)
#define FLUKE_NOINLINE
#endif

namespace fluke {
namespace interp_internal {

inline constexpr uint32_t kMiniTlbEntries = 16;
inline constexpr uint32_t kMiniTlbMask = kMiniTlbEntries - 1;
inline constexpr uint32_t kNoPage = 0xFFFFFFFFu;  // vpns are < 2^20

struct MiniTlb {
  explicit MiniTlb(MemoryBus* bus) : bus_(bus) { Reset(); }

  // disable default copy to keep the cached pointers from leaking across
  // MiniTlb instances by accident; one instance per space (or per call).
  MiniTlb(const MiniTlb&) = delete;
  MiniTlb& operator=(const MiniTlb&) = delete;

  // Forgets every translation (both directions, both last-page slots).
  void Reset() {
    r0page_ = w0page_ = kNoPage;
    for (uint32_t i = 0; i < kMiniTlbEntries; ++i) {
      rtag_[i] = wtag_[i] = kNoPage;
    }
  }

  // Forgets `page` in both directions (array entry AND last-page slot, which
  // keeps the slot invariant below).
  void DropPage(uint32_t page) {
    const uint32_t idx = page & kMiniTlbMask;
    if (rtag_[idx] == page) {
      rtag_[idx] = kNoPage;
    }
    if (wtag_[idx] == page) {
      wtag_[idx] = kNoPage;
    }
    if (r0page_ == page) {
      r0page_ = kNoPage;
    }
    if (w0page_ == page) {
      w0page_ = kNoPage;
    }
  }

  // Null means the access must take the faulting word/byte path on the bus.
  // A last-page slot (r0/w0) fronts the array: streaming loops touch the
  // same page thousands of times, and the slot turns those probes into one
  // compare. It only ever mirrors a live array entry, so it cannot change
  // which accesses reach the bus -- both engines see identical fill
  // patterns with or without the hit.
  uint8_t* ReadBase(uint32_t page) {
    if (FLUKE_LIKELY(page == r0page_)) {
      return r0base_;
    }
    const uint32_t idx = page & kMiniTlbMask;
    if (rtag_[idx] == page) {
      r0page_ = page;
      r0base_ = rbase_[idx];
      return r0base_;
    }
    return FillRead(page);
  }
  uint8_t* WriteBase(uint32_t page) {
    if (FLUKE_LIKELY(page == w0page_)) {
      return w0base_;
    }
    const uint32_t idx = page & kMiniTlbMask;
    if (wtag_[idx] == page) {
      w0page_ = page;
      w0base_ = wbase_[idx];
      return w0base_;
    }
    return FillWrite(page);
  }

  // The fills are kept out of line so the hit path -- an index, a compare
  // and a load -- doesn't drag TranslateSpan's register pressure into every
  // interpreter memory handler.
  FLUKE_NOINLINE uint8_t* FillRead(uint32_t page) {
    const Span s = bus_->TranslateSpan(page << kPageShift, kPageSize, kProtRead);
    if (s.len != kPageSize) {
      return nullptr;
    }
    rtag_[page & kMiniTlbMask] = page;
    rbase_[page & kMiniTlbMask] = s.ptr;
    r0page_ = page;
    r0base_ = s.ptr;
    return s.ptr;
  }
  FLUKE_NOINLINE uint8_t* FillWrite(uint32_t page) {
    const Span s = bus_->TranslateSpan(page << kPageShift, kPageSize, kProtWrite);
    if (s.len != kPageSize) {
      return nullptr;
    }
    // A write translation can break copy-on-write (IPC page lending),
    // moving the page to a fresh frame mid-run -- the one exception to
    // "translations never change while user code executes". Drop any
    // cached read pointer for the page so loads refill and see the run's
    // own stores.
    DropPage(page);
    wtag_[page & kMiniTlbMask] = page;
    wbase_[page & kMiniTlbMask] = s.ptr;
    w0page_ = page;
    w0base_ = s.ptr;
    return s.ptr;
  }

  // Last-page slots. Invariant: when r0page_ != kNoPage, the array entry at
  // its index holds the same (page, base) pair -- fills set both together,
  // and the CoW drop above clears both together. Same for w0page_. That is
  // what makes the slot a pure fast path: any access pattern reaches the
  // bus on exactly the probes the array alone would have sent there.
  //
  // Members are public (standard layout) because the JIT templates inline
  // the last-page-slot probe by offsetof: a compiled loadw/storew compares
  // the page against r0page_/w0page_ and indexes off r0base_/w0base_
  // directly, falling back to a helper that calls ReadBase/WriteBase on the
  // same instance -- so the bus sees the exact fill pattern the other two
  // engines produce. Copying stays deleted.
  uint32_t r0page_ = kNoPage;
  uint32_t w0page_ = kNoPage;
  uint8_t* r0base_ = nullptr;
  uint8_t* w0base_ = nullptr;
  uint32_t rtag_[kMiniTlbEntries];
  uint8_t* rbase_[kMiniTlbEntries];
  uint32_t wtag_[kMiniTlbEntries];
  uint8_t* wbase_[kMiniTlbEntries];
  MemoryBus* bus_;
};

// The portable fetch/decode/switch engine (interp_switch.cc), kept in its
// own translation unit at the project's default optimization flags: it is
// the reference semantics, while interp.cc carries interpreter-specific
// codegen flags that would otherwise skew it. RunUser's kSwitch engine is
// this with acct_in == 0. It is resumable, which makes it the JIT's deopt
// target: it picks up mid-burst with an already-accumulated packed account
// (`acct_in`, predecode.h layout) and the caller's MiniTlb, so a burst that
// started in compiled code and fell back finishes with exactly the cycles,
// retired instructions, register state and bus access pattern the switch
// engine alone would have produced. The returned cycles and the
// instr_counter increment cover the WHOLE burst (acct_in included),
// matching what RunUser reports.
RunResult RunUserSwitchCore(const Program& program, UserRegisters* regs,
                            MemoryBus* bus, uint64_t budget_cycles,
                            MiniTlb& tlb, uint64_t acct_in,
                            uint64_t* instr_counter = nullptr);

}  // namespace interp_internal
}  // namespace fluke

#endif  // SRC_UVM_MINITLB_H_
