// Persistent host worker pool for the parallel MP backend.
//
// The epoch dispatcher (src/kern/dispatch.cc) hands the pool one round of
// independent phase-A interpreter bursts; RunBatch runs fn(ctx, i) for every
// index across the workers plus the calling thread and returns when all are
// done. Any thread may run any index: each claims the next unstarted one, so
// a round finishes even when the host has not scheduled a worker, and the
// caller never waits on an index nobody has begun.
//
// The dispatcher sends a round here only when at least two of its bursts
// are predicted to be long (kMpPoolMinBurstCycles); such rounds come back
// to back, a serial kernel phase apart, so the hand-off is a spinning
// generation-counter barrier rather than a lock. One atomic word holds the
// round's generation, its index count and the next unclaimed index. The
// caller publishes a round with a release store of that word; a worker
// spins a bounded number of iterations for a new generation and then parks
// on std::atomic::wait, and claims indices with an acquire CAS that fails
// once the generation has moved on. Completion is an atomic countdown the
// caller spins (then parks) on. Those release/acquire pairs are the
// happens-before edges between the serial kernel phases and the parallel
// bursts, for TSan and for the memory model. A parked side is woken only if
// it announced itself; the announcement and the word it waits on are both
// seq_cst, so either the waker sees the announcement or the sleeper sees the
// new value.
//
// The pool is created lazily on the first parallel round and joined by its
// destructor.

#ifndef SRC_KERN_MPPOOL_H_
#define SRC_KERN_MPPOOL_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace fluke {

class MpPool {
 public:
  using Fn = void (*)(void* ctx, int index);

  explicit MpPool(int workers) {
    try {
      for (int i = 0; i < workers; ++i) {
        threads_.emplace_back([this] { WorkerLoop(); });
      }
    } catch (...) {
      StopAndJoin();  // the workers already started
      throw;
    }
  }

  ~MpPool() { StopAndJoin(); }

  MpPool(const MpPool&) = delete;
  MpPool& operator=(const MpPool&) = delete;

  // Runs fn(ctx, i) for i in [0, n), n < 2^16; the calling thread
  // participates. Returns the number of indices still running on workers
  // when the caller found none left to claim (the caller's barrier waits).
  int RunBatch(int n, Fn fn, void* ctx) {
    if (n <= 0) {
      return 0;
    }
    fn_ = fn;
    ctx_ = ctx;
    pending_.store(n, std::memory_order_relaxed);
    Publish(Word{++gen_, static_cast<uint32_t>(n), 0}.Pack());
    Drain(word_.load(std::memory_order_acquire));
    int left = pending_.load(std::memory_order_acquire);
    const int waited_for = left;
    for (int spin = 0; left != 0 && spin < kSpinIters; ++spin) {
      CpuRelax();
      left = pending_.load(std::memory_order_acquire);
    }
    if (left != 0) {
      caller_parked_.store(true);
      while ((left = pending_.load()) != 0) {
        pending_.wait(left);
      }
      caller_parked_.store(false, std::memory_order_relaxed);
    }
    return waited_for;
  }

 private:
  // Spin budget before parking: ~100 us on a 4-vCPU Xeon VM (a pause there
  // is ~25 ns), which covers the serial kernel phase between back-to-back
  // rounds, while an idle pool stops burning host CPU soon after.
  static constexpr int kSpinIters = 1 << 12;

  // The round word: generation (high 32 bits), index count, next index.
  struct Word {
    uint32_t gen;
    uint32_t n;
    uint32_t next;
    static Word Unpack(uint64_t w) {
      return {static_cast<uint32_t>(w >> 32), static_cast<uint32_t>(w >> 16) & 0xffff,
              static_cast<uint32_t>(w) & 0xffff};
    }
    uint64_t Pack() const { return uint64_t{gen} << 32 | uint64_t{n} << 16 | next; }
  };

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  // Release-publishes a new generation (a round, or with n == 0 the stop),
  // then wakes the parked workers. seq_cst: the store is ordered before the
  // parked check.
  void Publish(uint64_t w) {
    word_.store(w);
    if (parked_.load() != 0) {
      word_.notify_all();
    }
  }

  // Claims and runs indices of the round `w` belongs to until none remain
  // or the round is over.
  void Drain(uint64_t w) {
    const uint32_t gen = Word::Unpack(w).gen;
    for (;;) {
      const Word cur = Word::Unpack(w);
      if (cur.gen != gen || cur.next >= cur.n) {
        return;
      }
      // w + 1 bumps the next-index field, which stays below 2^16.
      if (!word_.compare_exchange_weak(w, w + 1, std::memory_order_acquire)) {
        continue;  // w reloaded
      }
      fn_(ctx_, static_cast<int>(cur.next));
      if (pending_.fetch_sub(1) == 1 && caller_parked_.load()) {
        pending_.notify_one();
      }
      ++w;
    }
  }

  void StopAndJoin() {
    Publish(Word{++gen_, 0, 0}.Pack());
    for (auto& t : threads_) {
      t.join();
    }
  }

  void WorkerLoop() {
    uint32_t seen = 0;  // the last generation this worker drained
    for (;;) {
      uint64_t w = word_.load(std::memory_order_acquire);
      for (int spin = 0; Word::Unpack(w).gen == seen && spin < kSpinIters; ++spin) {
        CpuRelax();
        w = word_.load(std::memory_order_acquire);
      }
      if (Word::Unpack(w).gen == seen) {
        parked_.fetch_add(1);
        while (Word::Unpack(w = word_.load()).gen == seen) {
          word_.wait(w);
        }
        parked_.fetch_sub(1, std::memory_order_relaxed);
      }
      seen = Word::Unpack(w).gen;
      if (Word::Unpack(w).n == 0) {
        return;  // stop
      }
      Drain(w);
    }
  }

  // The current round; written by the caller before it publishes the
  // round's generation, read by a worker only after a claim in that round.
  Fn fn_ = nullptr;
  void* ctx_ = nullptr;
  uint32_t gen_ = 0;  // caller-private: the last generation published
  alignas(64) std::atomic<uint64_t> word_{0};
  std::atomic<int> parked_{0};  // workers parked on word_
  alignas(64) std::atomic<int> pending_{0};  // indices of this round not yet done
  std::atomic<bool> caller_parked_{false};
  std::vector<std::thread> threads_;
};

}  // namespace fluke

#endif  // SRC_KERN_MPPOOL_H_
