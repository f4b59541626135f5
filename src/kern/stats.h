// Kernel statistics counters.
//
// These counters feed every reproduced table: context switches and syscall
// counts sanity-check Table 5 runs; rollback/remedy accounting produces
// Table 3; latency histograms produce Table 6; kernel-stack byte tracking
// produces Table 7.

#ifndef SRC_KERN_STATS_H_
#define SRC_KERN_STATS_H_

#include <bit>
#include <cstdint>

#include "src/api/abi.h"
#include "src/hal/clock.h"

namespace fluke {

// Fixed-footprint log2 latency histogram of virtual-time durations (ns).
// Bucket b holds values v with bit_width(v) == b, i.e. [2^(b-1), 2^b);
// bucket 0 holds v == 0. Exact sum/count/max ride along so means and
// maxima are exact; percentiles are bucket-resolution (within 2x), which
// is all Table 6 needs. Replaces the old unbounded probe_latencies vector:
// memory is constant no matter how long the run.
struct LogHistogram {
  static constexpr int kBuckets = 32;

  uint64_t buckets[kBuckets] = {};
  uint64_t count = 0;
  Time sum = 0;
  Time max = 0;

  static int BucketOf(Time v) {
    const int b = std::bit_width(static_cast<uint64_t>(v));
    return b < kBuckets ? b : kBuckets - 1;
  }
  // Inclusive upper bound of bucket b (saturating for the overflow bucket).
  static Time BucketUpper(int b) {
    if (b <= 0) {
      return 0;
    }
    if (b >= kBuckets - 1) {
      return ~static_cast<Time>(0);
    }
    return (static_cast<Time>(1) << b) - 1;
  }

  void Add(Time v) {
    ++buckets[BucketOf(v)];
    ++count;
    sum += v;
    if (v > max) {
      max = v;
    }
  }

  // Folds another histogram in (the per-CPU shard fold at the MP epoch
  // barrier). Bucket counts, count and sum are plain sums and max is an
  // associative/commutative max, so a fold in CPU order is independent of
  // how the host scheduled the shard owners.
  void Merge(const LogHistogram& o) {
    for (int b = 0; b < kBuckets; ++b) {
      buckets[b] += o.buckets[b];
    }
    count += o.count;
    sum += o.sum;
    if (o.max > max) {
      max = o.max;
    }
  }

  bool empty() const { return count == 0; }
  Time Avg() const { return count == 0 ? 0 : sum / count; }
  Time Max() const { return max; }

  // Value at quantile p in [0, 1], resolved to its bucket's upper bound
  // (clamped to the exact max, so Percentile(1.0) == Max()).
  Time Percentile(double p) const {
    if (count == 0) {
      return 0;
    }
    uint64_t target = static_cast<uint64_t>(p * static_cast<double>(count) + 0.5);
    if (target < 1) {
      target = 1;
    }
    if (target > count) {
      target = count;
    }
    uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      cum += buckets[b];
      if (cum >= target) {
        const Time upper = BucketUpper(b);
        return upper < max ? upper : max;
      }
    }
    return max;
  }
};

// Table 3 accounting: IPC faults classified by which side of the transfer
// faulted (client vs server space) and by kind (soft vs hard), with the
// virtual time spent remedying the fault and the virtual time of work
// rolled back (thrown away and redone).
struct FaultClassStats {
  uint64_t count = 0;
  Time remedy_ns = 0;
  Time rollback_ns = 0;
};

enum FaultSide : int { kFaultSideClient = 0, kFaultSideServer = 1 };
enum FaultKind : int { kFaultKindSoft = 0, kFaultKindHard = 1 };

struct KernelStats {
  // Dispatch.
  uint64_t context_switches = 0;
  uint64_t syscalls = 0;
  uint64_t syscall_restarts = 0;  // re-entries of an interrupted/blocked op
  uint64_t kernel_preemptions = 0;

  // Faults.
  uint64_t soft_faults = 0;
  uint64_t hard_faults = 0;
  uint64_t user_faults = 0;     // faults on user instructions
  uint64_t region_pages_scanned = 0;  // region_search loop iterations
  uint64_t syscall_faults = 0;  // faults inside kernel copies (IPC etc.)

  // Software-TLB accounting (host-side translation cache; see
  // src/kern/tlb.h). These are the only counters allowed to differ between
  // TLB-enabled and TLB-disabled runs of the same workload -- everything
  // else in this struct, and all virtual-time results, must be identical.
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t tlb_flushes = 0;  // entries discarded by unmap/remap/teardown

  // Threaded-interpreter accounting (src/uvm/interp.cc). Like the tlb_*
  // counters these are host-side observability only, and are the only
  // counters allowed to differ between threaded-dispatch-enabled and
  // -disabled runs of the same workload.
  uint64_t interp_block_charges = 0;  // whole-block batched cycle charges
  uint64_t interp_predecodes = 0;     // programs decoded into side-tables

  // JIT-engine accounting (src/uvm/jit.cc). Host-side observability only,
  // same contract as interp_*: the only counters (with those and tlb_*)
  // allowed to differ between engine variants of the same workload. A
  // deopt is a compiled burst that bailed to the switch core (budget edge,
  // fault, instrumentation) -- it still produces bit-identical results.
  uint64_t jit_compiles = 0;       // programs compiled into the arena
  uint64_t jit_block_entries = 0;  // basic blocks entered in compiled code
  uint64_t jit_deopts = 0;         // compiled bursts resumed by the switch core
  uint64_t jit_bytes = 0;          // host code bytes emitted

  // Retired user instructions. Unlike the interp_* counters this is a
  // semantic count -- both engines retire the same instructions in the same
  // order -- so it must be bit-identical between threaded and switch runs
  // (and TLB on/off runs) of the same workload; the chaos tests compare it.
  uint64_t user_instructions = 0;

  // Fault-injection accounting (src/kern/faultinject.h); all zero unless a
  // FaultPlan is armed. Surfaced through DumpKernel's CHAOS line.
  uint64_t faults_injected = 0;     // resource faults the injector forced
  uint64_t extractions_forced = 0;  // forced extract-destroy-recreate events
  uint64_t restart_audits = 0;      // recreated threads that ran to completion
  uint64_t oom_backoffs = 0;        // bounded retries after frame exhaustion
  uint64_t panics = 0;              // recoverable panics the hook intercepted

  // IPC copy-on-write page lending (non-preemptive configs only): full pages
  // transferred by remapping the sender's frame instead of copying 4 KiB.
  // Purely a host-side optimization -- the virtual-time charges are
  // identical to the copy path -- but counted for observability. Lending
  // does not consult the TLB, so this counter is the same in TLB-enabled
  // and TLB-disabled runs.
  uint64_t ipc_page_lends = 0;

  // Fast-path dispatch accounting (src/kern/dispatch.cc). Like the tlb_*
  // and interp_* counters these are host-side observability only, and are
  // the only counters (with those) allowed to differ between fast_path
  // on/off runs of the same workload -- every semantic counter above, and
  // all virtual-time results, must be bit-identical (tested by
  // tests/fastpath_equivalence_test.cc).
  uint64_t syscall_fast_entries = 0;  // syscalls completed by a fast handler
  uint64_t ipc_fast_handoffs = 0;     // direct-handoff sends to a blocked receiver

  // Timer and scheduler data-structure accounting (the 100k-thread scaling
  // path). Semantic counters: clock_sleep has no fast path and thread
  // creation is host-driven, so these are identical across engines, TLB,
  // and fast-path variants of the same workload.
  uint64_t timer_arms = 0;      // timeouts armed on the timing wheel
  uint64_t timer_cancels = 0;   // timeouts cancelled (entry freed eagerly)
  uint64_t timer_cascades = 0;  // wheel entries re-placed by cursor advance
  uint64_t slab_thread_allocs = 0;  // TCBs carved from the thread slab
  uint64_t sched_bitmap_scans = 0;  // O(1) ready-bitmap picks (PickNext calls)

  // Multi-CPU epoch dispatcher (src/kern/dispatch.cc). Semantic counters:
  // the epoch schedule is deterministic, so these are identical across both
  // interpreter engines and both MP backends (serial and parallel) of the
  // same workload -- tests/mp_test.cc compares them. All zero when
  // num_cpus == 1.
  uint64_t mp_epochs = 0;          // epochs opened (barriers crossed)
  uint64_t cross_cpu_ipc = 0;      // wakeups targeting another CPU's queue
  uint64_t migrations = 0;         // threads re-homed by affinity-domain merges
  uint64_t shootdowns_remote = 0;  // TLB shootdowns against a remote CPU's space
  // Host-side observability only (like tlb_*), and the only MP counters
  // allowed to differ between backends. mp_barrier_waits counts pool
  // rounds whose workers were still running when the caller finished its
  // own burst. Every phase-A round is either a pool round or an inline
  // one: the serial backend runs all rounds inline, the parallel backend
  // only those with fewer than two long bursts predicted (dispatch.cc,
  // kMpPoolMinBurstCycles). Their sum equals the serial backend's count.
  uint64_t mp_barrier_waits = 0;
  uint64_t mp_pool_rounds = 0;    // rounds handed to MpPool
  uint64_t mp_inline_rounds = 0;  // rounds run in CPU order on the caller

  // Incremental concurrent checkpointing (src/kern/ckpt.h, workloads/
  // checkpoint.*). Semantic counters: capture runs host-side between
  // dispatches at deterministic virtual times, so these are identical
  // across both interpreter engines and fast-path on/off runs of the same
  // checkpointed workload (tests/ckpt_concurrent_test.cc compares them).
  uint64_t ckpt_generations = 0;  // completed checkpoint generations
  uint64_t ckpt_pages_full = 0;   // pages captured into full (base) images
  uint64_t ckpt_pages_delta = 0;  // pages captured into delta images
  uint64_t ckpt_cow_saves = 0;    // still-marked pages saved at a write hook
  uint64_t ckpt_mark_pages = 0;   // pages flipped to ckpt-CoW by mark phases
  // Modeled serial-pause time per capture begin: the stop phase a real
  // kernel would take. Stop-the-world captures log begin + copy-all-pages;
  // concurrent captures log begin + mark-all-pages (mark << copy, which is
  // the whole point -- the histogram proves the pause shrinks).
  LogHistogram ckpt_pause_hist;

  // Rollback accounting (Table 3): virtual time of work discarded and
  // redone because an operation rolled back to its last commit point, and
  // virtual time spent remedying faults.
  Time rollback_ns = 0;
  Time remedy_soft_ns = 0;
  Time remedy_hard_ns = 0;
  // Per-(side, kind) IPC fault classes, indexed [FaultSide][FaultKind].
  FaultClassStats ipc_faults[2][2];

  // Kernel stack (coroutine frame) accounting (Table 7).
  uint64_t frames_allocated = 0;
  uint64_t frame_bytes_allocated = 0;
  uint64_t frame_bytes_live = 0;
  uint64_t frame_bytes_live_peak = 0;
  // Peak bytes retained by threads *while blocked* -- the process model's
  // per-thread kernel-stack cost. Always zero in the interrupt model.
  uint64_t blocked_frame_bytes_peak = 0;

  // Preemption-latency probe (Table 6). Semantic: recorded whenever the
  // probe thread runs, tracing on or off, so it participates in the
  // equivalence sweeps like probe_runs/probe_misses always have.
  LogHistogram probe_hist;
  uint64_t probe_runs = 0;
  uint64_t probe_misses = 0;

  // Trace-derived latency histograms: per-syscall-number virtual-time
  // (syscall entry to completion) and block duration (block to wake).
  // These mutate ONLY while the trace buffer is enabled. The durations are
  // virtual-time, so they are bit-identical across both interpreter
  // engines and fast-path on/off (fast handlers close the same spans at
  // the same virtual instants), and exactly zero in a disarmed run
  // (tests/trace_test.cc asserts both).
  LogHistogram sys_time_hist[kSysCount];
  LogHistogram block_hist;

  // Observability-pipeline accounting: binary trace streaming (--trace-bin),
  // flight-recorder postmortem bundles and metrics sampling. Host-side
  // only -- none of these charge virtual time -- and surfaced through the
  // schema-2 stats JSON so runs can audit their own instrumentation cost.
  uint64_t trace_bin_chunks = 0;  // FBT chunks sealed by the stream writer
  uint64_t trace_bin_bytes = 0;   // FBT bytes written (header + chunks)
  uint64_t flight_dumps = 0;      // postmortem bundles written
  uint64_t metrics_samples = 0;   // time-series rows appended

  void RecordProbe(Time when, Time latency) {
    (void)when;
    probe_hist.Add(latency);
    ++probe_runs;
  }

  Time ProbeAvg() const { return probe_hist.Avg(); }
  Time ProbeMax() const { return probe_hist.Max(); }
  Time ProbeP50() const { return probe_hist.Percentile(0.50); }
  Time ProbeP95() const { return probe_hist.Percentile(0.95); }
};

}  // namespace fluke

#endif  // SRC_KERN_STATS_H_
