// Kernel configuration: execution model and preemption mode.
//
// The paper's Table 4 defines five configurations. Full preemption requires
// the ability to block (be descheduled) inside the kernel while retaining
// kernel-stack state, so it exists only in the process model; the same
// constraint is enforced here in KernelConfig::Validate().
//
// The paper selects the model at compile time; we select it at runtime so a
// single binary can run the controlled comparison. The property the paper
// actually demonstrates -- that the syscall handler source is shared between
// models, with only the entry/exit/context-switch layer differing -- is
// preserved: the model is consulted only in src/kern/dispatch.cc and
// src/kern/ktask.h.

#ifndef SRC_KERN_CONFIG_H_
#define SRC_KERN_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/uvm/engine.h"

namespace fluke {

// Deterministic fault-injection plan (src/kern/faultinject.h). All knobs
// key off virtual-time-deterministic opportunity counters, so the same plan
// replays the exact same fault schedule on every run, in either interpreter
// engine. The injector is constructed disarmed; hosts call
// Kernel::finj.Arm() once setup (which must never be failed) is complete.
struct FaultPlan {
  static constexpr uint64_t kNever = ~0ull;
  bool enabled = false;
  uint64_t seed = 1;
  // Clamp every user burst to one instruction so each instruction retires
  // at its own dispatch boundary (the atomicity audit sweeps these).
  bool single_step = false;
  // Forced extract-destroy-recreate at this dispatch boundary (0-based).
  uint64_t extract_at = kNever;
  // Freeze the whole kernel (Kernel::crashed()) at this dispatch boundary.
  uint64_t crash_at = kNever;
  // Resource faults: fail every Nth opportunity (0 = off) and/or a seeded
  // permille of opportunities.
  uint32_t fail_frame_every = 0;
  uint32_t fail_frame_permille = 0;
  uint32_t fail_handle_every = 0;
  uint32_t fail_connect_every = 0;
};

enum class ExecModel : int {
  kProcess = 0,   // one kernel stack (coroutine frame) per thread
  kInterrupt = 1, // one kernel stack per CPU; frames destroyed on block
};

enum class PreemptMode : int {
  kNone = 0,     // NP: kernel never preempted
  kPartial = 1,  // PP: explicit preemption point on the IPC copy path
  kFull = 2,     // FP: preemptible at every work quantum (process model only)
};

// Upper bound on simulated CPUs. Each CPU costs a ReadyQueue, a virtual-time
// lane and (in the parallel backend) a host worker thread, so the cap is a
// sanity bound, not a hardware limit; 64 comfortably covers current hosts.
inline constexpr int kMaxCpus = 64;

struct KernelConfig {
  ExecModel model = ExecModel::kProcess;
  PreemptMode preempt = PreemptMode::kNone;
  int num_cpus = 1;
  // Timeslice for same-priority round-robin, in timer ticks.
  uint32_t timeslice_ticks = 10;
  // Timer tick period (default 1 ms, as in the paper's latency experiment).
  uint64_t tick_ns = 1000 * 1000;
  // IPC copy-path preemption point interval, in bytes (paper: 8 KiB).
  uint32_t preempt_chunk_bytes = 8 * 1024;
  uint64_t rng_seed = 1;
  // Software TLB on the user-memory hot path (src/kern/tlb.h). Pure host-
  // side caching: results are bit-identical either way (tested by
  // tests/tlb_test.cc); off exists for that A/B check and for debugging.
  bool enable_tlb = true;
  // Interpreter engine selection (src/uvm/engine.h). Pure host-side
  // execution engine swap: results are bit-identical across all three
  // engines (tested by tests/interp_dispatch_test.cc). kThreaded degrades
  // to kSwitch when the computed-goto engine is not compiled in
  // (FLUKE_INTERP_COMPUTED_GOTO); kJit degrades to kThreaded (then kSwitch)
  // when the host target is unsupported or refuses executable pages.
  InterpEngine interp_engine = InterpEngine::kThreaded;
  // Deprecated alias, kept so older call sites and scripts keep working:
  // when false it forces the switch engine regardless of interp_engine.
  // New code should set interp_engine and leave this alone.
  bool enable_threaded_interp = true;

  // The engine the kernel actually runs: interp_engine unless the
  // deprecated alias demands the switch reference engine.
  InterpEngine EffectiveEngine() const {
    return enable_threaded_interp ? interp_engine : InterpEngine::kSwitch;
  }
  // Syscall/IPC fast paths (src/kern/dispatch.cc): trivial syscalls and the
  // reliable-IPC direct-handoff send run outside the coroutine machinery
  // when instrumentation is disarmed, charging the identical virtual-time
  // costs. Pure host-side dispatch swap: results are bit-identical either
  // way (tested by tests/fastpath_equivalence_test.cc); off exists for that
  // A/B check and for debugging. Self-disables while a FaultPlan is armed
  // or the trace buffer is enabled.
  bool fast_path = true;
  // Epoch quantum for the multi-CPU dispatcher (src/kern/dispatch.cc): each
  // CPU runs its own virtual-time lane up to
  // min(epoch base + mp_epoch_ns, next timer deadline, run horizon), then
  // all CPUs meet at a barrier where timers/IRQs fire and cross-CPU effects
  // merge in CPU order. Smaller epochs tighten device-timer latency bounds;
  // larger epochs amortize barrier cost. Irrelevant when num_cpus == 1.
  uint64_t mp_epoch_ns = 100 * 1000;
  // Let multi-CPU epochs run user bursts on host worker threads (one per
  // simulated CPU beyond the first) instead of a serial per-CPU loop. Even
  // then a round goes to the workers only when at least two of its bursts
  // are predicted long (kMpPoolMinBurstCycles in src/kern/dispatch.cc);
  // short rounds run inline. Both backends run the identical epoch schedule
  // and are bit-identical (tested by tests/mp_test.cc); serial exists for
  // that A/B check and is forced whenever instrumentation (fault plan /
  // trace) is live, mirroring the fast_path rule.
  bool mp_parallel = true;
  // Deterministic fault injection; inert unless fault_plan.enabled and the
  // injector is armed (tests arm it after host-side setup).
  FaultPlan fault_plan;

  // Empty string when the configuration is usable; otherwise a description
  // of the first problem found.
  std::string Validate() const {
    if (num_cpus <= 0) {
      return "num_cpus must be >= 1 (got " + std::to_string(num_cpus) + ")";
    }
    if (num_cpus > kMaxCpus) {
      return "num_cpus must be <= " + std::to_string(kMaxCpus) + " (got " +
             std::to_string(num_cpus) + ")";
    }
    if (preempt == PreemptMode::kFull && model == ExecModel::kInterrupt) {
      // Paper section 5.2: FP needs per-thread kernel stacks.
      return "full preemption requires the process model";
    }
    if (num_cpus > 1 && mp_epoch_ns == 0) {
      return "mp_epoch_ns must be nonzero when num_cpus > 1";
    }
    return "";
  }

  bool Valid() const { return Validate().empty(); }

  // Paper-style label, e.g. "Process NP", "Interrupt PP".
  std::string Label() const;
};

// The five valid configurations of Table 4, in the paper's order.
inline constexpr int kNumPaperConfigs = 5;
KernelConfig PaperConfig(int index);

}  // namespace fluke

#endif  // SRC_KERN_CONFIG_H_
