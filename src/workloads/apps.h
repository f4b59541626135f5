// The paper's three evaluation applications (section 5.3):
//
//  * memtest   -- touches 16 MiB one byte at a time under a demand-allocation
//                 memory manager (kernel fault handling + exception IPC);
//  * flukeperf -- a battery of synchronization and IPC microbenchmarks with
//                 many kernel calls and context switches, including the
//                 large long-running IPC operations that induce the Table 6
//                 preemption latencies;
//  * gcc       -- a compile-pipeline profile: dominated by user-mode compute
//                 with file-server IPC and thread create/join per unit.
//
// Each Run* builds a fresh kernel in the given configuration, runs the
// application to completion, and returns the elapsed virtual time plus the
// kernel's statistics. Used by bench/table5_apps, bench/table6_latency and
// the integration tests.

#ifndef SRC_WORKLOADS_APPS_H_
#define SRC_WORKLOADS_APPS_H_

#include <cstdint>
#include <vector>

#include "src/kern/config.h"
#include "src/kern/stats.h"

namespace fluke {

class Kernel;
struct Thread;

struct AppResult {
  Time elapsed_ns = 0;
  KernelStats stats;
  bool completed = false;
};

struct MemtestParams {
  uint32_t bytes = 16 * 1024 * 1024;
};

struct FlukeperfParams {
  uint32_t null_syscalls = 400000;
  uint32_t mutex_pairs = 300000;
  uint32_t rpc_rounds = 400000;
  // Large long-running IPC operations (rare, as in the paper: they set the
  // NP configurations' maximum preemption latency).
  uint32_t bulk_1mb_sends = 40;
  uint32_t bulk_big_sends = 8;
  uint32_t big_send_bytes = 2560 * 1024;  // ~6.9 ms nonpreemptible in NP
  // region_search: many small ones plus a few over a large range (the PP
  // configurations' residual latency source, since the paper's only
  // explicit preemption point is on the IPC copy path).
  uint32_t small_searches = 600;
  uint32_t big_searches = 8;
  // When true, a high-priority probe thread wakes on every 1 ms timer tick
  // and its wake-to-run latencies are recorded (Table 6).
  bool latency_probe = false;
};

struct GccParams {
  uint32_t units = 20;                     // "files" compiled
  uint64_t compute_per_unit = 64000000;    // cycles of front+back end work
  uint32_t io_words_per_unit = 24 * 1024;  // file-server transfer (words)
  // The driver runs in a demand-paged space under a user-mode manager (a
  // real compile faults constantly: fork/exec, COW, heap growth).
  bool demand_paged = true;
};

AppResult RunMemtest(const KernelConfig& cfg, const MemtestParams& p = {});
AppResult RunFlukeperf(const KernelConfig& cfg, const FlukeperfParams& p = {});
AppResult RunGcc(const KernelConfig& cfg, const GccParams& p = {});

// --- The c1m thread-scaling workload (not from the paper) ---
//
// N client threads hammer a pool of servers behind a portset: every client
// does `rounds` of connect -> one-word RPC -> disconnect -> clock_sleep
// (staggered per-thread durations, so the timing wheel sees both a connect
// storm and a timeout storm), then parks in a long sleep. A master thread
// sweeps thread_interrupt over every client (the wakeup storm: parked
// sleeps cancel their timers and finish early). The server pool services
// whatever arrives and runs forever, like a daemon; the run is over when
// the clients and the master are dead.
//
// The point is footprint and wake throughput at large N, per execution
// model: in the process model every blocked client retains its kernel
// stack, in the interrupt model blocked clients cost only their restart
// registers. bytes_per_thread reports exactly that.

struct C1mParams {
  uint32_t clients = 1000;
  uint32_t rounds = 2;           // RPC+sleep rounds per client
  uint32_t park_us = 50000;      // final parked sleep (cut short by the sweep)
  // Master sleeps this long, then sweeps thread_interrupt over every
  // client. 0 (the default) auto-scales with the client count: virtual
  // time is serialized, so the first client reaches its park only after
  // ~everyone's first RPC round, and a fixed delay either lands before any
  // sleeper exists (large N) or after all of them woke (small N).
  uint32_t sweep_delay_us = 0;
};

struct C1mResult {
  AppResult app;
  uint32_t clients = 0;
  // Peak kernel bytes held by blocked threads, divided by N: the per-thread
  // kernel memory cost of the execution model.
  double bytes_per_thread = 0.0;
  // Thread wakeups (context switches) per virtual second: wake throughput.
  double wakeups_per_vsec = 0.0;
};

// Builds the workload into an existing kernel and returns the threads whose
// completion ends the run (the clients, then the master). Used by fluke_run
// --workload=c1m and by RunC1m below.
std::vector<Thread*> BuildC1mWorkload(Kernel& k, const C1mParams& p);

C1mResult RunC1m(const KernelConfig& cfg, const C1mParams& p = {});

// --- The MP compute workload (not from the paper) ---
//
// One ALU-loop thread per CPU, each in its own space (so each homes on its
// own CPU). A thread runs `passes` passes of an `iters`-iteration loop of
// five ALU ops and a branch (7 cycles per iteration), with a null syscall
// after every pass, then halts. Its bursts run to the next syscall or the
// epoch horizon -- thousands of cycles, against c1m's handful -- so this is
// the workload whose phase-A rounds the parallel backend hands to MpPool.

struct MpComputeParams {
  uint32_t passes = 64;
  uint32_t iters = 2048;  // inner loop: 12,288 instructions, 14,336 cycles
};

// Builds the workload into an existing kernel and returns its threads.
std::vector<Thread*> BuildMpComputeWorkload(Kernel& k, const MpComputeParams& p);

AppResult RunMpCompute(const KernelConfig& cfg, const MpComputeParams& p = {});

}  // namespace fluke

#endif  // SRC_WORKLOADS_APPS_H_
