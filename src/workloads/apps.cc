#include "src/workloads/apps.h"

#include <cassert>
#include <vector>

#include "src/api/ulib.h"
#include "src/kern/kernel.h"
#include "src/workloads/pager.h"

namespace fluke {

namespace {

// Emits a counted loop whose counter lives in memory (the syscall stubs
// clobber every argument register, so loop state cannot live in registers).
// `body` emits the loop body; it may clobber anything.
template <typename Body>
void EmitCountedLoop(Assembler& a, uint32_t counter_addr, uint32_t count, Body&& body) {
  a.MovImm(kRegB, 0);
  a.MovImm(kRegC, counter_addr);
  a.StoreW(kRegB, kRegC, 0);
  const auto loop = a.NewLabel();
  const auto done = a.NewLabel();
  a.Bind(loop);
  a.MovImm(kRegC, counter_addr);
  a.LoadW(kRegB, kRegC, 0);
  a.MovImm(kRegSP, count);
  a.Bge(kRegB, kRegSP, done);
  body();
  a.MovImm(kRegC, counter_addr);
  a.LoadW(kRegB, kRegC, 0);
  a.AddImm(kRegB, kRegB, 1);
  a.StoreW(kRegB, kRegC, 0);
  a.Jmp(loop);
  a.Bind(done);
}

// Pre-provides (zero-filled) pages for [base, base+len) in `space` so a
// phase measures steady-state costs, not warm-up faults.
void Prefault(Space* space, uint32_t base, uint32_t len) {
  for (uint32_t a = base & ~kPageMask; a < base + len; a += kPageSize) {
    if (!space->PagePresent(a)) {
      FrameId f = space->ProvidePage(a);
      assert(f != kInvalidFrame);
      (void)f;
    }
  }
}

AppResult Collect(Kernel& k, bool completed) {
  AppResult r;
  r.elapsed_ns = k.clock.now();
  r.stats = k.stats;
  r.completed = completed;
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// memtest
// ---------------------------------------------------------------------------

AppResult RunMemtest(const KernelConfig& cfg, const MemtestParams& p) {
  Kernel k(cfg);
  ManagedSetup m = BuildManagedSpace(k, p.bytes + kPageSize, "memtest");
  k.StartThread(m.manager_thread);

  Assembler a("memtest");
  // The classic byte walk: one load per byte, sequential.
  EmitTouchRange(a, 0, p.bytes, /*write=*/false);
  a.Halt();
  m.child_space->program = a.Build();
  Thread* child = k.CreateThread(m.child_space.get());
  k.StartThread(child);

  const bool done = k.RunUntilThreadDone(child, 600ull * 1000 * kNsPerMs);
  return Collect(k, done);
}

// ---------------------------------------------------------------------------
// flukeperf
// ---------------------------------------------------------------------------

AppResult RunFlukeperf(const KernelConfig& cfg, const FlukeperfParams& p) {
  Kernel k(cfg);

  auto client_space = k.CreateSpace("perf-client");
  auto server_space = k.CreateSpace("perf-server");
  constexpr uint32_t kAnon = 0x10000;
  constexpr uint32_t kAnonSize = 12 * 1024 * 1024;
  client_space->SetAnonRange(kAnon, kAnonSize);
  server_space->SetAnonRange(kAnon, kAnonSize);

  auto port = k.NewPort(1);
  const Handle sport = k.Install(server_space.get(), port);
  const Handle cref = k.Install(client_space.get(), k.NewReference(port));
  const Handle cmutex = k.Install(client_space.get(), k.NewMutex());

  // Memory layout (both spaces): scratch counters page, then bulk buffer.
  constexpr uint32_t kCounters = kAnon;              // loop counters
  constexpr uint32_t kSmallBuf = kAnon + 0x100;      // 1-word RPC payloads
  constexpr uint32_t kBulkBuf = kAnon + kPageSize;   // up to 6 MiB
  constexpr uint32_t kWords1M = (1024 * 1024) / 4;
  const uint32_t big_words = p.big_send_bytes / 4;
  Prefault(client_space.get(), kCounters, kPageSize + p.big_send_bytes);
  Prefault(server_space.get(), kCounters, kPageSize + p.big_send_bytes);

  // --- Client program: the five phases ---
  Assembler ca("flukeperf");
  // Phase A: null syscalls.
  EmitCountedLoop(ca, kCounters + 0, p.null_syscalls, [&] { EmitSys(ca, kSysNull); });
  // Phase B: uncontended mutex lock/unlock pairs.
  EmitCountedLoop(ca, kCounters + 4, p.mutex_pairs, [&] {
    EmitSys(ca, kSysMutexLock, cmutex);
    EmitSys(ca, kSysMutexUnlock, cmutex);
  });
  // Phase C: null RPC round trips (1 word each way).
  EmitSys(ca, kSysIpcClientConnect, cref);
  EmitCheckOk(ca);
  EmitCountedLoop(ca, kCounters + 8, p.rpc_rounds, [&] {
    EmitSys(ca, kSysIpcClientSendOverReceive, kUlibKeep, kSmallBuf, 1, kSmallBuf + 16, 1);
    EmitCheckOk(ca);
  });
  // Phase D: bulk sends (the "large, long running IPC operations ideal for
  // inducing preemption latencies").
  EmitCountedLoop(ca, kCounters + 12, p.bulk_1mb_sends, [&] {
    EmitSys(ca, kSysIpcClientSend, kUlibKeep, kBulkBuf, kWords1M, 0, 0);
    EmitCheckOk(ca);
  });
  EmitCountedLoop(ca, kCounters + 16, p.bulk_big_sends, [&] {
    EmitSys(ca, kSysIpcClientSend, kUlibKeep, kBulkBuf, big_words, 0, 0);
    EmitCheckOk(ca);
  });
  // Phase E: region_search -- many small scans plus a few over a large
  // empty range (multi-stage, but with no explicit preemption point: the
  // PP configurations' residual latency source).
  EmitCountedLoop(ca, kCounters + 20, p.small_searches, [&] {
    EmitSys(ca, kSysRegionSearch, 0x40000000, 256 * 1024);
  });
  EmitCountedLoop(ca, kCounters + 24, p.big_searches, [&] {
    EmitSys(ca, kSysRegionSearch, 0x40000000, 6 * 1024 * 1024 + 512 * 1024);
  });
  EmitSys(ca, kSysIpcClientDisconnect);
  ca.Halt();

  // --- Server program ---
  Assembler sa("perf-server");
  // First request of the RPC phase arrives with the connection.
  EmitSys(sa, kSysIpcWaitReceive, sport, 0, 0, kSmallBuf, 1);
  EmitCheckOk(sa);
  // RPC replies: all rounds except the last are reply+receive.
  if (p.rpc_rounds > 1) {
    EmitCountedLoop(sa, kCounters + 0, p.rpc_rounds - 1, [&] {
      EmitSys(sa, kSysIpcServerAckSendOverReceive, 0, kSmallBuf + 16, 1, kSmallBuf, 1);
      EmitCheckOk(sa);
    });
  }
  EmitSys(sa, kSysIpcServerAckSend, 0, kSmallBuf + 16, 1, 0, 0);
  EmitCheckOk(sa);
  // Bulk receives.
  EmitCountedLoop(sa, kCounters + 4, p.bulk_1mb_sends, [&] {
    EmitSys(sa, kSysIpcServerReceive, 0, 0, 0, kBulkBuf, kWords1M);
    EmitCheckOk(sa);
  });
  EmitCountedLoop(sa, kCounters + 8, p.bulk_big_sends, [&] {
    EmitSys(sa, kSysIpcServerReceive, 0, 0, 0, kBulkBuf, big_words);
    EmitCheckOk(sa);
  });
  sa.Halt();

  client_space->program = ca.Build();
  server_space->program = sa.Build();
  Thread* client = k.CreateThread(client_space.get(), nullptr, /*priority=*/4);
  Thread* server = k.CreateThread(server_space.get(), nullptr, /*priority=*/4);
  k.StartThread(server);
  k.StartThread(client);

  // Table 6 probe: a high-priority thread released by every 1 ms timer tick.
  if (p.latency_probe) {
    auto probe_space = k.CreateSpace("probe");
    probe_space->SetAnonRange(kAnon, kPageSize);
    Assembler pa("probe");
    const auto loop = pa.NewLabel();
    pa.Bind(loop);
    EmitSys(pa, kSysIrqWait, kIrqTimer);
    pa.Compute(400);  // 2 us of "handler" work per activation
    pa.Jmp(loop);
    probe_space->program = pa.Build();
    Thread* probe = k.CreateThread(probe_space.get(), nullptr, /*priority=*/7);
    k.SetLatencyProbe(probe, true);
    k.StartThread(probe);
  }

  const bool done = k.RunUntilThreadDone(client, 600ull * 1000 * kNsPerMs) &&
                    k.RunUntilThreadDone(server, 10ull * 1000 * kNsPerMs);
  return Collect(k, done);
}

// ---------------------------------------------------------------------------
// gcc
// ---------------------------------------------------------------------------

AppResult RunGcc(const KernelConfig& cfg, const GccParams& p) {
  Kernel k(cfg);

  std::shared_ptr<Space> driver_space;
  Thread* manager = nullptr;
  if (p.demand_paged) {
    // The driver's working memory is demand-paged through a user-mode
    // manager, so each unit's buffers fault in (exception IPC + hierarchy
    // walk), as a real compiler's address space would.
    ManagedSetup ms = BuildManagedSpace(k, 8 * 1024 * 1024, "gcc");
    driver_space = ms.child_space;
    manager = ms.manager_thread;
    k.StartThread(manager);
    driver_space->set_name("gcc-driver");
  } else {
    driver_space = k.CreateSpace("gcc-driver");
  }
  auto fs_space = k.CreateSpace("gcc-fileserver");
  constexpr uint32_t kAnon = 0x10000;
  if (!p.demand_paged) {
    driver_space->SetAnonRange(kAnon, 4 * 1024 * 1024);
  }
  fs_space->SetAnonRange(kAnon, 4 * 1024 * 1024);

  auto port = k.NewPort(2);
  const Handle sport = k.Install(fs_space.get(), port);
  const Handle cref = k.Install(driver_space.get(), k.NewReference(port));

  constexpr uint32_t kCounters = kAnon;
  constexpr uint32_t kReqBuf = kAnon + 0x40;
  constexpr uint32_t kStateBuf = kAnon + 0x80;  // worker ThreadState words
  constexpr uint32_t kSrcBuf = kAnon + kPageSize;
  const uint32_t obj_words = p.io_words_per_unit / 3;
  const uint32_t kObjBuf = kSrcBuf + 4 * p.io_words_per_unit;
  if (!p.demand_paged) {
    Prefault(driver_space.get(), kAnon, kPageSize + 4 * (p.io_words_per_unit + obj_words));
  }
  Prefault(fs_space.get(), kAnon, kPageSize + 4 * (p.io_words_per_unit + obj_words));

  // --- Driver program ---
  Assembler da("gcc-driver");
  const uint64_t front_compute = p.compute_per_unit * 3 / 5;
  const uint64_t back_compute = p.compute_per_unit - front_compute;

  // Worker ("cc1") entry lives at the top so its pc is known when the
  // driver bakes it into the ThreadState it writes: pure compute, then exit.
  const auto main_entry = da.NewLabel();
  da.Jmp(main_entry);
  const uint32_t worker_entry_pc = da.Here();
  EmitCompute(da, back_compute, 2000);
  da.MovImm(kRegB, 0);
  da.Halt();
  da.Bind(main_entry);

  EmitSys(da, kSysIpcClientConnect, cref);
  EmitCheckOk(da);
  EmitCountedLoop(da, kCounters + 0, p.units, [&] {
    // "Read the source file": request 1 word, receive io_words back.
    EmitSys(da, kSysIpcClientSendOverReceive, kUlibKeep, kReqBuf, 1, kSrcBuf,
            p.io_words_per_unit);
    EmitCheckOk(da);
    // Front end (cpp + parse).
    EmitCompute(da, front_compute, 2000);
    // Touch a fresh per-unit heap window (one byte per page): real compiles
    // grow their heap per file, so each unit faults new pages in through
    // the manager.
    {
      constexpr uint32_t kHeapBase = 0x300000;
      constexpr uint32_t kHeapPagesPerUnit = 24;
      const auto touch_loop = da.NewLabel();
      const auto touch_done = da.NewLabel();
      da.MovImm(kRegC, kCounters + 0);
      da.LoadW(kRegB, kRegC, 0);  // unit index
      da.MovImm(kRegSP, kHeapPagesPerUnit * kPageSize);
      da.Mul(kRegBP, kRegB, kRegSP);
      da.MovImm(kRegSP, kHeapBase);
      da.Add(kRegBP, kRegBP, kRegSP);  // window base
      da.MovImm(kRegC, kHeapPagesPerUnit);
      da.Bind(touch_loop);
      da.MovImm(kRegSP, 0);
      da.Beq(kRegC, kRegSP, touch_done);
      da.StoreB(kRegA, kRegBP, 0);
      da.AddImm(kRegBP, kRegBP, kPageSize);
      da.AddImm(kRegC, kRegC, 0xFFFFFFFF);  // -1
      da.Jmp(touch_loop);
      da.Bind(touch_done);
    }
    // Back end runs in a spawned "cc1" worker thread: create, point its
    // state at worker_entry, resume, join.
    EmitSys(da, kSysSpaceSelf);  // B = own space handle
    da.MovImm(kRegA, kSysThreadCreate);
    da.Syscall();
    EmitCheckOk(da);
    // Save the worker handle at kStateBuf + 64.
    da.MovImm(kRegC, kStateBuf + 64);
    da.StoreW(kRegB, kRegC, 0);
    // Build the worker's ThreadState: 8 GPRs, pc, pr0, pr1, priority.
    da.MovImm(kRegD, 0);
    da.MovImm(kRegC, kStateBuf);
    for (int i = 0; i < 8; ++i) {
      da.StoreW(kRegD, kRegC, 4 * i);
    }
    da.MovImm(kRegD, worker_entry_pc);  // pc
    da.StoreW(kRegD, kRegC, 32);
    da.MovImm(kRegD, 0);
    da.StoreW(kRegD, kRegC, 36);  // pr0
    da.StoreW(kRegD, kRegC, 40);  // pr1
    da.MovImm(kRegD, 4);
    da.StoreW(kRegD, kRegC, 44);  // priority
    // thread_set_state(B=handle, C=buf, D=words)
    da.MovImm(kRegC, kStateBuf + 64);
    da.LoadW(kRegB, kRegC, 0);
    da.MovImm(kRegC, kStateBuf);
    da.MovImm(kRegD, 12);
    da.MovImm(kRegA, kSysThreadSetState);
    da.Syscall();
    EmitCheckOk(da);
    // thread_resume + thread_join.
    da.MovImm(kRegC, kStateBuf + 64);
    da.LoadW(kRegB, kRegC, 0);
    da.MovImm(kRegA, kSysThreadResume);
    da.Syscall();
    EmitCheckOk(da);
    da.MovImm(kRegC, kStateBuf + 64);
    da.LoadW(kRegB, kRegC, 0);
    da.MovImm(kRegA, kSysThreadJoin);
    da.Syscall();
    EmitCheckOk(da);
    // "Write the object file".
    EmitSys(da, kSysIpcClientSend, kUlibKeep, kObjBuf, obj_words, 0, 0);
    EmitCheckOk(da);
  });
  EmitSys(da, kSysIpcClientDisconnect);
  da.Halt();
  auto driver_prog = da.Build();

  // --- File server ---
  Assembler fa("gcc-fs");
  EmitSys(fa, kSysIpcWaitReceive, sport, 0, 0, kReqBuf, 1);
  EmitCheckOk(fa);
  EmitCountedLoop(fa, kCounters + 0, p.units, [&] {
    // Reply with the "source file" contents.
    EmitSys(fa, kSysIpcServerAckSend, 0, kSrcBuf, p.io_words_per_unit, 0, 0);
    EmitCheckOk(fa);
    // Take the "object file".
    EmitSys(fa, kSysIpcServerReceive, 0, 0, 0, kObjBuf, obj_words);
    EmitCheckOk(fa);
    // Next unit's request (the final one ends with a disconnect error,
    // which just halts the loop thread below).
    EmitSys(fa, kSysIpcServerReceive, 0, 0, 0, kReqBuf, 1);
  });
  fa.Halt();

  driver_space->program = driver_prog;
  fs_space->program = fa.Build();
  Thread* driver = k.CreateThread(driver_space.get());
  Thread* fs = k.CreateThread(fs_space.get());
  k.StartThread(fs);
  k.StartThread(driver);

  const bool done = k.RunUntilThreadDone(driver, 600ull * 1000 * kNsPerMs);
  return Collect(k, done);
}

// ---------------------------------------------------------------------------
// c1m: the thread-scaling workload
// ---------------------------------------------------------------------------

namespace {

constexpr uint32_t kC1mPorts = 8;    // pool width (ports == servers)
constexpr uint32_t kC1mBufSend = 0x10000;  // shared one-word RPC buffers
constexpr uint32_t kC1mBufRecv = 0x10010;
constexpr uint32_t kC1mSrvBuf = 0x10000;
constexpr uint32_t kC1mSrvReply = 0x10010;
constexpr uint32_t kC1mSlotBase = 0x20000;  // per-thread spill slots, 8 B each

}  // namespace

std::vector<Thread*> BuildC1mWorkload(Kernel& k, const C1mParams& p) {
  auto ss = k.CreateSpace("c1m-server");
  ss->SetAnonRange(0x10000, 1 << 16);
  // Client population. At num_cpus > 1 the clients are dealt round-robin
  // across one client space per CPU: CreateSpace assigns space-affinity
  // homes round-robin, so the population spreads over every CPU's run
  // queue and the epoch dispatcher's phase-A bursts actually parallelize.
  // (All spaces share the one program and the one server pool; nothing
  // about the per-client work changes.)
  const uint32_t shards =
      k.cfg.num_cpus > 1 ? static_cast<uint32_t>(k.cfg.num_cpus) : 1u;
  const uint32_t anon_size =
      kC1mSlotBase - 0x10000 + 8 * (p.clients + kC1mPorts + 8);
  std::vector<std::shared_ptr<Space>> css;
  for (uint32_t s = 0; s < shards; ++s) {
    // Covers the shared RPC buffers plus one 8-byte spill slot per handle
    // (slots are indexed by thread_self, which follows the port refs).
    auto cs = k.CreateSpace(shards == 1 ? "c1m-client"
                                        : "c1m-client" + std::to_string(s));
    cs->SetAnonRange(0x10000, anon_size);
    css.push_back(std::move(cs));
  }
  auto ms = k.CreateSpace("c1m-master");
  ms->SetAnonRange(0x10000, 1 << 14);

  // The pool: kC1mPorts ports behind one portset (host-side membership;
  // portset_add is what a server boot thread would run). Clients get refs
  // at contiguous handles so they can pick a port with arithmetic; the refs
  // are installed into every client shard first, so ref_base is the same
  // handle in each (fresh tables, identical install order).
  auto pset = k.NewPortset();
  const Handle ps_h = k.Install(ss.get(), pset);
  Handle ref_base = 0;
  for (uint32_t i = 0; i < kC1mPorts; ++i) {
    auto port = k.NewPort(/*badge=*/i + 1);
    k.Install(ss.get(), port);
    port->member_of = pset.get();
    pset->ports.push_back(port.get());
    for (uint32_t s = 0; s < shards; ++s) {
      const Handle r = k.Install(css[s].get(), k.NewReference(port));
      if (i == 0 && s == 0) ref_base = r;
      assert(r == ref_base + i && "port refs must be contiguous");
      (void)r;
    }
  }

  // Server: serve whichever port fires until the client goes away, then
  // back to the pool. Never halts -- a daemon, like the pager.
  Assembler sa("c1m-server");
  sa.MovImm(kRegSP, kFlukeOk);
  const auto souter = sa.NewLabel();
  const auto sinner = sa.NewLabel();
  sa.Bind(souter);
  EmitSys(sa, kSysIpcWaitReceive, ps_h, 0, 0, kC1mSrvBuf, 1);
  sa.Bne(kRegA, kRegSP, souter);
  sa.Bind(sinner);
  EmitSys(sa, kSysIpcServerAckSendOverReceive, 0, kC1mSrvReply, 1, kC1mSrvBuf, 1);
  sa.Beq(kRegA, kRegSP, sinner);
  EmitSys(sa, kSysIpcServerDisconnect);
  sa.Jmp(souter);
  ProgramRef server_prog = sa.Build();
  for (uint32_t i = 0; i < kC1mPorts; ++i) {
    k.StartThread(k.CreateThread(ss.get(), server_prog, /*priority=*/5));
  }

  // Client: spill the derived per-thread constants (port ref, sleep length)
  // to a self-indexed slot -- the syscall stubs clobber every argument
  // register -- then run `rounds` of connect/RPC/disconnect/sleep and park.
  // Statuses are deliberately ignored: the master's interrupt sweep may
  // land anywhere, and an aborted round is part of the storm.
  Assembler ca("c1m-client");
  EmitSys(ca, kSysThreadSelf);                  // B = self handle
  ca.MovImm(kRegC, 3);
  ca.Shl(kRegBP, kRegB, kRegC);
  ca.AddImm(kRegBP, kRegBP, kC1mSlotBase);      // BP = spill slot (callee-saved)
  ca.MovImm(kRegC, kC1mPorts - 1);
  ca.And(kRegC, kRegB, kRegC);
  ca.AddImm(kRegC, kRegC, ref_base);
  ca.StoreW(kRegC, kRegBP, 0);                  // slot[0] = my port's ref
  ca.MovImm(kRegC, 63);
  ca.And(kRegC, kRegB, kRegC);
  ca.AddImm(kRegC, kRegC, 100);
  ca.StoreW(kRegC, kRegBP, 4);                  // slot[4] = 100+(self&63) us
  for (uint32_t r = 0; r < p.rounds; ++r) {
    ca.LoadW(kRegB, kRegBP, 0);
    EmitSys(ca, kSysIpcClientConnect, kUlibKeep);
    EmitSys(ca, kSysIpcClientSendOverReceive, kUlibKeep, kC1mBufSend, 1, kC1mBufRecv, 1);
    EmitSys(ca, kSysIpcClientDisconnect);
    ca.LoadW(kRegB, kRegBP, 4);
    EmitSys(ca, kSysClockSleep, kUlibKeep);
  }
  EmitSys(ca, kSysClockSleep, p.park_us);
  ca.MovImm(kRegB, 0);
  ca.Halt();
  ProgramRef client_prog = ca.Build();

  std::vector<Thread*> done_order;
  done_order.reserve(p.clients + 1);
  std::vector<Handle> client_handles;
  client_handles.reserve(p.clients);
  for (uint32_t i = 0; i < p.clients; ++i) {
    Thread* t = k.CreateThread(css[i % shards].get(), client_prog, /*priority=*/2);
    client_handles.push_back(k.Install(ms.get(), k.threads().back()));
    k.StartThread(t);
    done_order.push_back(t);
  }

  // Master: sleep past the connect storm, then one interrupt per client --
  // the wakeup storm. Parked clients get their sleep timers cancelled;
  // stragglers get an aborted round; dead clients are a cheap no-op. The
  // auto-scaled delay (~30 us of serialized virtual time per client) lands
  // the sweep mid-run, when a steady-state population of clients is parked
  // -- that is what drives timer_cancels at every scale.
  const uint32_t sweep_delay_us =
      p.sweep_delay_us != 0 ? p.sweep_delay_us : 10000 + 30 * p.clients;
  Assembler ma("c1m-master");
  EmitSys(ma, kSysClockSleep, sweep_delay_us);
  for (const Handle h : client_handles) {
    EmitSys(ma, kSysThreadInterrupt, h);
  }
  ma.MovImm(kRegB, 0);
  ma.Halt();
  Thread* master = k.CreateThread(ms.get(), ma.Build(), /*priority=*/6);
  k.StartThread(master);
  done_order.push_back(master);
  return done_order;
}

C1mResult RunC1m(const KernelConfig& cfg, const C1mParams& p) {
  Kernel k(cfg);
  std::vector<Thread*> threads = BuildC1mWorkload(k, p);
  // Budget scales with N: the pool serializes rounds*N RPCs.
  const Time budget = kNsPerMs * (2000 + 2ull * p.clients);
  bool completed = true;
  const Time deadline = k.clock.now() + budget;
  for (Thread* t : threads) {
    if (!k.RunUntilThreadDone(t, deadline - k.clock.now())) {
      completed = false;
      break;
    }
  }
  C1mResult r;
  r.app = Collect(k, completed);
  r.clients = p.clients;
  r.bytes_per_thread =
      static_cast<double>(k.stats.blocked_frame_bytes_peak) / p.clients;
  r.wakeups_per_vsec = k.clock.now() == 0
                           ? 0.0
                           : static_cast<double>(k.stats.context_switches) *
                                 1e9 / static_cast<double>(k.clock.now());
  return r;
}

// ---------------------------------------------------------------------------
// MP compute
// ---------------------------------------------------------------------------

std::vector<Thread*> BuildMpComputeWorkload(Kernel& k, const MpComputeParams& p) {
  constexpr uint32_t kCounter = 0x10000;  // pass counter (syscalls clobber registers)
  Assembler a("mpcompute");
  EmitCountedLoop(a, kCounter, p.passes, [&] {
    a.MovImm(kRegB, 0);
    a.MovImm(kRegC, p.iters);
    a.MovImm(kRegD, 1);
    const auto inner = a.NewLabel();
    a.Bind(inner);
    a.Add(kRegB, kRegB, kRegD);
    a.Xor(kRegSI, kRegC, kRegD);
    a.Shl(kRegDI, kRegC, kRegD);
    a.And(kRegBP, kRegC, kRegD);
    a.Or(kRegSI, kRegDI, kRegBP);
    a.Blt(kRegB, kRegC, inner);
    EmitSys(a, kSysNull);
  });
  a.Halt();
  ProgramRef prog = a.Build();
  std::vector<Thread*> threads;
  for (int i = 0; i < k.cfg.num_cpus; ++i) {
    auto sp = k.CreateSpace("mpcompute" + std::to_string(i));
    sp->SetAnonRange(kCounter, kPageSize);
    Prefault(sp.get(), kCounter, kPageSize);
    Thread* t = k.CreateThread(sp.get(), prog);
    k.StartThread(t);
    threads.push_back(t);
  }
  return threads;
}

AppResult RunMpCompute(const KernelConfig& cfg, const MpComputeParams& p) {
  Kernel k(cfg);
  std::vector<Thread*> threads = BuildMpComputeWorkload(k, p);
  const Time deadline = k.clock.now() + 60ull * 1000 * kNsPerMs;
  bool completed = true;
  for (Thread* t : threads) {
    if (!k.RunUntilThreadDone(t, deadline - k.clock.now())) {
      completed = false;
      break;
    }
  }
  return Collect(k, completed);
}

}  // namespace fluke
