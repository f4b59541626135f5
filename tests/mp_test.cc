// Multiprocessor configurations: the per-CPU epoch dispatcher
// (src/kern/dispatch.cc). Threads are routed to CPUs by space-affinity
// domain; each CPU runs its own virtual-time lane between epoch barriers,
// with kernel work strictly serialized in CPU order. The acceptance bar is
// determinism: the parallel backend (host worker threads for phase-A
// interpreter bursts) must be bit-identical -- schedule digest, stats,
// final state -- to the serial backend, in both interpreter engines, at
// every CPU count.

#include <set>
#include <string>

#include "src/kern/inspect.h"
#include "src/workloads/apps.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

KernelConfig MpConfig(ExecModel model, int cpus) {
  KernelConfig cfg;
  cfg.model = model;
  cfg.num_cpus = cpus;
  return cfg;
}

TEST(MpTest, ConfigValidation) {
  KernelConfig cfg;
  cfg.num_cpus = 8;
  EXPECT_TRUE(cfg.Valid());
  cfg.num_cpus = 9;  // the old interleave's cap; fine for the epoch dispatcher
  EXPECT_TRUE(cfg.Valid());
  cfg.num_cpus = kMaxCpus;
  EXPECT_TRUE(cfg.Valid());
  cfg.num_cpus = kMaxCpus + 1;
  EXPECT_FALSE(cfg.Valid());
  EXPECT_NE(cfg.Validate().find("num_cpus must be <="), std::string::npos)
      << cfg.Validate();
  cfg.num_cpus = 0;
  EXPECT_FALSE(cfg.Valid());
  EXPECT_NE(cfg.Validate().find("num_cpus must be >= 1"), std::string::npos)
      << cfg.Validate();
  cfg.num_cpus = -3;
  EXPECT_FALSE(cfg.Valid());
  EXPECT_NE(cfg.Validate().find("num_cpus must be >= 1"), std::string::npos)
      << cfg.Validate();
  cfg.num_cpus = 4;
  cfg.mp_epoch_ns = 0;
  EXPECT_FALSE(cfg.Valid());
  EXPECT_NE(cfg.Validate().find("mp_epoch_ns"), std::string::npos) << cfg.Validate();
  cfg.mp_epoch_ns = 1;
  EXPECT_TRUE(cfg.Valid());
  cfg.num_cpus = 1;
  cfg.mp_epoch_ns = 0;  // irrelevant at one CPU
  EXPECT_TRUE(cfg.Valid());
  cfg.num_cpus = 2;
  cfg.mp_epoch_ns = 100000;
  cfg.model = ExecModel::kInterrupt;
  cfg.preempt = PreemptMode::kFull;
  EXPECT_FALSE(cfg.Valid());  // FP still requires the process model
  EXPECT_NE(cfg.Validate().find("process model"), std::string::npos) << cfg.Validate();
}

// Space-affinity routing: spaces get round-robin home CPUs, threads follow
// their space, and cpu_id reports the home. With one space per CPU, every
// CPU runs user code and each space observes its own id.
TEST(MpTest, SpacesObserveDistinctHomeCpus) {
  for (ExecModel model : {ExecModel::kProcess, ExecModel::kInterrupt}) {
    constexpr int kCpus = 4;
    Kernel k(MpConfig(model, kCpus));
    Assembler a("sampler");
    EmitSys(a, kSysCpuId);
    a.MovImm(kRegC, 0x10000);
    a.StoreW(kRegB, kRegC, 0);
    a.Compute(20000);
    a.Halt();
    ProgramRef prog = a.Build();
    std::vector<std::shared_ptr<Space>> spaces;
    for (int i = 0; i < kCpus; ++i) {
      auto sp = k.CreateSpace("s" + std::to_string(i));
      sp->SetAnonRange(0x10000, 1 << 16);
      k.StartThread(k.CreateThread(sp.get(), prog));
      spaces.push_back(std::move(sp));
    }
    ASSERT_TRUE(k.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
    std::set<uint32_t> seen;
    for (int i = 0; i < kCpus; ++i) {
      uint32_t v = ~0u;
      ASSERT_TRUE(spaces[i]->HostRead(0x10000, &v, 4));
      EXPECT_EQ(v, static_cast<uint32_t>(i)) << "space " << i;
      seen.insert(v);
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(kCpus));
  }
}

// A Mapping between two spaces folds their affinity domains into one (they
// can come to share frames): the lower home wins, the losing domain's
// spaces take a remote TLB shootdown, and its threads migrate run queues.
TEST(MpTest, MappingMergesAffinityDomainsAndMigrates) {
  Kernel k(MpConfig(ExecModel::kProcess, 2));
  auto sa = k.CreateSpace("exporter");  // home 0
  auto sb = k.CreateSpace("importer");  // home 1
  sa->SetAnonRange(0x10000, 1 << 16);
  sb->SetAnonRange(0x10000, 1 << 16);
  Assembler a("w");
  a.Compute(5000);
  a.Halt();
  Thread* t = k.CreateThread(sb.get(), a.Build());
  k.StartThread(t);
  EXPECT_EQ(t->home_cpu, 1);
  EXPECT_EQ(k.HomeCpuOf(sb.get()), 1);

  auto region = k.NewRegion(sa.get(), 0x10000, 0x1000, kProtReadWrite);
  k.NewMapping(sb.get(), 0x40000, region.get(), 0, 0x1000, kProtRead);

  EXPECT_EQ(k.HomeCpuOf(sb.get()), 0) << "lower home id absorbs";
  EXPECT_EQ(k.HomeCpuOf(sa.get()), 0);
  EXPECT_EQ(t->home_cpu, 0) << "queued thread must follow its space";
  EXPECT_GE(k.stats.migrations, 1u);
  EXPECT_GE(k.stats.shootdowns_remote, 1u);
  ASSERT_TRUE(k.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
}

TEST(MpTest, IpcAndSyncCorrectOnTwoCpus) {
  SimpleWorld w(MpConfig(ExecModel::kInterrupt, 2));
  // Reuse the contended-counter pattern from sync_test: exactness matters.
  const Handle m = w.kernel.Install(w.space.get(), w.kernel.NewMutex());
  auto worker = [&](const char* name) {
    Assembler a(name);
    const auto loop = a.NewLabel();
    const auto done = a.NewLabel();
    a.MovImm(kRegDI, 0);
    a.Bind(loop);
    a.MovImm(kRegSP, 500);
    a.Bge(kRegDI, kRegSP, done);
    EmitSys(a, kSysMutexLock, m);
    a.MovImm(kRegC, SimpleWorld::kAnonBase);
    a.LoadW(kRegB, kRegC, 0);
    a.Compute(400);
    a.AddImm(kRegB, kRegB, 1);
    a.StoreW(kRegB, kRegC, 0);
    EmitSys(a, kSysMutexUnlock, m);
    a.AddImm(kRegDI, kRegDI, 1);
    a.Jmp(loop);
    a.Bind(done);
    a.Halt();
    return a.Build();
  };
  w.Spawn(worker("w1"));
  w.Spawn(worker("w2"));
  w.RunAll();
  uint32_t v = 0;
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, &v, 4));
  EXPECT_EQ(v, 1000u);
}

TEST(MpTest, CheckpointWorksUnderMp) {
  SimpleWorld w(MpConfig(ExecModel::kProcess, 4));
  Assembler a("t");
  EmitCompute(a, 500000);
  EmitPuts(a, "ok");
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.kernel.Run(w.kernel.clock.now() + 1 * kNsPerMs);
  ThreadState st;
  ASSERT_TRUE(w.kernel.GetThreadState(t, &st));
  ASSERT_TRUE(w.kernel.SetThreadState(t, st));
  w.kernel.ResumeThread(t);
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "ok");
}

// --- Serial vs parallel backend equivalence -------------------------------
//
// The determinism witness: MpDigest folds every CPU's (lane, tid/event)
// dispatch history in CPU order. The c1m storm (sharded client spaces, one
// shared server pool, timer storms, the master's interrupt sweep) crosses
// CPUs constantly; both backends and both engines must agree bit-for-bit.

struct MpRun {
  bool completed = true;
  uint64_t mp_digest = 0;
  Time final_time = 0;
  uint64_t context_switches = 0;
  uint64_t syscalls = 0;
  uint64_t user_instructions = 0;
  uint64_t mp_epochs = 0;
  uint64_t cross_cpu_ipc = 0;
  uint64_t migrations = 0;
  uint64_t timer_arms = 0;
  uint64_t timer_cancels = 0;
  std::string dump;
  // Host-side execution-path counters: never compared across backends.
  uint64_t mp_pool_rounds = 0;
  uint64_t mp_inline_rounds = 0;
};

MpRun RunMpThreads(Kernel& k, const std::vector<Thread*>& threads) {
  MpRun r;
  const Time deadline = k.clock.now() + 4000 * kNsPerMs;
  for (Thread* t : threads) {
    if (!k.RunUntilThreadDone(t, deadline - k.clock.now())) {
      r.completed = false;
      break;
    }
  }
  r.mp_digest = k.MpDigest();
  r.final_time = k.clock.now();
  r.context_switches = k.stats.context_switches;
  r.syscalls = k.stats.syscalls;
  r.user_instructions = k.stats.user_instructions;
  r.mp_epochs = k.stats.mp_epochs;
  r.cross_cpu_ipc = k.stats.cross_cpu_ipc;
  r.migrations = k.stats.migrations;
  r.timer_arms = k.stats.timer_arms;
  r.timer_cancels = k.stats.timer_cancels;
  r.dump = DumpKernel(k);
  r.mp_pool_rounds = k.stats.mp_pool_rounds;
  r.mp_inline_rounds = k.stats.mp_inline_rounds;
  return r;
}

MpRun RunC1mMp(ExecModel model, int cpus, bool parallel, bool threaded) {
  KernelConfig cfg = MpConfig(model, cpus);
  cfg.mp_parallel = parallel;
  cfg.enable_threaded_interp = threaded;
  Kernel k(cfg);
  C1mParams p;
  p.clients = 48;
  p.sweep_delay_us = 3000;
  p.park_us = 20000;
  return RunMpThreads(k, BuildC1mWorkload(k, p));
}

MpRun RunComputeMp(ExecModel model, int cpus, bool parallel, InterpEngine engine) {
  KernelConfig cfg = MpConfig(model, cpus);
  cfg.mp_parallel = parallel;
  cfg.interp_engine = engine;
  Kernel k(cfg);
  MpComputeParams p;
  p.passes = 24;
  return RunMpThreads(k, BuildMpComputeWorkload(k, p));
}

void ExpectSameRun(const MpRun& a, const MpRun& b, const char* what) {
  EXPECT_EQ(a.mp_digest, b.mp_digest) << what;
  EXPECT_EQ(a.final_time, b.final_time) << what;
  EXPECT_EQ(a.context_switches, b.context_switches) << what;
  EXPECT_EQ(a.syscalls, b.syscalls) << what;
  EXPECT_EQ(a.user_instructions, b.user_instructions) << what;
  EXPECT_EQ(a.mp_epochs, b.mp_epochs) << what;
  EXPECT_EQ(a.cross_cpu_ipc, b.cross_cpu_ipc) << what;
  EXPECT_EQ(a.migrations, b.migrations) << what;
  EXPECT_EQ(a.timer_arms, b.timer_arms) << what;
  EXPECT_EQ(a.timer_cancels, b.timer_cancels) << what;
  EXPECT_EQ(a.dump, b.dump) << what;
}

class MpBackendTest : public testing::TestWithParam<ExecModel> {};

TEST_P(MpBackendTest, SerialAndParallelBitIdenticalAcrossCpuCounts) {
  for (int cpus : {2, 4, 8}) {
    const MpRun serial = RunC1mMp(GetParam(), cpus, /*parallel=*/false, true);
    const MpRun par = RunC1mMp(GetParam(), cpus, /*parallel=*/true, true);
    ASSERT_TRUE(serial.completed) << cpus << " cpus";
    ASSERT_TRUE(par.completed) << cpus << " cpus";
    EXPECT_GT(serial.mp_epochs, 0u);
    ExpectSameRun(serial, par, "serial vs parallel");
    // c1m's bursts are a few instructions: the parallel backend runs its
    // rounds inline rather than paying a pool round for each.
    EXPECT_GT(par.mp_inline_rounds, 0u) << cpus << " cpus";
    EXPECT_EQ(serial.mp_pool_rounds, 0u) << cpus << " cpus";
    EXPECT_EQ(serial.mp_inline_rounds, par.mp_pool_rounds + par.mp_inline_rounds)
        << cpus << " cpus";
    // Repeat of the parallel run: host scheduling must not leak in.
    const MpRun par2 = RunC1mMp(GetParam(), cpus, /*parallel=*/true, true);
    ExpectSameRun(par, par2, "parallel repeat");
  }
}

TEST_P(MpBackendTest, EnginesBitIdenticalUnderMp) {
  const MpRun threaded = RunC1mMp(GetParam(), 4, /*parallel=*/true, true);
  const MpRun switched = RunC1mMp(GetParam(), 4, /*parallel=*/true, false);
  ASSERT_TRUE(threaded.completed);
  ASSERT_TRUE(switched.completed);
  ExpectSameRun(threaded, switched, "threaded vs switch engine");
}

// The pool path. After the fan-out gate, c1m and rpc almost never reach
// MpPool; the compute workload's bursts run thousands of cycles to the
// next syscall or the epoch horizon, so its rounds go to the pool and race
// bursts on host threads (the CI TSan job runs this suite). The jit leg
// keeps compiled bursts on worker threads covered (it runs the threaded
// engine where the jit is unavailable).
TEST_P(MpBackendTest, ComputeSerialAndParallelBitIdenticalOnThePoolPath) {
  for (InterpEngine engine :
       {InterpEngine::kThreaded, InterpEngine::kSwitch, InterpEngine::kJit}) {
    for (int cpus : {2, 4, 8}) {
      const MpRun serial = RunComputeMp(GetParam(), cpus, /*parallel=*/false, engine);
      const MpRun par = RunComputeMp(GetParam(), cpus, /*parallel=*/true, engine);
      const std::string what =
          std::string(InterpEngineName(engine)) + " at " + std::to_string(cpus) + " cpus";
      ASSERT_TRUE(serial.completed) << what;
      ASSERT_TRUE(par.completed) << what;
      ExpectSameRun(serial, par, what.c_str());
      EXPECT_GT(par.mp_pool_rounds, 0u) << what;
      EXPECT_EQ(serial.mp_pool_rounds, 0u) << what;
      EXPECT_EQ(serial.mp_inline_rounds, par.mp_pool_rounds + par.mp_inline_rounds) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, MpBackendTest,
                         testing::Values(ExecModel::kProcess, ExecModel::kInterrupt),
                         [](const testing::TestParamInfo<ExecModel>& i) {
                           return i.param == ExecModel::kProcess ? "Process" : "Interrupt";
                         });

}  // namespace
}  // namespace fluke
