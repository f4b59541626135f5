// fluke_run: assemble and run a .fasm user program on a Fluke kernel.
//
// Usage:
//   fluke_run [options] program.fasm [more.fasm ...]
//
// Each file becomes one thread (all in one space, sharing memory). Options:
//   --model=process|interrupt     execution model        (default process)
//   --preempt=np|pp|fp            preemption mode        (default np)
//   --engine=switch|threaded|jit  interpreter engine     (default threaded).
//                                 All three are bit-identical; jit falls back
//                                 to threaded (with a warning) on hosts that
//                                 refuse executable pages
//   --cpus=N                      simulated CPUs (default 1). N > 1 runs the
//                                 per-CPU epoch dispatcher; the rpc and c1m
//                                 workloads shard across the CPUs
//   --mp-serial                   run multi-CPU epochs on the serial backend
//                                 (bit-identical to the parallel one; for
//                                 A/B determinism checks)
//   --anon=BYTES                  anonymous memory size  (default 16 MiB)
//   --max-ms=N                    virtual time budget    (default 10000)
//   --paged                       run under a user-mode demand pager instead
//                                 of kernel anon memory
//   --stats                       print kernel statistics at exit
//   --stats-json=FILE             write the full KernelStats snapshot
//                                 (counters + latency histograms) as JSON
//   --trace                       dump the kernel event trace at exit
//   --trace-out=FILE              write the trace as Chrome trace_event JSON
//                                 (load in ui.perfetto.dev or chrome://tracing)
//   --trace-bin=FILE              stream every trace event into the compact
//                                 binary FBT format (a few bytes/event; see
//                                 src/kern/trace_binary.h). Convert to the
//                                 JSON form with tools/trace_convert. Cheap
//                                 enough to stay armed at c1m scale
//   --trace-cap=N                 trace ring capacity (rounded up to a power
//                                 of two; default 1M events when tracing)
//   --flight-recorder[=N]         keep the last N trace events (default 64Ki)
//                                 in a ring; on a postmortem-worthy failure
//                                 (injected crash freeze, recoverable panic,
//                                 audit divergence, restore failure) dump
//                                 them plus a stats snapshot as a bundle
//   --flight-out=PREFIX           bundle path prefix (default "flight":
//                                 flight.trace.fbt, flight.trace.json,
//                                 flight.stats.json)
//   --req-report                  stitch the trace's span + flow events into
//                                 per-request causal paths and print the
//                                 critical-path decomposition + tail table
//                                 (rpc / c1m workloads)
//   --metrics-out=FILE            append a counter snapshot row every
//                                 --metrics-every ns of virtual time
//                                 (.json or .csv by extension)
//   --metrics-every=NS            metrics sampling interval (default 1ms)
//   --profile                     fold the trace span stream into a per-class
//                                 virtual-time profile table + stream digest
//   --workload=rpc[:N]            run the built-in RPC ping-pong workload
//                                 (N round trips, default 200) instead of
//                                 .fasm programs
//   --workload=c1m[:N]            run the thread-scaling workload (N client
//                                 threads against a portset server pool;
//                                 default 1000); --stats adds bytes/thread
//                                 and wakeups/sec
//   --ps                          dump thread/space state at exit
//   --fault-plan=SPEC             arm deterministic fault injection, e.g.
//                                 "seed=7,frame-every=3,crash=100" (see
//                                 src/kern/faultinject.h for the key list)
//   --audit                       run the built-in atomicity audit (forced
//                                 extraction at every dispatch boundary)
//                                 instead of programs; exits 4 and dumps the
//                                 diverging kernel if any boundary fails
//   --ckpt-every=N                take an incremental concurrent checkpoint
//                                 every N virtual ms: a short mark phase, then
//                                 the kernel keeps serving syscalls while the
//                                 drain ktask writes the image (single CPU)
//   --ckpt-dir=DIR                checkpoint store directory (images +
//                                 restart log; default "ckpt")
//   --ckpt-delta                  after the first full image, write delta
//                                 images (pages dirtied since the parent)
//   --restore=DIR                 recover the newest complete generation from
//                                 DIR's restart log (falling back across
//                                 broken chains) and continue the run from it;
//                                 combine with the same workload flags so the
//                                 programs can be re-bound by name
//
// Example program (echo.fasm):
//   start:
//     puts "hello from fluke\n"
//     sys  clock_get
//     halt

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/ulib.h"
#include "src/kern/kernel.h"
#include "src/kern/inspect.h"
#include "src/kern/metrics.h"
#include "src/kern/profile.h"
#include "src/kern/reqpath.h"
#include "src/kern/trace_binary.h"
#include "src/kern/trace_export.h"
#include "src/uvm/asmparse.h"
#include "src/workloads/apps.h"
#include "src/workloads/audit.h"
#include "src/workloads/checkpoint.h"
#include "src/workloads/ckpt_image.h"
#include "src/workloads/pager.h"
#include "src/workloads/restart_log.h"

namespace fluke {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: fluke_run [--model=process|interrupt] [--preempt=np|pp|fp]\n"
               "                 [--engine=switch|threaded|jit] [--cpus=N] [--mp-serial]\n"
               "                 [--anon=BYTES] [--max-ms=N] [--paged] [--stats] [--trace] [--ps]\n"
               "                 [--stats-json=FILE] [--trace-out=FILE] [--trace-bin=FILE]\n"
               "                 [--trace-cap=N] [--flight-recorder[=N]] [--flight-out=PREFIX]\n"
               "                 [--req-report] [--metrics-out=FILE] [--metrics-every=NS]\n"
               "                 [--profile] [--workload=rpc[:N]] [--workload=c1m[:N]]\n"
               "                 [--fault-plan=SPEC] [--audit]\n"
               "                 [--ckpt-every=MS] [--ckpt-dir=DIR] [--ckpt-delta]\n"
               "                 [--restore=DIR]\n"
               "                 program.fasm [more.fasm ...]\n");
  return 2;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "fluke_run: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

// The flight-recorder postmortem bundle: the ring's last events in both
// binary and JSON form plus the full stats snapshot, under one prefix.
bool WriteFlightBundle(const std::string& prefix, const std::vector<TraceEvent>& events,
                       Time end_ns, uint64_t total, uint64_t dropped,
                       const std::vector<std::pair<uint64_t, std::string>>& thread_names,
                       const std::string& stats_json) {
  bool ok = WriteTraceBinarySnapshot(prefix + ".trace.fbt", events, end_ns, total, dropped,
                                     thread_names);
  if (!ok) {
    std::fprintf(stderr, "fluke_run: cannot write '%s.trace.fbt'\n", prefix.c_str());
  }
  ok = WriteFile(prefix + ".trace.json", ExportChromeTrace(events, thread_names, dropped, end_ns)) &&
       ok;
  ok = WriteFile(prefix + ".stats.json", stats_json) && ok;
  if (ok) {
    std::fprintf(stderr,
                 "fluke_run: flight recorder dumped %zu events to "
                 "%s.{trace.fbt,trace.json,stats.json}\n",
                 events.size(), prefix.c_str());
  }
  return ok;
}

// The built-in RPC ping-pong workload (the BM_RpcRoundTrip shape): a client
// bounces `rounds` one-word messages off an echo server through
// send-over-receive, then halts; the server loops forever. Returns the
// client thread -- the run is done when it is.
Thread* BuildRpcWorkload(Kernel& k, uint32_t rounds) {
  auto cs = k.CreateSpace("rpc-client");
  auto ss = k.CreateSpace("rpc-server");
  cs->SetAnonRange(0x10000, 1 << 20);
  ss->SetAnonRange(0x10000, 1 << 20);
  auto port = k.NewPort(1);
  const Handle sp = k.Install(ss.get(), port);
  const Handle cr = k.Install(cs.get(), k.NewReference(port));

  Assembler ca("rpc-client");
  EmitSys(ca, kSysIpcClientConnect, cr);
  ca.MovImm(kRegBP, 0);       // round counter
  ca.MovImm(kRegSP, rounds);  // bound
  const auto loop = ca.NewLabel();
  const auto done = ca.NewLabel();
  ca.Bind(loop);
  ca.Bge(kRegBP, kRegSP, done);
  EmitSys(ca, kSysIpcClientSendOverReceive, kUlibKeep, 0x10000, 1, 0x10100, 1);
  ca.AddImm(kRegBP, kRegBP, 1);
  ca.Jmp(loop);
  ca.Bind(done);
  ca.MovImm(kRegB, 0);  // exit code
  ca.Halt();
  cs->program = ca.Build();

  Assembler sa("rpc-server");
  EmitSys(sa, kSysIpcWaitReceive, sp, 0, 0, 0x10000, 1);
  sa.MovImm(kRegBP, kFlukeOk);
  const auto sloop = sa.NewLabel();
  sa.Bind(sloop);
  EmitSys(sa, kSysIpcServerAckSendOverReceive, 0, 0x10100, 1, 0x10000, 1);
  // Echo until the client hangs up (the halted client fails the next ack),
  // then exit so the kernel quiesces at the true end of the run.
  sa.Beq(kRegA, kRegBP, sloop);
  sa.MovImm(kRegB, 0);
  sa.Halt();
  ss->program = sa.Build();

  k.StartThread(k.CreateThread(ss.get()));
  Thread* client = k.CreateThread(cs.get());
  k.StartThread(client);
  return client;
}

int Main(int argc, char** argv) {
  KernelConfig cfg;
  uint32_t anon_bytes = 16 * 1024 * 1024;
  uint64_t max_ms = 10000;
  bool paged = false;
  bool stats = false;
  bool trace = false;
  bool ps = false;
  bool audit = false;
  bool profile = false;
  bool req_report = false;
  std::string trace_out;
  std::string trace_bin;
  std::string stats_json;
  std::string metrics_out;
  uint64_t metrics_every_ns = kNsPerMs;
  size_t flight_events = 0;  // 0 = flight recorder off
  std::string flight_out = "flight";
  size_t trace_cap = 0;  // 0 = unset
  bool workload_rpc = false;
  uint32_t rpc_rounds = 200;
  bool workload_c1m = false;
  uint32_t c1m_clients = 1000;
  uint64_t ckpt_every_ms = 0;
  std::string ckpt_dir = "ckpt";
  bool ckpt_delta = false;
  std::string restore_dir;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--model=process") {
      cfg.model = ExecModel::kProcess;
    } else if (arg == "--model=interrupt") {
      cfg.model = ExecModel::kInterrupt;
    } else if (arg == "--preempt=np") {
      cfg.preempt = PreemptMode::kNone;
    } else if (arg == "--preempt=pp") {
      cfg.preempt = PreemptMode::kPartial;
    } else if (arg == "--preempt=fp") {
      cfg.preempt = PreemptMode::kFull;
    } else if (arg == "--engine=switch") {
      cfg.interp_engine = InterpEngine::kSwitch;
    } else if (arg == "--engine=threaded") {
      cfg.interp_engine = InterpEngine::kThreaded;
    } else if (arg == "--engine=jit") {
      cfg.interp_engine = InterpEngine::kJit;
    } else if (arg.rfind("--engine=", 0) == 0) {
      std::fprintf(stderr, "fluke_run: unknown engine '%s'\n", arg.c_str() + 9);
      return 2;
    } else if (arg.rfind("--cpus=", 0) == 0) {
      cfg.num_cpus = static_cast<int>(std::stol(arg.substr(7), nullptr, 0));
    } else if (arg == "--mp-serial") {
      cfg.mp_parallel = false;
    } else if (arg.rfind("--anon=", 0) == 0) {
      anon_bytes = static_cast<uint32_t>(std::stoul(arg.substr(7), nullptr, 0));
    } else if (arg.rfind("--max-ms=", 0) == 0) {
      max_ms = std::stoull(arg.substr(9), nullptr, 0);
    } else if (arg == "--paged") {
      paged = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--ps") {
      ps = true;
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--req-report") {
      req_report = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg.rfind("--trace-bin=", 0) == 0) {
      trace_bin = arg.substr(12);
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      stats_json = arg.substr(13);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg.rfind("--metrics-every=", 0) == 0) {
      metrics_every_ns = std::stoull(arg.substr(16), nullptr, 0);
    } else if (arg == "--flight-recorder") {
      flight_events = size_t{1} << 16;
    } else if (arg.rfind("--flight-recorder=", 0) == 0) {
      flight_events = std::stoull(arg.substr(18), nullptr, 0);
    } else if (arg.rfind("--flight-out=", 0) == 0) {
      flight_out = arg.substr(13);
    } else if (arg.rfind("--trace-cap=", 0) == 0) {
      trace_cap = std::stoull(arg.substr(12), nullptr, 0);
    } else if (arg.rfind("--workload=", 0) == 0) {
      const std::string spec = arg.substr(11);
      if (spec.rfind("rpc", 0) == 0) {
        workload_rpc = true;
        if (spec.size() > 3 && spec[3] == ':') {
          rpc_rounds = static_cast<uint32_t>(std::stoul(spec.substr(4), nullptr, 0));
        }
      } else if (spec.rfind("c1m", 0) == 0) {
        workload_c1m = true;
        if (spec.size() > 3 && spec[3] == ':') {
          c1m_clients = static_cast<uint32_t>(std::stoul(spec.substr(4), nullptr, 0));
        }
      } else {
        std::fprintf(stderr, "fluke_run: unknown workload '%s'\n", spec.c_str());
        return 2;
      }
    } else if (arg.rfind("--ckpt-every=", 0) == 0) {
      ckpt_every_ms = std::stoull(arg.substr(13), nullptr, 0);
    } else if (arg.rfind("--ckpt-dir=", 0) == 0) {
      ckpt_dir = arg.substr(11);
    } else if (arg == "--ckpt-delta") {
      ckpt_delta = true;
    } else if (arg.rfind("--restore=", 0) == 0) {
      restore_dir = arg.substr(10);
    } else if (arg.rfind("--fault-plan=", 0) == 0) {
      std::string err;
      if (!ParseFaultPlan(arg.substr(13), &cfg.fault_plan, &err)) {
        std::fprintf(stderr, "fluke_run: bad --fault-plan: %s\n", err.c_str());
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "fluke_run: unknown option '%s'\n", arg.c_str());
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() && !audit && !workload_rpc && !workload_c1m) {
    return Usage();
  }
  if (!cfg.Valid()) {
    std::fprintf(stderr, "fluke_run: invalid configuration: %s\n", cfg.Validate().c_str());
    return 2;
  }
  if ((ckpt_every_ms != 0 || !restore_dir.empty()) && cfg.num_cpus > 1) {
    std::fprintf(stderr, "fluke_run: checkpointing requires --cpus=1\n");
    return 2;
  }
  if (metrics_every_ns == 0) {
    std::fprintf(stderr, "fluke_run: --metrics-every must be > 0\n");
    return 2;
  }

  if (audit) {
    // The atomicity audit: golden run, then a forced extract-destroy-
    // recreate at every dispatch boundary, requiring bit-identical
    // completion. A divergence is a kernel atomicity bug: exit 4 and dump
    // the diverging kernel so the failing boundary can be replayed with
    // --fault-plan=step,extract=N. With --flight-recorder the diverging
    // run's last events + stats become a postmortem bundle.
    constexpr uint32_t kAuditAnonBase = 0x10000;
    const AuditResult r =
        RunAtomicityAudit(cfg, BuildAuditProgram(kAuditAnonBase), kAuditAnonBase,
                          16 * 1024 * 1024, 60ull * 1000 * 1000 * 1000, flight_events);
    if (!r.ok) {
      std::fprintf(stderr, "fluke_run: atomicity audit FAILED [%s]: %s\n",
                   cfg.Label().c_str(), r.error.c_str());
      std::fputs(r.divergent_dump.c_str(), stderr);
      if (r.flight.captured) {
        WriteFlightBundle(flight_out, r.flight.events, r.flight.end_ns, r.flight.total,
                          r.flight.dropped, r.flight.thread_names, r.flight.stats_json);
      }
      return 4;
    }
    std::fprintf(stderr,
                 "fluke_run: atomicity audit passed [%s]: %llu/%llu boundaries "
                 "bit-identical\n",
                 cfg.Label().c_str(), static_cast<unsigned long long>(r.audited),
                 static_cast<unsigned long long>(r.boundaries));
    return 0;
  }

  ProgramRegistry registry;
  Kernel kernel(cfg, &registry);
  if (trace || profile || req_report || !trace_out.empty() || !trace_bin.empty() ||
      flight_events != 0) {
    // Any trace consumer arms the instrumented loop (a trace-only armed run
    // keeps the syscall fast paths -- the fast handlers carry their own
    // hooks). Snapshot consumers (export/profile/req-report) default to a
    // ring big enough for a whole run; the streaming binary writer needs
    // only a vestigial ring; the flight recorder sizes the ring itself.
    if (trace_cap != 0) {
      kernel.trace.SetCapacity(trace_cap);
    } else if (profile || req_report || !trace_out.empty()) {
      kernel.trace.SetCapacity(size_t{1} << 20);
    } else if (flight_events != 0) {
      kernel.trace.SetCapacity(flight_events);
    } else if (!trace_bin.empty()) {
      kernel.trace.SetCapacity(size_t{1} << 12);
    }
    kernel.trace.Enable();
  }
  TraceBinaryWriter bin_writer;
  if (!trace_bin.empty()) {
    if (!bin_writer.Open(trace_bin)) {
      std::fprintf(stderr, "fluke_run: cannot write '%s'\n", trace_bin.c_str());
      return 1;
    }
    kernel.trace.SetSink(&bin_writer);
  }
  MetricsSampler metrics;
  if (!metrics_out.empty() && !metrics.Open(metrics_out, metrics_every_ns)) {
    std::fprintf(stderr, "fluke_run: cannot write '%s'\n", metrics_out.c_str());
    return 1;
  }
  // Dumps the flight bundle from the live kernel (crash freeze, panic,
  // failed restore). Audit divergences carry their own capture instead.
  auto dump_flight = [&]() {
    if (flight_events == 0) {
      return;
    }
    ++kernel.stats.flight_dumps;
    WriteFlightBundle(flight_out, kernel.trace.Snapshot(), kernel.clock.now(),
                      kernel.trace.total_recorded(), kernel.trace.dropped(),
                      TraceThreadNames(kernel), StatsJson(kernel));
  };

  // Builds the selected workload in `k`; fills `out` with the threads whose
  // completion ends the run and `out_names` with matching labels. Returns 0,
  // or a process exit code on error.
  auto build_workload = [&](Kernel& k, std::vector<Thread*>* out,
                            std::vector<std::string>* out_names) -> int {
    if (workload_rpc) {
      // Under MP, one independent client/server pair per CPU: the round-robin
      // space homing lands each pair on its own CPU, so the epochs genuinely
      // run user bursts in parallel.
      const int pairs = cfg.num_cpus > 1 ? cfg.num_cpus : 1;
      for (int i = 0; i < pairs; ++i) {
        out->push_back(BuildRpcWorkload(k, rpc_rounds));
        out_names->push_back("workload:rpc");
      }
    } else if (workload_c1m) {
      C1mParams cp;
      cp.clients = c1m_clients;
      *out = BuildC1mWorkload(k, cp);
      out_names->assign(out->size(), "workload:c1m");
    } else {
      std::shared_ptr<Space> space;
      if (paged) {
        ManagedSetup m = BuildManagedSpace(k, anon_bytes, "cli");
        k.StartThread(m.manager_thread);
        space = m.child_space;
      } else {
        space = k.CreateSpace("cli");
        space->SetAnonRange(0, anon_bytes);
      }

      for (const std::string& path : files) {
        std::ifstream in(path);
        if (!in) {
          std::fprintf(stderr, "fluke_run: cannot open '%s'\n", path.c_str());
          return 1;
        }
        std::ostringstream src;
        src << in.rdbuf();
        AsmParseResult r = ParseAsm(path, src.str());
        if (r.program == nullptr) {
          std::fprintf(stderr, "fluke_run: %s: %s\n", path.c_str(), r.error.c_str());
          return 1;
        }
        Thread* t = k.CreateThread(space.get(), r.program);
        k.StartThread(t);
        out->push_back(t);
        out_names->push_back(path);
      }
    }
    return 0;
  };

  std::vector<Thread*> threads;
  std::vector<std::string> names;
  if (!restore_dir.empty()) {
    // Recovery: mint the workload's programs in a scratch kernel so the
    // registry can re-bind them by name, then restore the newest complete
    // generation from the store into the real kernel.
    {
      Kernel scratch(cfg);
      std::vector<Thread*> st;
      std::vector<std::string> sn;
      if (const int rc = build_workload(scratch, &st, &sn); rc != 0) {
        return rc;
      }
      for (const auto& sp : scratch.spaces()) {
        if (sp->program != nullptr) {
          registry.Register(sp->program);
        }
      }
      for (const auto& th : scratch.threads()) {
        if (th->program != nullptr) {
          registry.Register(th->program);
        }
      }
    }
    FileCkptStore store(restore_dir);
    MachineImage img;
    uint64_t gen = 0;
    std::string err;
    if (!RecoverLatest(store, &img, &gen, &err)) {
      std::fprintf(stderr, "fluke_run: restore from '%s' failed: %s\n", restore_dir.c_str(),
                   err.c_str());
      dump_flight();
      return 1;
    }
    const MachineRestoreResult r = RestoreMachine(kernel, img, registry, true);
    if (!r.ok) {
      std::fprintf(stderr, "fluke_run: restore from '%s' failed: %s\n", restore_dir.c_str(),
                   r.error.c_str());
      dump_flight();
      return 1;
    }
    std::fprintf(stderr, "fluke_run: restored generation %llu (%zu spaces, %zu threads)\n",
                 static_cast<unsigned long long>(gen), r.spaces.size(), r.threads.size());
    threads = r.threads;
    names.assign(threads.size(), "restored");
  } else if (const int rc = build_workload(kernel, &threads, &names); rc != 0) {
    return rc;
  }
  // Injection begins only now: boot-loader setup is never failed.
  kernel.finj.Arm();

  // Run until every program thread finishes (daemons like the pager run
  // forever) or the virtual-time budget expires. With --ckpt-every the run is
  // sliced at checkpoint instants: a short serial mark phase flips pages, then
  // the kernel keeps executing while the drain ktask copies them out; a
  // finished capture is committed (image first, restart-log record second)
  // before the next one begins. A crash mid-capture commits nothing -- the
  // marks are abandoned and recovery falls back to the previous generation.
  const Time deadline = kernel.clock.now() + max_ms * kNsPerMs;
  ConcurrentCkpt cc;
  bool cc_delta = false;
  uint32_t prev_gen = 0;
  uint64_t prev_digest = 0;
  uint64_t next_gen = 1;
  FileCkptStore store(ckpt_dir);
  const Time ckpt_every_ns = ckpt_every_ms * kNsPerMs;
  Time next_ckpt = ckpt_every_ns != 0 ? kernel.clock.now() + ckpt_every_ns : 0;
  Time next_metric = metrics.open() ? metrics.next_due(kernel.clock.now()) : 0;
  auto commit_capture = [&]() -> bool {
    MachineImage img = cc.Finish();
    img.generation = static_cast<uint32_t>(next_gen);
    if (cc_delta) {
      img.base_generation = prev_gen;
      img.parent_digest = prev_digest;
    } else {
      img.base_generation = 0;
      img.parent_digest = 0;
    }
    const std::vector<uint8_t> bytes = SerializeMachine(img);
    if (!CommitGeneration(store, next_gen, bytes)) {
      std::fprintf(stderr, "fluke_run: cannot write checkpoint generation %llu to '%s'\n",
                   static_cast<unsigned long long>(next_gen), ckpt_dir.c_str());
      return false;
    }
    prev_gen = img.generation;
    prev_digest = ImageDigest(bytes);
    ++next_gen;
    return true;
  };
  size_t ti = 0;
  while (ti < threads.size() && !kernel.crashed()) {
    if (cc.active() && cc.done() && !commit_capture()) {
      return 1;
    }
    if (ckpt_every_ns != 0 && !cc.active() && kernel.clock.now() >= next_ckpt) {
      std::string err;
      const bool delta = ckpt_delta && kernel.stats.ckpt_generations > 0;
      if (cc.Begin(kernel, delta, &err)) {
        cc_delta = delta;
      } else {
        std::fprintf(stderr, "fluke_run: checkpoint skipped: %s\n", err.c_str());
      }
      next_ckpt += ckpt_every_ns;
    }
    if (metrics.open() && kernel.clock.now() >= next_metric) {
      // One row per crossing; a long burst past several boundaries yields
      // one row at the actual time rather than duplicate back-filled rows.
      metrics.Sample(kernel);
      next_metric = metrics.next_due(kernel.clock.now());
    }
    if (kernel.clock.now() >= deadline) {
      break;
    }
    // Slice at the next checkpoint / metrics instant; if that instant is
    // already past (a capture is still draining), poll in 1 ms slices.
    Time target = deadline;
    if (ckpt_every_ns != 0) {
      target = std::min<Time>(deadline,
                              std::max<Time>(next_ckpt, kernel.clock.now() + kNsPerMs));
    }
    if (metrics.open()) {
      target = std::min<Time>(target, next_metric);
    }
    if (kernel.RunUntilThreadDone(threads[ti], target - kernel.clock.now())) {
      ++ti;
    }
  }
  if (cc.active() && !kernel.crashed()) {
    kernel.CkptDrainAll();
    if (!commit_capture()) {
      return 1;
    }
  }
  std::fputs(kernel.console.output().c_str(), stdout);

  int rc = 0;
  if (kernel.crashed()) {
    std::fprintf(stderr, "fluke_run: kernel froze at injected crash boundary %llu\n",
                 static_cast<unsigned long long>(cfg.fault_plan.crash_at));
  }
  // Finalize the observability outputs before any stats dump so the
  // schema-2 counters (trace_bin_*, metrics_samples, flight_dumps) reflect
  // what was actually written.
  if (metrics.open()) {
    metrics.Sample(kernel);  // final row at end-of-run time
    kernel.stats.metrics_samples = metrics.samples();
    if (!metrics.Close()) {
      std::fprintf(stderr, "fluke_run: error writing '%s'\n", metrics_out.c_str());
      rc = 1;
    }
  }
  if (bin_writer.open()) {
    kernel.trace.SetSink(nullptr);
    if (!bin_writer.Finish(kernel.clock.now(), kernel.trace.total_recorded(),
                           kernel.trace.dropped(), TraceThreadNames(kernel))) {
      std::fprintf(stderr, "fluke_run: error writing '%s'\n", trace_bin.c_str());
      rc = 1;
    }
    kernel.stats.trace_bin_chunks = bin_writer.chunks_written();
    kernel.stats.trace_bin_bytes = bin_writer.bytes_written();
  }
  if (kernel.crashed() || kernel.stats.panics != 0) {
    dump_flight();
  }
  for (size_t i = 0; i < threads.size(); ++i) {
    if (threads[i]->run_state != ThreadRun::kDead) {
      std::fprintf(stderr, "fluke_run: %s: thread still %s at the time budget\n",
                   names[i].c_str(), ThreadRunName(threads[i]->run_state));
      rc = 3;
    } else if (threads[i]->exit_code != 0) {
      std::fprintf(stderr, "fluke_run: %s: exit code %u\n", names[i].c_str(),
                   threads[i]->exit_code);
      rc = 1;
    }
  }
  if (stats) {
    const KernelStats& s = kernel.stats;
    std::fprintf(stderr,
                 "[%s] virtual time %.3f ms | %llu syscalls (%llu restarts) | "
                 "%llu context switches | faults: %llu soft, %llu hard | "
                 "fast path: %llu entries, %llu ipc handoffs\n",
                 cfg.Label().c_str(), static_cast<double>(kernel.clock.now()) / kNsPerMs,
                 static_cast<unsigned long long>(s.syscalls),
                 static_cast<unsigned long long>(s.syscall_restarts),
                 static_cast<unsigned long long>(s.context_switches),
                 static_cast<unsigned long long>(s.soft_faults),
                 static_cast<unsigned long long>(s.hard_faults),
                 static_cast<unsigned long long>(s.syscall_fast_entries),
                 static_cast<unsigned long long>(s.ipc_fast_handoffs));
    std::fprintf(stderr,
                 "  engine: %s | %llu instrs | interp: %llu block charges, "
                 "%llu predecodes | jit: %llu compiles, %llu block entries, "
                 "%llu deopts, %llu bytes\n",
                 InterpEngineName(cfg.EffectiveEngine()),
                 static_cast<unsigned long long>(s.user_instructions),
                 static_cast<unsigned long long>(s.interp_block_charges),
                 static_cast<unsigned long long>(s.interp_predecodes),
                 static_cast<unsigned long long>(s.jit_compiles),
                 static_cast<unsigned long long>(s.jit_block_entries),
                 static_cast<unsigned long long>(s.jit_deopts),
                 static_cast<unsigned long long>(s.jit_bytes));
    std::fprintf(stderr,
                 "  timers: %llu arms, %llu cancels, %llu cascades | "
                 "slab: %llu thread allocs | sched: %llu bitmap scans\n",
                 static_cast<unsigned long long>(s.timer_arms),
                 static_cast<unsigned long long>(s.timer_cancels),
                 static_cast<unsigned long long>(s.timer_cascades),
                 static_cast<unsigned long long>(s.slab_thread_allocs),
                 static_cast<unsigned long long>(s.sched_bitmap_scans));
    if (cfg.num_cpus > 1) {
      std::fprintf(stderr,
                   "  mp: %d cpus (%s) | %llu epochs | %llu cross-cpu ipc | "
                   "%llu migrations | %llu remote shootdowns | %llu pool rounds | "
                   "%llu inline rounds | %llu barrier waits | digest %016llx\n",
                   cfg.num_cpus, cfg.mp_parallel ? "parallel" : "serial",
                   static_cast<unsigned long long>(s.mp_epochs),
                   static_cast<unsigned long long>(s.cross_cpu_ipc),
                   static_cast<unsigned long long>(s.migrations),
                   static_cast<unsigned long long>(s.shootdowns_remote),
                   static_cast<unsigned long long>(s.mp_pool_rounds),
                   static_cast<unsigned long long>(s.mp_inline_rounds),
                   static_cast<unsigned long long>(s.mp_barrier_waits),
                   static_cast<unsigned long long>(kernel.MpDigest()));
      for (const Cpu& c : kernel.cpus()) {
        std::fprintf(stderr, "    cpu%d: %llu dispatches, %llu bursts\n", c.id,
                     static_cast<unsigned long long>(c.dispatches),
                     static_cast<unsigned long long>(c.bursts));
      }
    }
    if (workload_c1m && c1m_clients != 0 && kernel.clock.now() != 0) {
      std::fprintf(stderr,
                   "  c1m: %u clients | %.1f blocked bytes/thread (peak) | "
                   "%.0f wakeups/vsec\n",
                   c1m_clients,
                   static_cast<double>(s.blocked_frame_bytes_peak) / c1m_clients,
                   static_cast<double>(s.context_switches) * 1e9 /
                       static_cast<double>(kernel.clock.now()));
    }
    if (!s.probe_hist.empty()) {
      std::fprintf(stderr, "  probe latency:  p50=%lluns p95=%lluns max=%lluns (%llu runs)\n",
                   static_cast<unsigned long long>(s.ProbeP50()),
                   static_cast<unsigned long long>(s.ProbeP95()),
                   static_cast<unsigned long long>(s.ProbeMax()),
                   static_cast<unsigned long long>(s.probe_runs));
    }
    if (!s.block_hist.empty()) {
      std::fprintf(stderr, "  block duration: p50=%lluns p95=%lluns max=%lluns (%llu blocks)\n",
                   static_cast<unsigned long long>(s.block_hist.Percentile(0.50)),
                   static_cast<unsigned long long>(s.block_hist.Percentile(0.95)),
                   static_cast<unsigned long long>(s.block_hist.Max()),
                   static_cast<unsigned long long>(s.block_hist.count));
    }
    if (s.ckpt_generations != 0) {
      std::fprintf(stderr,
                   "  ckpt: %llu generations | pages: %llu full, %llu delta | "
                   "%llu mark flips | %llu cow saves\n",
                   static_cast<unsigned long long>(s.ckpt_generations),
                   static_cast<unsigned long long>(s.ckpt_pages_full),
                   static_cast<unsigned long long>(s.ckpt_pages_delta),
                   static_cast<unsigned long long>(s.ckpt_mark_pages),
                   static_cast<unsigned long long>(s.ckpt_cow_saves));
      if (!s.ckpt_pause_hist.empty()) {
        std::fprintf(stderr,
                     "  ckpt pause:     p50=%lluns p95=%lluns max=%lluns (%llu pauses)\n",
                     static_cast<unsigned long long>(s.ckpt_pause_hist.Percentile(0.50)),
                     static_cast<unsigned long long>(s.ckpt_pause_hist.Percentile(0.95)),
                     static_cast<unsigned long long>(s.ckpt_pause_hist.Max()),
                     static_cast<unsigned long long>(s.ckpt_pause_hist.count));
      }
    }
  }
  if (trace) {
    std::fputs(kernel.trace.Dump().c_str(), stderr);
  }
  if (profile) {
    const std::vector<TraceEvent> events = kernel.trace.Snapshot();
    std::fputs(RenderProfile(BuildProfile(events, kernel.clock.now(), kernel.trace.dropped()))
                   .c_str(),
               stdout);
    std::fprintf(stdout, "trace digest: %016llx (%llu events)\n",
                 static_cast<unsigned long long>(TraceDigest(events)),
                 static_cast<unsigned long long>(events.size()));
  }
  if (req_report) {
    const std::vector<TraceEvent> events = kernel.trace.Snapshot();
    std::fputs(
        RenderReqReport(BuildReqReport(events, kernel.clock.now(), kernel.trace.dropped()))
            .c_str(),
        stdout);
  }
  if (!trace_out.empty() && !WriteFile(trace_out, ExportChromeTrace(kernel))) {
    return 1;
  }
  if (!stats_json.empty() && !WriteFile(stats_json, StatsJson(kernel))) {
    return 1;
  }
  if (ps || rc == 3) {
    // On a hang (budget overrun), the dump names every thread's committed
    // restart point -- the atomic API's debugging dividend.
    std::fputs(DumpKernel(kernel).c_str(), stderr);
  }
  return rc;
}

}  // namespace
}  // namespace fluke

int main(int argc, char** argv) { return fluke::Main(argc, argv); }
