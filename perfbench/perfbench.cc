// perfbench: host cost of whole simulator scenarios, end to end and per layer.
//
// Usage:
//   perfbench --workload=c1m|apps|mp4|armed --seed=N --seconds=S [--trace]
//             [--work=DIR]
//
// Repeats one workload's scenario until S seconds of repetitions have run
// (at least kMinReps), after kWarmupSeconds of untimed warm-up repetitions.
// Prints one JSON object per repetition on stdout; perfbench/run.py checks
// those records against perfbench/expected.json and reduces them to medians.
//
// Every layer is timed from outside, around this file's own calls into the
// simulator's public functions (Kernel construction, Build*Workload,
// Kernel::RunUntilThreadDone, Run{Memtest,Flukeperf,Gcc}, ConcurrentCkpt
// Begin/Finish, SerializeMachine, CommitGeneration, RecoverLatest,
// RestoreMachine, TraceBinaryWriter::Finish and Kernel destruction). With
// --trace, repetitions alternate untraced/traced; a traced repetition also
// records a span (name, start, end, parent, KernelStats deltas) at each of
// those calls, keeps the spans in memory and writes them to
// DIR/spans-<workload>-<seed>.json when the run ends.
//
// The seed never changes simulated inputs -- those are fixed by the
// workload name. It permutes the apps configuration x application order of
// each repetition and picks which of a traced/untraced pair runs first.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/kern/kernel.h"
#include "src/kern/trace_binary.h"
#include "src/uvm/program.h"
#include "src/workloads/apps.h"
#include "src/workloads/checkpoint.h"
#include "src/workloads/ckpt_image.h"
#include "src/workloads/restart_log.h"

namespace fluke {
namespace {

constexpr int kMinReps = 1;
constexpr double kWarmupSeconds = 1.5;
constexpr uint64_t kMaxMs = 10000;  // fluke_run's default --max-ms budget

// ---------------------------------------------------------------------------
// Host clocks and process memory.
// ---------------------------------------------------------------------------

double WallNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Reads a "Key:   N kB" line of /proc/self/status, in MB.
double StatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double RssMb() { return StatusMb("VmRSS"); }
double HwmMb() { return StatusMb("VmHWM"); }

// Resets VmHWM to the current RSS, so the next HwmMb() is this
// repetition's own high-water mark.
bool ResetHwm() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// An insertion-ordered flat JSON object of numbers and strings. Numbers are
// kept as doubles, which hold every count and nanosecond time here exactly.
class JsonObj {
 public:
  void Add(const std::string& k, double v) { items_.push_back({k, v, {}, false}); }
  void AddStr(const std::string& k, const std::string& v) { items_.push_back({k, 0, v, true}); }
  // Adds to a numeric entry, creating it at zero.
  void Accumulate(const std::string& k, double v) {
    for (Item& it : items_) {
      if (it.key == k) {
        it.num += v;
        return;
      }
    }
    Add(k, v);
  }
  std::string Str() const {
    std::string o = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      const Item& it = items_[i];
      o += (i ? ", " : "") + Quote(it.key) + ": " + (it.is_str ? Quote(it.str) : Num(it.num));
    }
    return o + "}";
  }

 private:
  struct Item {
    std::string key;
    double num;
    std::string str;
    bool is_str;
  };
  std::vector<Item> items_;
};

// ---------------------------------------------------------------------------
// Spans: one per benchmark call into the simulator, traced repetitions only.
// ---------------------------------------------------------------------------

// The KernelStats counters snapshotted at every span boundary.
struct StatMark {
  uint64_t syscalls = 0, instrs = 0, switches = 0, faults = 0, timer_arms = 0;

  static StatMark Of(const KernelStats& s) {
    return {s.syscalls, s.user_instructions, s.context_switches, s.soft_faults + s.hard_faults,
            s.timer_arms};
  }
};

struct Span {
  std::string name;
  double start = 0, end = 0;
  int parent = -1;
  int rep = 0;
  bool has_stats = false;
  StatMark delta;
};

class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void set_rep(int rep) { rep_ = rep; }

  int Open(const char* name, double start) {
    spans_.push_back({name, start, 0, stack_.empty() ? -1 : stack_.back(), rep_, false, {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int id, double end, const StatMark* delta) {
    spans_[id].end = end;
    if (delta != nullptr) {
      spans_[id].has_stats = true;
      spans_[id].delta = *delta;
    }
    stack_.pop_back();
  }

  // Per-name self time (duration minus the part covered by child spans),
  // in seconds, over the spans of repetition `rep`.
  std::vector<std::pair<std::string, double>> SelfTimes(int rep) const {
    std::vector<double> self(spans_.size(), 0.0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].rep != rep) {
        continue;
      }
      self[i] += spans_[i].end - spans_[i].start;
      if (spans_[i].parent >= 0) {
        self[spans_[i].parent] -= spans_[i].end - spans_[i].start;
      }
    }
    std::vector<std::pair<std::string, double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].rep != rep) {
        continue;
      }
      auto it = std::find_if(out.begin(), out.end(),
                             [&](const auto& p) { return p.first == spans_[i].name; });
      if (it == out.end()) {
        out.emplace_back(spans_[i].name, self[i]);
      } else {
        it->second += self[i];
      }
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": " << Quote(s.name) << ", \"rep\": " << s.rep
          << ", \"parent\": " << s.parent << ", \"start_s\": " << Num(s.start)
          << ", \"end_s\": " << Num(s.end);
      if (s.has_stats) {
        out << ", \"stats\": {\"syscalls\": " << s.delta.syscalls
            << ", \"instrs\": " << s.delta.instrs << ", \"switches\": " << s.delta.switches
            << ", \"faults\": " << s.delta.faults << ", \"timer_arms\": " << s.delta.timer_arms
            << "}";
      }
      out << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool on_ = false;
  int rep_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

// Times one call into the simulator: returns its wall seconds, and on a
// traced repetition records its span (with KernelStats deltas when `stats`
// is given; the pointer must stay valid for the scope's lifetime).
class Timed {
 public:
  explicit Timed(const char* name, const KernelStats* stats = nullptr) : stats_(stats) {
    if (stats_ != nullptr && g_tracer.on()) {
      before_ = StatMark::Of(*stats_);
    }
    start_ = WallNow();
    if (g_tracer.on()) {
      id_ = g_tracer.Open(name, start_);
    }
  }
  ~Timed() { Stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double Stop() {
    if (end_ == 0) {
      end_ = WallNow();
      if (id_ >= 0) {
        StatMark d;
        if (stats_ != nullptr) {
          const StatMark a = StatMark::Of(*stats_);
          d = {a.syscalls - before_.syscalls, a.instrs - before_.instrs,
               a.switches - before_.switches, a.faults - before_.faults,
               a.timer_arms - before_.timer_arms};
        }
        g_tracer.Close(id_, end_, stats_ != nullptr ? &d : nullptr);
      }
    }
    return end_ - start_;
  }

 private:
  const KernelStats* stats_;
  StatMark before_;
  double start_ = 0, end_ = 0;
  int id_ = -1;
};

// ---------------------------------------------------------------------------
// One repetition's record.
// ---------------------------------------------------------------------------

struct Rep {
  int index = 0;
  bool warmup = false;
  bool traced = false;
  bool mp_serial = false;  // run the serial MP backend (mp4's first warm-up)
  uint64_t attempted = 0;
  std::vector<std::string> errors;  // failed operations, one line each
  JsonObj e2e;                      // end-to-end metrics of this repetition
  JsonObj layer;                    // per-layer metrics of this repetition
  JsonObj oracle;                   // virtual-time results, checked by run.py

  void Fail(const std::string& what) { errors.push_back(what); }
};

// Checks the completion threads exactly as fluke_run's exit status does.
void CheckDone(Rep& r, const std::vector<Thread*>& threads, const char* what) {
  for (size_t i = 0; i < threads.size(); ++i) {
    if (threads[i]->run_state != ThreadRun::kDead) {
      r.Fail(std::string(what) + ": completion thread " + std::to_string(i) + " still " +
             ThreadRunName(threads[i]->run_state) + " at the time budget");
      return;
    }
    if (threads[i]->exit_code != 0) {
      r.Fail(std::string(what) + ": completion thread " + std::to_string(i) + " exit code " +
             std::to_string(threads[i]->exit_code));
      return;
    }
  }
}

void AddOracle(Rep& r, const std::string& prefix, Time end_ns, const KernelStats& s) {
  r.oracle.Add(prefix + "end_ns", static_cast<double>(end_ns));
  r.oracle.Add(prefix + "syscalls", static_cast<double>(s.syscalls));
  r.oracle.Add(prefix + "switches", static_cast<double>(s.context_switches));
  r.oracle.Add(prefix + "instrs", static_cast<double>(s.user_instructions));
  r.oracle.Add(prefix + "soft_faults", static_cast<double>(s.soft_faults));
  r.oracle.Add(prefix + "hard_faults", static_cast<double>(s.hard_faults));
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The KernelStats-derived per-layer counters (accumulated: apps sums its
// fifteen runs).
void AddStatsLayers(Rep& r, const KernelStats& s) {
  auto acc = [&](const char* k, uint64_t v) { r.layer.Accumulate(k, static_cast<double>(v)); };
  acc("uvm.instrs", s.user_instructions);
  acc("uvm.block_charges", s.interp_block_charges);
  acc("uvm.jit_entries", s.jit_block_entries);
  acc("uvm.jit_deopts", s.jit_deopts);
  acc("kern.syscall.count", s.syscalls);
  acc("kern.syscall.restarts", s.syscall_restarts);
  acc("kern.syscall.fast", s.syscall_fast_entries);
  acc("kern.ipc.handoffs", s.ipc_fast_handoffs);
  acc("kern.ipc.page_lends", s.ipc_page_lends);
  acc("kern.ipc.copy_faults", s.syscall_faults);
  acc("kern.fault.soft", s.soft_faults);
  acc("kern.fault.hard", s.hard_faults);
  acc("kern.tlb.hits", s.tlb_hits);
  acc("kern.tlb.misses", s.tlb_misses);
  acc("kern.sched.switches", s.context_switches);
  acc("kern.sched.picks", s.sched_bitmap_scans);
  acc("kern.timer.arms", s.timer_arms);
  acc("kern.timer.cancels", s.timer_cancels);
  acc("kern.timer.cascades", s.timer_cascades);
  acc("kern.mp.epochs", s.mp_epochs);
  acc("kern.mp.barrier_waits", s.mp_barrier_waits);
  acc("kern.mp.cross_cpu_ipc", s.cross_cpu_ipc);
  acc("kern.mp.migrations", s.migrations);
  acc("ckpt.generations", s.ckpt_generations);
  acc("ckpt.pages_full", s.ckpt_pages_full);
  acc("ckpt.pages_delta", s.ckpt_pages_delta);
  acc("ckpt.cow_saves", s.ckpt_cow_saves);
}

// Set-up, run and teardown of one kernel-visible scenario (c1m, mp4 and
// the capture phase of armed), timed call by call.
struct Scenario {
  ProgramRegistry registry;
  std::unique_ptr<Kernel> kernel;
  std::vector<Thread*> threads;
  uint64_t run_calls = 0;  // RunUntilThreadDone calls that advanced time
};

void SetUp(Scenario& sc, const KernelConfig& cfg, uint32_t clients, Rep& r,
           const std::function<void(Kernel&)>& arm = nullptr) {
  double setup = 0;
  {
    Timed t("setup.kernel");
    sc.kernel = std::make_unique<Kernel>(cfg, &sc.registry);
    if (arm) {
      arm(*sc.kernel);
    }
    setup += t.Stop();
  }
  {
    Timed t("setup.build", &sc.kernel->stats);
    C1mParams cp;
    cp.clients = clients;
    sc.threads = BuildC1mWorkload(*sc.kernel, cp);
    sc.kernel->finj.Arm();  // as fluke_run: injection (none here) starts after set-up
    setup += t.Stop();
  }
  const double threads = static_cast<double>(sc.kernel->threads().size());
  r.e2e.Add("setup_s", setup);
  r.layer.Add("setup.threads", threads);
  r.layer.Add("setup.ns_per_thread", Ratio(setup * 1e9, threads));
}

// One RunUntilThreadDone slice, as fluke_run issues it.
bool RunSlice(Scenario& sc, Thread* t, Time max_time) {
  Kernel& k = *sc.kernel;
  const Time before = k.clock.now();
  Timed span("run", &k.stats);
  const bool done = k.RunUntilThreadDone(t, max_time);
  if (k.clock.now() != before) {
    ++sc.run_calls;
  }
  return done;
}

void TearDown(Scenario& sc) {
  Timed t("teardown");
  sc.kernel.reset();
}

void AddRunLayers(Rep& r, const Scenario& sc, double run_s) {
  const Kernel& k = *sc.kernel;
  r.layer.Add("run.calls", static_cast<double>(sc.run_calls));
  r.layer.Add("run.vms", static_cast<double>(k.clock.now()) / kNsPerMs);
  r.layer.Add("run.ns_per_syscall", Ratio(run_s * 1e9, static_cast<double>(k.stats.syscalls)));
  r.layer.Add("mem.frames", k.phys.allocated_frames());
  uint64_t bursts = 0;
  for (const Cpu& c : k.cpus()) {
    bursts += c.bursts;
  }
  r.layer.Add("kern.mp.bursts", static_cast<double>(bursts));
  AddStatsLayers(r, k.stats);
}

// ---------------------------------------------------------------------------
// Workloads. Each fills one Rep; the caller wraps it in memory accounting.
// ---------------------------------------------------------------------------

// c1m and mp4: fluke_run --workload=c1m:N [--cpus=C] with no slicing flags,
// i.e. one RunUntilThreadDone per completion thread up to the budget.
void C1mRep(Rep& r, uint32_t clients, int cpus, bool parallel) {
  KernelConfig cfg;
  cfg.num_cpus = cpus;
  cfg.mp_parallel = parallel;
  Scenario sc;
  SetUp(sc, cfg, clients, r);
  Kernel& k = *sc.kernel;
  const double w0 = WallNow(), c0 = CpuNow();
  const Time deadline = k.clock.now() + kMaxMs * kNsPerMs;
  for (size_t ti = 0; ti < sc.threads.size() && k.clock.now() < deadline;) {
    if (RunSlice(sc, sc.threads[ti], deadline - k.clock.now())) {
      ++ti;
    }
  }
  const double run_s = WallNow() - w0, cpu_s = CpuNow() - c0;
  r.attempted += 1;
  CheckDone(r, sc.threads, "scenario");
  r.e2e.Add("host_s", run_s);
  r.e2e.Add("cpu_s", cpu_s);
  AddRunLayers(r, sc, run_s);
  r.layer.Add("kern.mp.cpu_per_wall", Ratio(cpu_s, run_s));
  AddOracle(r, "", k.clock.now(), k.stats);
  if (cpus > 1) {
    r.oracle.AddStr("mp_digest", Hex(k.MpDigest()));
  }
  TearDown(sc);
}

// apps: the Table 5 grid, memtest/flukeperf/gcc over the five paper
// configurations at paper scale, in a seed-permuted order.
void AppsRep(Rep& r, std::mt19937_64& rng) {
  constexpr const char* kApps[3] = {"memtest", "flukeperf", "gcc"};
  constexpr const char* kSpans[3] = {"apps.memtest", "apps.flukeperf", "apps.gcc"};
  std::vector<std::pair<int, int>> order;
  for (int c = 0; c < kNumPaperConfigs; ++c) {
    for (int a = 0; a < 3; ++a) {
      order.emplace_back(c, a);
    }
  }
  std::shuffle(order.begin(), order.end(), rng);

  // Each Run* builds its own kernel, so most of its set-up is inside
  // host_s. setup_s is the part visible from outside: one bare Kernel
  // construction per paper configuration, in place as Run* constructs it,
  // averaged over kSetupRounds rounds after kSetupWarmRounds untimed ones.
  // One such set runs before each Run* call, outside host_s, and setup_s is
  // their median: a set takes about a millisecond, so sets taken back to
  // back would all sample the same moment of the host.
  constexpr int kSetupWarmRounds = 20;
  constexpr int kSetupRounds = 100;
  std::vector<KernelConfig> configs;
  for (int c = 0; c < kNumPaperConfigs; ++c) {
    configs.push_back(PaperConfig(c));
  }
  std::vector<double> sets;
  auto setup_set = [&] {
    double set = 0;
    for (int round = 0; round < kSetupWarmRounds + kSetupRounds; ++round) {
      for (const KernelConfig& cfg : configs) {
        std::optional<Kernel> k;
        Timed t("setup.kernel");
        k.emplace(cfg);
        const double s = t.Stop();
        if (round >= kSetupWarmRounds) {
          set += s;
        }
        Timed td("teardown");
        k.reset();
      }
    }
    sets.push_back(set / kSetupRounds);
  };

  double app_s[3] = {0, 0, 0};
  double run_s = 0, cpu_s = 0;
  double memtest_instrs = 0, syscalls = 0, vms = 0;
  for (const auto& [c, a] : order) {
    setup_set();
    const KernelConfig& cfg = configs[c];
    AppResult res;
    double s = 0;
    const double c0 = CpuNow();
    {
      Timed t(kSpans[a]);
      res = a == 0 ? RunMemtest(cfg) : a == 1 ? RunFlukeperf(cfg) : RunGcc(cfg);
      s = t.Stop();
    }
    cpu_s += CpuNow() - c0;
    run_s += s;
    app_s[a] += s;
    const std::string key = cfg.Label() + "." + kApps[a];
    r.attempted += 1;
    if (!res.completed) {
      r.Fail(key + ": did not complete within its budget");
    }
    AddOracle(r, key + ".", res.elapsed_ns, res.stats);
    AddStatsLayers(r, res.stats);
    syscalls += static_cast<double>(res.stats.syscalls);
    vms += static_cast<double>(res.elapsed_ns) / kNsPerMs;
    if (a == 0) {
      memtest_instrs += static_cast<double>(res.stats.user_instructions);
    }
  }
  r.e2e.Add("setup_s", Median(sets));
  r.e2e.Add("host_s", run_s);
  r.e2e.Add("cpu_s", cpu_s);
  r.layer.Add("apps.memtest_s", app_s[0]);
  r.layer.Add("apps.flukeperf_s", app_s[1]);
  r.layer.Add("apps.gcc_s", app_s[2]);
  r.layer.Add("uvm.ns_per_instr", Ratio(app_s[0] * 1e9, memtest_instrs));
  r.layer.Add("run.calls", static_cast<double>(order.size()));
  r.layer.Add("run.vms", vms);
  r.layer.Add("run.ns_per_syscall", Ratio(run_s * 1e9, syscalls));
  r.layer.Add("kern.mp.cpu_per_wall", Ratio(cpu_s, run_s));
}

// armed: fluke_run --workload=c1m:N --ckpt-every=100 --ckpt-delta
// --trace-bin=FILE (capture phase), then fluke_run --workload=c1m:N
// --restore=DIR in a fresh kernel (restore phase).
void ArmedRep(Rep& r, uint32_t clients, const std::string& work) {
  constexpr uint64_t kCkptEveryMs = 100;
  const std::string dir = work + "/ckpt";
  const std::string fbt = work + "/armed.fbt";
  {
    Timed t("bench.files");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }

  KernelConfig cfg;
  TraceBinaryWriter bin;
  bool bin_ok = true;
  Scenario sc;
  SetUp(sc, cfg, clients, r, [&](Kernel& k) {
    k.trace.SetCapacity(size_t{1} << 12);  // fluke_run's vestigial ring for --trace-bin
    k.trace.Enable();
    bin_ok = bin.Open(fbt);
    k.trace.SetSink(&bin);
  });
  if (!bin_ok) {
    r.Fail("scenario: cannot open " + fbt);
  }
  Kernel& k = *sc.kernel;

  // The capture phase: fluke_run's checkpoint loop, call for call.
  double image_bytes = 0;
  std::vector<double> begins, finishes, serializes, commits;
  std::string digests;
  const double w0 = WallNow(), c0 = CpuNow();
  const Time deadline = k.clock.now() + kMaxMs * kNsPerMs;
  const Time every = kCkptEveryMs * kNsPerMs;
  ConcurrentCkpt cc;
  FileCkptStore store(dir);
  bool cc_delta = false, commit_failed = false;
  uint32_t prev_gen = 0;
  uint64_t prev_digest = 0, next_gen = 1;
  Time next_ckpt = k.clock.now() + every;
  auto commit_capture = [&]() -> bool {
    MachineImage img;
    {
      Timed t("ckpt.finish", &k.stats);
      img = cc.Finish();
      finishes.push_back(t.Stop());
    }
    img.generation = static_cast<uint32_t>(next_gen);
    img.base_generation = cc_delta ? prev_gen : 0;
    img.parent_digest = cc_delta ? prev_digest : 0;
    std::vector<uint8_t> bytes;
    {
      Timed t("ckpt.serialize");
      bytes = SerializeMachine(img);
      serializes.push_back(t.Stop());
    }
    image_bytes += static_cast<double>(bytes.size());
    r.attempted += 1;
    bool ok = false;
    {
      Timed t("ckpt.commit");
      ok = CommitGeneration(store, next_gen, bytes);
      commits.push_back(t.Stop());
    }
    if (!ok) {
      r.Fail("commit " + std::to_string(next_gen) + ": CommitGeneration failed");
      return false;
    }
    prev_gen = img.generation;
    {
      Timed t("ckpt.digest");
      prev_digest = ImageDigest(bytes);
    }
    if (!digests.empty()) {
      digests += ',';
    }
    digests += Hex(prev_digest);
    ++next_gen;
    return true;
  };
  size_t ti = 0;
  while (ti < sc.threads.size() && !k.crashed()) {
    if (cc.active() && cc.done() && !commit_capture()) {
      commit_failed = true;
      break;
    }
    if (!cc.active() && k.clock.now() >= next_ckpt) {
      std::string err;
      const bool delta = k.stats.ckpt_generations > 0;
      Timed t("ckpt.begin", &k.stats);
      if (cc.Begin(k, delta, &err)) {
        cc_delta = delta;
      } else {
        std::fprintf(stderr, "perfbench: checkpoint skipped: %s\n", err.c_str());
      }
      begins.push_back(t.Stop());
      next_ckpt += every;
    }
    if (k.clock.now() >= deadline) {
      break;
    }
    const Time target =
        std::min<Time>(deadline, std::max<Time>(next_ckpt, k.clock.now() + kNsPerMs));
    if (RunSlice(sc, sc.threads[ti], target - k.clock.now())) {
      ++ti;
    }
  }
  if (!commit_failed && cc.active() && !k.crashed()) {
    {
      Timed t("ckpt.drain", &k.stats);
      k.CkptDrainAll();
    }
    commit_capture();
  }
  double trace_finish_s = 0;
  {
    k.trace.SetSink(nullptr);
    Timed t("trace.finish");
    if (!bin.Finish(k.clock.now(), k.trace.total_recorded(), k.trace.dropped(),
                    TraceThreadNames(k))) {
      r.Fail("scenario: TraceBinaryWriter::Finish failed");
    }
    trace_finish_s = t.Stop();
  }
  const double run_s = WallNow() - w0, cpu_s = CpuNow() - c0;
  r.attempted += 1;
  CheckDone(r, sc.threads, "scenario");
  r.e2e.Add("host_s", run_s);
  r.e2e.Add("cpu_s", cpu_s);
  AddRunLayers(r, sc, run_s);
  r.layer.Add("kern.mp.cpu_per_wall", Ratio(cpu_s, run_s));
  AddOracle(r, "capture.", k.clock.now(), k.stats);
  r.oracle.Add("capture.generations", static_cast<double>(k.stats.ckpt_generations));
  r.oracle.AddStr("capture.image_digests", digests);
  r.oracle.Add("trace.events", static_cast<double>(bin.events_written()));
  r.oracle.Add("trace.bin_bytes", static_cast<double>(bin.bytes_written()));

  r.layer.Add("kern.trace.events", static_cast<double>(bin.events_written()));
  r.layer.Add("kern.trace.bin_bytes", static_cast<double>(bin.bytes_written()));
  r.layer.Add("kern.trace.bytes_per_event",
              Ratio(static_cast<double>(bin.bytes_written()),
                    static_cast<double>(bin.events_written())));
  r.layer.Add("kern.trace.finish_ms", trace_finish_s * 1e3);
  r.layer.Add("ckpt.begin_us", Median(begins) * 1e6);
  r.layer.Add("ckpt.finish_ms", Median(finishes) * 1e3);
  r.layer.Add("ckpt.serialize_ms", Median(serializes) * 1e3);
  r.layer.Add("ckpt.commit_ms", Median(commits) * 1e3);
  double stages_s = 0;
  for (const auto* v : {&begins, &finishes, &serializes, &commits}) {
    stages_s = std::accumulate(v->begin(), v->end(), stages_s);
  }
  r.layer.Add("ckpt.stage_total_ms", stages_s * 1e3);
  r.layer.Add("ckpt.image_mb", image_bytes / (1024.0 * 1024.0));
  TearDown(sc);
  {
    Timed t("bench.files");
    std::filesystem::remove(fbt);
  }

  // The restore phase: fluke_run --restore. Programs are minted in a
  // scratch kernel so the registry can re-bind them by name. Its set-up,
  // the scratch kernel's construction and build plus the restored kernel's
  // construction, counts in setup_s with the capture phase's.
  ProgramRegistry registry;
  double restore_setup = 0;
  {
    std::optional<Kernel> scratch;
    {
      Timed t("setup.kernel");
      scratch.emplace(cfg);
      restore_setup += t.Stop();
    }
    {
      Timed t("setup.build", &scratch->stats);
      C1mParams cp;
      cp.clients = clients;
      BuildC1mWorkload(*scratch, cp);
      restore_setup += t.Stop();
    }
    {
      Timed t("restore.registry");
      for (const auto& sp : scratch->spaces()) {
        if (sp->program != nullptr) {
          registry.Register(sp->program);
        }
      }
      for (const auto& th : scratch->threads()) {
        if (th->program != nullptr) {
          registry.Register(th->program);
        }
      }
    }
    Timed t("teardown");
    scratch.reset();
  }
  r.attempted += 1;
  Scenario rs;
  {
    Timed t("setup.kernel");
    rs.kernel = std::make_unique<Kernel>(cfg, &registry);
    restore_setup += t.Stop();
  }
  r.e2e.Accumulate("setup_s", restore_setup);
  Timed whole("restore");
  MachineImage img;
  uint64_t gen = 0;
  std::string err;
  bool ok = false;
  {
    Timed t("ckpt.recover");
    FileCkptStore rstore(dir);
    ok = RecoverLatest(rstore, &img, &gen, &err);
    r.layer.Add("ckpt.recover_ms", t.Stop() * 1e3);
  }
  MachineRestoreResult res;
  if (ok) {
    Timed t("ckpt.restore", &rs.kernel->stats);
    res = RestoreMachine(*rs.kernel, img, registry, true);
    ok = res.ok;
    err = res.error;
  }
  if (ok) {
    rs.threads = res.threads;
    Kernel& rk = *rs.kernel;
    const Time rdeadline = rk.clock.now() + kMaxMs * kNsPerMs;
    for (size_t i = 0; i < rs.threads.size() && rk.clock.now() < rdeadline;) {
      if (RunSlice(rs, rs.threads[i], rdeadline - rk.clock.now())) {
        ++i;
      }
    }
    const double restore_s = whole.Stop();
    const size_t errors_before = r.errors.size();
    CheckDone(r, rs.threads, "restore");
    if (r.errors.size() == errors_before) {
      r.e2e.Add("restore_s", restore_s);
    }
    r.oracle.Add("replay.end_ns", static_cast<double>(rk.clock.now()));
    r.oracle.Add("replay.generation", static_cast<double>(gen));
  } else {
    whole.Stop();
    r.Fail("restore: " + err);
  }
  r.layer.Add("ckpt.restore_failures", ok ? 0 : 1);
  TearDown(rs);
  Timed t("bench.files");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Command line and repetition loop.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work = ".";
};

// The layer a span's self time is charged to.
std::string LayerOf(const std::string& span) {
  if (span == "rep" || span.rfind("bench.", 0) == 0) {
    return "bench";
  }
  if (span == "run" || span.rfind("apps.", 0) == 0) {
    return "run";
  }
  if (span == "restore" || span == "restore.registry" || span == "ckpt.recover" ||
      span == "ckpt.restore") {
    return "restore";
  }
  return span.substr(0, span.find('.'));  // setup.*, teardown, ckpt.*, trace.*
}

void RunOne(const Options& o, Rep& r, std::mt19937_64& rng) {
  const double rss0 = RssMb();
  ResetHwm();
  const double w0 = WallNow();
  {
    Timed span("rep");
    if (o.workload == "c1m") {
      C1mRep(r, 100000, 1, true);
    } else if (o.workload == "mp4") {
      // The oracle's digest comes from the serial backend, so every
      // parallel repetition is checked against serial.
      C1mRep(r, 20000, 4, !r.mp_serial);
    } else if (o.workload == "apps") {
      AppsRep(r, rng);
    } else {
      ArmedRep(r, 50000, o.work);
    }
  }
  r.e2e.Add("rep_s", WallNow() - w0);
  r.e2e.Add("peak_rss_mb", HwmMb() - rss0);
  r.e2e.Add("retained_mb", RssMb() - rss0);
  if (r.traced) {
    // Self times per layer. Every workload has setup, run, teardown and
    // bench (the rep root's glue between calls, plus its file clean-up).
    for (const char* layer : {"setup", "run", "teardown", "ckpt", "trace", "restore", "bench"}) {
      r.layer.Add(std::string("self.") + layer + "_ms", 0);
    }
    double glue = 0;
    for (const auto& [name, self] : g_tracer.SelfTimes(r.index)) {
      const std::string layer = LayerOf(name);
      r.layer.Accumulate("self." + layer + "_ms", self * 1e3);
      if (layer == "bench") {
        glue += self;
      }
    }
    const double rep_s = WallNow() - w0;
    r.layer.Add("bench.span_cover_frac", Ratio(rep_s - glue, rep_s));
  }
}

void Print(const Options& o, const Rep& r) {
  std::string errs = "[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    errs += (i ? ", " : "") + Quote(r.errors[i]);
  }
  errs += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64
      ", \"rep\": %d, \"warmup\": %s, \"traced\": %s, \"attempted\": %" PRIu64
      ", \"errors\": %s, \"e2e\": %s, \"layer\": %s, \"oracle\": %s}\n",
      Quote(o.workload).c_str(), o.seed, r.index, r.warmup ? "true" : "false",
      r.traced ? "true" : "false", r.attempted, errs.c_str(), r.e2e.Str().c_str(),
      r.layer.Str().c_str(), r.oracle.Str().c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=c1m|apps|mp4|armed --seed=N --seconds=S "
               "[--trace] [--work=DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--workload=", 0) == 0) {
      o.workload = a.substr(11);
    } else if (a.rfind("--seed=", 0) == 0) {
      o.seed = std::stoull(a.substr(7));
    } else if (a.rfind("--seconds=", 0) == 0) {
      o.seconds = std::stod(a.substr(10));
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a.rfind("--work=", 0) == 0) {
      o.work = a.substr(7);
    } else {
      return Usage();
    }
  }
  if (o.workload != "c1m" && o.workload != "apps" && o.workload != "mp4" &&
      o.workload != "armed") {
    return Usage();
  }
  if (!ResetHwm()) {
    std::fprintf(stderr,
                 "perfbench: cannot reset VmHWM through /proc/self/clear_refs, so "
                 "peak_rss_mb cannot be measured\n");
    return 1;
  }
  std::printf("{\"fingerprint\": {\"build_type\": %s, \"compiler\": %s}}\n",
              Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(PERFBENCH_COMPILER).c_str());

  std::mt19937_64 rng(o.seed);
  // Untimed warm-up repetitions, checked like every other one: lazy host
  // set-up (allocator arenas, page tables, the jit probe) happens here, and
  // repetition times on a VM keep falling for the first seconds of a run.
  const double warm_start = WallNow();
  bool first = true;
  do {
    Rep warm;
    warm.warmup = true;
    warm.mp_serial = first;
    first = false;
    RunOne(o, warm, rng);
    Print(o, warm);
  } while (WallNow() - warm_start < kWarmupSeconds);

  const double start = WallNow();
  int n = 0;
  auto run = [&](bool traced) {
    Rep r;
    r.index = ++n;
    r.traced = traced;
    g_tracer.set_on(traced);
    g_tracer.set_rep(r.index);
    RunOne(o, r, rng);
    g_tracer.set_on(false);
    Print(o, r);
  };
  while (n < kMinReps || WallNow() - start < o.seconds) {
    if (o.trace) {
      // One untraced and one traced repetition, in seed order.
      const bool traced_first = (rng() & 1) != 0;
      run(traced_first);
      run(!traced_first);
    } else {
      run(false);
    }
  }
  if (o.trace &&
      !g_tracer.Write(o.work + "/spans-" + o.workload + "-" + std::to_string(o.seed) + ".json")) {
    std::fprintf(stderr, "perfbench: cannot write spans under %s\n", o.work.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fluke

int main(int argc, char** argv) { return fluke::Main(argc, argv); }
