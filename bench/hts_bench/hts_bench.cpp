// hts_bench — the repository's end-to-end and per-layer benchmark.
//
// One binary, four workloads (see kWorkloads for what each stresses and
// why). An untraced run (--trace 0) measures what a user of the store sees:
// throughput, median and tail latency, set-up time and peak memory, with
// tracing off, over several fresh deployments. A traced run (--trace 1)
// repeats the same workload and seed to produce per-layer numbers: it
// measures one window untraced (for OS counters and the tracing overhead),
// the same window with the cluster's recorder attached (per-op stage split,
// server counters, lincheck), then replays each layer single-threaded.
// Every run checks the values it reads and exits non-zero on any wrong
// value.
//
// Usage:
//   bench_hts_bench --workload <name> --seed <n> --seconds <s> --trace 0|1
//                   [--json <path>] [--trace-out <path>] [--commit <sha>]
//                   [--corrupt-read]
//   bench_hts_bench --self-test
// The last line of stdout is one JSON object: correct, attempted, failed and
// the gated metrics (end-to-end untraced, per-layer traced).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "code/policy.h"
#include "common/rng.h"
#include "common/value.h"
#include "harness/proc_cluster.h"
#include "harness/threaded_cluster.h"
#include "hist.h"
#include "lincheck/checker.h"
#include "obs/probe.h"
#include "os_stats.h"
#include "replay.h"

namespace hts_bench {
namespace {

using namespace hts;
using harness::ProcCluster;
using harness::ThreadedCluster;

// ----------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  const char* why;
  bool proc;               ///< ProcCluster (else in-memory ThreadedCluster)
  std::size_t n_servers;
  std::size_t callers;     ///< generator threads
  std::size_t depth;       ///< ops each caller keeps in flight
  double write_frac;
  std::size_t value_size;
  std::size_t registers;   ///< per caller when `disjoint`, else shared
  bool disjoint;
  code::ValuePolicy policy;
};

// The same reasons are recorded in BENCHMARK.json, which gates all but
// coded_inmem: its run-to-run spread is the widest (see README.md), and
// three workloads of 27 s fit the time budget of the gated runs, four do
// not. mixed_inmem keeps one op in flight per caller: at four the in-memory
// fabric is metastable (see README.md), and its throughput is already
// saturated at one.
const Workload kWorkloads[] = {
    {"write_proc",
     "paper fig3b in its deployment shape: 3 server processes over loopback "
     "TCP, 4 writers; ring circulation, codec and sockets all busy",
     true, 3, 4, 1, 1.0, 1024, 16, true, {}},
    {"read_proc",
     "paper fig3a: same deployment, 2 readers of 4096 preloaded registers; "
     "codec and sockets busy, ring idle, so ring changes should leave it "
     "flat",
     true, 3, 2, 1, 0.0, 1024, 4096, false, {}},
    {"mixed_inmem",
     "in-memory fabric, 50/50 ops on 32 shared registers: reads park behind "
     "writes; server queues, handoffs and timers with no codec or kernel "
     "cost",
     false, 3, 4, 1, 0.5, 256, 32, false, {}},
    {"coded_inmem",
     "in-memory fabric with (5,2) Reed-Solomon values of 16 KiB: the only "
     "workload where coding, fragment storage and GC do real work",
     false, 5, 4, 4, 0.7, 16 * 1024, 32, false,
     code::ValuePolicy{2, 1024, 1}},
};

constexpr double kCpuWarmS = 1.0;        // every CPU busy before a run starts
constexpr double kWarmupS = 0.5;         // per deployment, before its window
constexpr double kDeploySeconds = 3.0;   // untraced window per deployment
constexpr double kTracedSeconds = 10.0;  // longest window of a traced pass
constexpr std::size_t kSetups = 5;       // at least; setup_s is their median
constexpr std::size_t kPreloadCaller = 0xFF;
constexpr auto kOpTimeout = std::chrono::seconds(30);

std::size_t total_registers(const Workload& w) {
  return w.disjoint ? w.registers * w.callers : w.registers;
}

/// Register index → object id (object 0 is the wire-special default).
ObjectId object_of(std::size_t i) { return static_cast<ObjectId>(i + 1); }

/// Value seeds encode their register, writer and sequence number, so a
/// read can be checked byte for byte without any shared state.
std::uint64_t value_seed(ObjectId obj, std::size_t caller, std::uint64_t seq) {
  return (obj << 40) | (static_cast<std::uint64_t>(caller) << 32) | seq;
}

/// A read result is correct when it is exactly the synthetic value of a
/// seed written to this register; a non-zero `expect_seed` pins the seed
/// too (real seeds are never 0: sequence numbers start at 1).
bool read_ok(const Value& v, ObjectId obj, std::size_t size,
             std::uint64_t expect_seed = 0) {
  if (v.size() != size) return false;
  const std::uint64_t seed = v.synthetic_seed();
  if ((seed >> 40) != obj) return false;
  if (expect_seed != 0 && seed != expect_seed) return false;
  return v == Value::synthetic(seed, size);
}

/// --corrupt-read: flips one byte, so the check above must reject the value.
Value corrupted(const Value& v) {
  std::string bytes(v.bytes());
  bytes[bytes.size() / 2] ^= 0x5A;
  return Value(std::move(bytes));
}

/// The future's result, or an exception if the op never completes.
core::OpResult await(std::future<core::OpResult>& f) {
  if (f.wait_for(kOpTimeout) != std::future_status::ready) {
    throw std::runtime_error("an operation never completed");
  }
  return f.get();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// (q3 - q1) / median: the same spread measure compare.py applies to runs,
/// here over the sub-windows of one run.
double iqr_frac(std::vector<double> v) {
  if (v.size() < 2) return 0;
  std::sort(v.begin(), v.end());
  const auto q = [&](double p) {  // exclusive method, as Python's quantiles
    const double pos = p * static_cast<double>(v.size() + 1) - 1;
    if (pos <= 0) return v.front();
    if (pos >= static_cast<double>(v.size() - 1)) return v.back();
    const auto i = static_cast<std::size_t>(pos);
    return v[i] + (v[i + 1] - v[i]) * (pos - static_cast<double>(i));
  };
  const double med = median(v);
  return med == 0 ? 0 : (q(0.75) - q(0.25)) / med;
}

// ---------------------------------------------------------------- deployment

/// One deployment of a workload. The recorder is declared before the
/// cluster so it outlives every probe the cluster hands out.
struct Deployment {
  std::unique_ptr<obs::Recorder> recorder;
  std::unique_ptr<ProcCluster> proc;
  std::unique_ptr<ThreadedCluster> inmem;
  std::vector<ThreadedCluster::BlockingClient*> clients;
};

std::unique_ptr<Deployment> deploy(const Workload& w, bool traced) {
  auto d = std::make_unique<Deployment>();
  if (w.proc) {
    harness::ProcClusterConfig cfg;
    cfg.n_servers = w.n_servers;
    d->proc = std::make_unique<ProcCluster>(cfg);
    d->proc->start();
    return d;
  }
  harness::ThreadedClusterConfig cfg;
  cfg.n_servers = w.n_servers;
  cfg.value_policy = w.policy;
  cfg.record_history = traced;
  if (traced) {
    // Capacity only bounds the buffer; traced passes drain it every
    // sub-window, so it never fills and trace.dropped stays 0.
    d->recorder = std::make_unique<obs::Recorder>(std::size_t{1} << 24);
    cfg.recorder = d->recorder.get();
  }
  d->inmem = std::make_unique<ThreadedCluster>(cfg);
  for (std::size_t c = 0; c < w.callers; ++c) {
    d->clients.push_back(
        &d->inmem->add_client(static_cast<ProcessId>(c % w.n_servers)));
  }
  d->inmem->start();
  return d;
}

/// Writes every register once so no read ever returns the initial value.
void preload(const Workload& w, Deployment& d) {
  const std::size_t regs = total_registers(w);
  const std::size_t size = w.value_size;
  const auto value_for = [&](std::size_t r) {
    return Value::synthetic(value_seed(object_of(r), kPreloadCaller, 1), size);
  };
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  const std::size_t lanes = d.proc ? 4 : d.clients.size();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      try {
        std::deque<std::future<core::OpResult>> q;
        for (std::size_t r = lane; r < regs; r += lanes) {
          if (d.proc) {
            d.proc->put(object_of(r), value_for(r));
            continue;
          }
          q.push_back(d.clients[lane]->async_write(object_of(r), value_for(r)));
          if (q.size() >= 8) {
            (void)await(q.front());
            q.pop_front();
          }
        }
        for (auto& f : q) (void)await(f);
      } catch (const std::exception&) {
        failed = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failed) throw std::runtime_error("preload failed");
}

// ------------------------------------------------------------------ passes

/// One op as the bench saw it; the traced pass joins these to the probe
/// events by (client id, request id). Times are seconds on the deployment's
/// clock (see op_clock), so they line up with the probe events.
struct Span {
  ClientId client = 0;
  RequestId req = 0;
  bool is_read = false;
  double start = 0;     // caller is about to call
  double launched = 0;  // the call returned (async_*) or completed (blocking)
  double wake = 0;      // caller observed completion

  [[nodiscard]] std::uint64_t latency_ns() const {
    return static_cast<std::uint64_t>(std::llround((wake - start) * 1e9));
  }
};

struct CallerState {
  std::vector<LatencyHistogram> write_h, read_h;  // per sub-window
  std::uint64_t attempted = 0, failed = 0, counted = 0;
  std::uint64_t retried = 0;  // in-memory ops with OpResult::attempts > 1
  std::map<ObjectId, std::uint64_t> last_acked;  // write_proc readback
  std::vector<Span> spans;
};

enum class Phase : int { kWarmup, kWindow, kPause, kStop };

/// Shared control block between the main thread and the generators.
struct PassControl {
  explicit PassControl(bool t) : traced(t) {}
  const bool traced;  // generators keep a Span per op
  std::atomic<Phase> phase{Phase::kWarmup};
  std::atomic<std::size_t> sub{0};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t parked = 0;  // guarded by mu
  std::size_t exited = 0;  // guarded by mu: generators that have returned
};

struct PassResult {
  double window_s = 0;
  std::vector<CallerState> callers;
  ProcUsage self_usage, server_usage;
  std::uint64_t allocs = 0;
  std::uint64_t client_tx_bytes = 0, client_rx_bytes = 0;  // proc only
  CpuJiffies jiffies_before, jiffies_after;
  std::vector<double> sub_ops;  // ops per sub-window (for spreads)
  bool aborted = false;
  // Traced pass only.
  std::map<std::string, LatencyHistogram> stages;
  std::uint64_t staged_ops = 0, stage_bad = 0, dropped = 0;
};

struct RunOptions {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  double warmup_s = kWarmupS;
  bool trace = false;
  bool corrupt = false;   // --corrupt-read: caller 0 corrupts its first read
  bool replays = true;    // the self-test's tiny traced run skips them
  std::FILE* trace_out = nullptr;
};

/// The clock every op timestamp is read from: the recorder's when tracing
/// (its events and the bench's spans then share one clock), steady_clock
/// seconds otherwise.
double op_clock(const Deployment& d) {
  if (d.recorder) return d.recorder->now();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records one finished op into the caller's state; `ok` is false when the
/// op threw or read a wrong value.
void finish_op(CallerState& st, const PassControl& ctl, const Span& span,
               bool ok) {
  ++st.attempted;
  if (!ok) ++st.failed;
  if (ctl.phase.load(std::memory_order_relaxed) == Phase::kWindow) {
    const std::size_t sub = ctl.sub.load(std::memory_order_relaxed);
    (span.is_read ? st.read_h : st.write_h)[sub].record(span.latency_ns());
    ++st.counted;
  }
  if (ctl.traced) st.spans.push_back(span);
}

/// Parks a generator while the main thread drains the trace.
void park(PassControl& ctl) {
  std::unique_lock lock(ctl.mu);
  ++ctl.parked;
  ctl.cv.notify_all();
  ctl.cv.wait(lock, [&] { return ctl.phase.load() != Phase::kPause; });
  --ctl.parked;
}

struct OpChoice {
  bool is_read;
  std::size_t reg;
};

OpChoice choose(const Workload& w, Rng& rng, std::size_t caller) {
  OpChoice c;
  c.is_read = !rng.chance(w.write_frac);
  c.reg = rng.below(w.registers) + (w.disjoint ? caller * w.registers : 0);
  return c;
}

void proc_caller(const RunOptions& o, Deployment& d, PassControl& ctl,
                 std::size_t c, CallerState& st) {
  const Workload& w = *o.w;
  Rng rng(o.seed * 0x9E3779B97F4A7C15ull + c + 1);
  std::uint64_t seq = 0;
  bool corrupt = o.corrupt && c == 0;
  while (ctl.phase.load() != Phase::kStop) {
    const OpChoice op = choose(w, rng, c);
    const ObjectId obj = object_of(op.reg);
    Span span;
    span.is_read = op.is_read;
    bool ok = true;
    std::uint64_t seed = 0;
    Value v;
    if (!op.is_read) {
      seed = value_seed(obj, c, ++seq);
      v = Value::synthetic(seed, w.value_size);
    }
    span.start = op_clock(d);
    try {
      if (op.is_read) {
        v = d.proc->get(obj);
      } else {
        d.proc->put(obj, std::move(v));
      }
    } catch (const std::exception&) {
      ok = false;
    }
    span.wake = span.launched = op_clock(d);
    if (ok && op.is_read) {
      if (corrupt && !v.empty()) {
        v = corrupted(v);
        corrupt = false;
      }
      // Nothing writes during read_proc: every read is the preloaded value.
      const std::uint64_t expect =
          w.write_frac == 0 ? value_seed(obj, kPreloadCaller, 1) : 0;
      ok = read_ok(v, obj, w.value_size, expect);
    } else if (ok) {
      st.last_acked[obj] = seed;
    }
    finish_op(st, ctl, span, ok);
  }
}

void inmem_caller(const RunOptions& o, Deployment& d, PassControl& ctl,
                  std::size_t c, CallerState& st) {
  struct InFlight {
    std::future<core::OpResult> fut;
    Span span;
    ObjectId obj = 0;
  };
  const Workload& w = *o.w;
  ThreadedCluster::BlockingClient& client = *d.clients[c];
  Rng rng(o.seed * 0x9E3779B97F4A7C15ull + c + 1);
  std::uint64_t seq = 0;
  bool corrupt = o.corrupt && c == 0;
  std::deque<InFlight> q;

  const auto harvest = [&](InFlight& f) {
    core::OpResult r = f.fut.get();
    f.span.wake = op_clock(d);
    f.span.client = client.id();
    f.span.req = r.req;
    bool ok = true;
    if (f.span.is_read) {
      if (corrupt && !r.value.empty()) {
        r.value = corrupted(r.value);
        corrupt = false;
      }
      ok = read_ok(r.value, f.obj, w.value_size);
    }
    if (r.attempts > 1) ++st.retried;
    finish_op(st, ctl, f.span, ok);
  };
  // Waits for the oldest op, then collects every other op already done.
  // Returns false if an op never completed (the run is then aborted).
  const auto reap = [&]() {
    if (q.front().fut.wait_for(kOpTimeout) != std::future_status::ready) {
      return false;
    }
    harvest(q.front());
    q.pop_front();
    for (auto it = q.begin(); it != q.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        harvest(*it);
        it = q.erase(it);
      } else {
        ++it;
      }
    }
    return true;
  };

  for (;;) {
    const Phase phase = ctl.phase.load();
    if (phase == Phase::kStop || phase == Phase::kPause) {
      while (!q.empty()) {
        if (!reap()) return;
      }
      if (phase == Phase::kStop) return;
      park(ctl);
      continue;
    }
    while (q.size() < w.depth) {
      const OpChoice op = choose(w, rng, c);
      InFlight f;
      f.obj = object_of(op.reg);
      f.span.is_read = op.is_read;
      Value v;
      if (!op.is_read) {
        v = Value::synthetic(value_seed(f.obj, c, ++seq), w.value_size);
      }
      f.span.start = op_clock(d);
      f.fut = op.is_read ? client.async_read(f.obj)
                         : client.async_write(f.obj, std::move(v));
      f.span.launched = op_clock(d);
      q.push_back(std::move(f));
    }
    if (!reap()) return;
  }
}

// ----------------------------------------------------------- trace joining

const char* const kStageNames[] = {
    "harness.handoff_in_us",   "client.queue_us",
    "client.retry_wait_us",    "net.to_server_us",
    "server.fairness_wait_us", "server.ring_round_us",
    "server.read_serve_us",    "server.park_wait_us",
    "server.other_us",         "harness.handoff_out_us"};

/// One --trace-out line: the op's bench spans and, when its probe events
/// were joined, its stages (one per kStageNames entry, seconds).
void write_span(std::FILE* f, const Span& s, const double* stages) {
  std::fprintf(f,
               "{\"client\":%llu,\"req\":%llu,\"kind\":\"%s\","
               "\"start_s\":%.9f,\"launched_s\":%.9f,\"wake_s\":%.9f,"
               "\"latency_us\":%.3f",
               static_cast<unsigned long long>(s.client),
               static_cast<unsigned long long>(s.req),
               s.is_read ? "read" : "write", s.start, s.launched, s.wake,
               (s.wake - s.start) * 1e6);
  if (stages != nullptr) {
    std::fprintf(f, ",\"stages_us\":{");
    for (std::size_t i = 0; i < std::size(kStageNames); ++i) {
      std::fprintf(f, "%s\"%s\":%.3f", i ? "," : "", kStageNames[i],
                   stages[i] * 1e6);
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "}\n");
}

bool server_op_event(obs::EventKind k) {
  return k == obs::EventKind::kWriteEnqueue ||
         k == obs::EventKind::kReadImmediate ||
         k == obs::EventKind::kReadPark || k == obs::EventKind::kDedupAck;
}

/// Splits each span into consecutive stages at its probe events:
///   start → client.submit → first client.send → last client.send →
///   first server event after it → [first fairness pick, writes] →
///   client.reply → wake.
/// The stages are consecutive, so their absolute values sum to the op's
/// measured latency exactly when every event was found and lies in order
/// inside the op's span; an op whose sum is off by more than 1% (missing,
/// misattributed or out-of-order events) counts against
/// trace.stage_sum_err_frac. Stage durations go into per-stage histograms.
void join_stages(std::vector<obs::TraceEvent> events,
                 const std::vector<Span>& spans, PassResult& out,
                 std::FILE* trace_out) {
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return std::tie(a.client, a.req, a.t) <
                     std::tie(b.client, b.req, b.t);
            });
  for (const Span& s : spans) {
    auto lo = std::lower_bound(
        events.begin(), events.end(), s,
        [](const obs::TraceEvent& e, const Span& sp) {
          return std::tie(e.client, e.req) < std::tie(sp.client, sp.req);
        });
    double submit = -1, first_send = -1, last_send = -1, reply = -1;
    for (auto it = lo; it != events.end() && it->client == s.client &&
                       it->req == s.req;
         ++it) {
      switch (it->kind) {
        case obs::EventKind::kClientSubmit: submit = it->t; break;
        case obs::EventKind::kClientSend:
          if (first_send < 0) first_send = it->t;
          last_send = it->t;
          break;
        case obs::EventKind::kClientReply: reply = it->t; break;
        default: break;
      }
    }
    double server = -1, pick = -1;
    obs::EventKind server_kind = obs::EventKind::kDedupAck;
    for (auto it = lo; it != events.end() && it->client == s.client &&
                       it->req == s.req;
         ++it) {
      if (server < 0 && it->t >= last_send && server_op_event(it->kind)) {
        server = it->t;
        server_kind = it->kind;
      } else if (server >= 0 && pick < 0 &&
                 it->kind == obs::EventKind::kFairnessPick) {
        pick = it->t;
      }
    }
    ++out.staged_ops;
    double stage[std::size(kStageNames)] = {};
    const bool joined = submit >= 0 && first_send >= 0 && reply >= 0;
    if (joined) {
      stage[0] = submit - s.start;
      stage[1] = first_send - submit;
      stage[2] = last_send - first_send;
      if (server >= 0 && server <= reply) {
        stage[3] = server - last_send;
        if (server_kind == obs::EventKind::kWriteEnqueue && pick >= 0 &&
            pick <= reply) {
          stage[4] = pick - server;
          stage[5] = reply - pick;
        } else if (server_kind == obs::EventKind::kReadImmediate) {
          stage[6] = reply - server;
        } else if (server_kind == obs::EventKind::kReadPark) {
          stage[7] = reply - server;
        } else {
          stage[8] = reply - server;
        }
      } else {
        stage[8] = reply - last_send;
      }
      stage[9] = s.wake - reply;
    }
    double sum = 0;
    for (double x : stage) sum += std::fabs(x);
    const double lat = s.wake - s.start;
    const bool bad = !joined || lat <= 0 || std::fabs(sum - lat) > 0.01 * lat;
    if (bad) ++out.stage_bad;
    if (joined) {
      for (std::size_t i = 0; i < std::size(kStageNames); ++i) {
        if (stage[i] <= 0) continue;
        out.stages[kStageNames[i]].record(
            static_cast<std::uint64_t>(stage[i] * 1e9));
      }
    }
    if (trace_out != nullptr) {
      write_span(trace_out, s, joined ? stage : nullptr);
    }
  }
}

// -------------------------------------------------------------------- pass

std::uint64_t sum_link(const std::vector<obs::LinkCounters>& links,
                       bool tx) {
  std::uint64_t total = 0;
  for (const auto& l : links) {
    if (l.label.empty() || l.label[0] != 'c') continue;
    total += tx ? l.tx_bytes : l.rx_bytes;
  }
  return total;
}

/// Runs warm-up plus the measured window on a deployment. A traced
/// in-memory pass pauses the generators at every sub-window boundary, lets
/// the cluster go quiescent, and drains the trace buffer into the stage
/// histograms — so the buffer never holds more than one sub-window and
/// never drops an event. Paused time is not part of the window.
PassResult run_pass(const RunOptions& o, Deployment& d, bool traced) {
  const Workload& w = *o.w;
  const std::size_t n_sub = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(o.seconds)));
  const double sub_s = o.seconds / static_cast<double>(n_sub);
  const bool drains = traced && d.recorder != nullptr;
  std::FILE* const trace_out = traced ? o.trace_out : nullptr;

  PassResult res;
  res.callers.resize(w.callers);
  for (CallerState& st : res.callers) {
    st.write_h.resize(n_sub);
    st.read_h.resize(n_sub);
  }
  PassControl ctl(traced);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.callers; ++c) {
    threads.emplace_back([&, c] {
      if (d.proc) {
        proc_caller(o, d, ctl, c, res.callers[c]);
      } else {
        inmem_caller(o, d, ctl, c, res.callers[c]);
      }
      const std::lock_guard lock(ctl.mu);
      ++ctl.exited;
      ctl.cv.notify_all();
    });
  }

  // Pauses every generator, drains the cluster and the trace buffer.
  // Returns false if a generator gave up on an op or the cluster did not go
  // quiescent.
  const auto drain = [&](bool keep) {
    {
      std::unique_lock lock(ctl.mu);
      ctl.phase = Phase::kPause;
      ctl.cv.wait(lock, [&] { return ctl.parked + ctl.exited == w.callers; });
      if (ctl.exited > 0) return false;
    }
    const bool quiet = d.inmem->wait_quiescent(10.0);
    res.dropped += d.recorder->trace().dropped();
    std::vector<obs::TraceEvent> events = d.recorder->trace().snapshot();
    d.recorder->trace().clear();
    std::vector<Span> spans;
    for (CallerState& st : res.callers) {
      spans.insert(spans.end(), st.spans.begin(), st.spans.end());
      st.spans.clear();
    }
    if (keep) join_stages(std::move(events), spans, res, trace_out);
    return quiet;
  };
  const auto resume = [&](Phase p) {
    const std::lock_guard lock(ctl.mu);
    ctl.phase = p;
    ctl.cv.notify_all();
  };

  std::this_thread::sleep_for(std::chrono::duration<double>(o.warmup_s));
  if (drains && !drain(false)) res.aborted = true;
  const std::vector<pid_t> children =
      d.proc ? child_pids() : std::vector<pid_t>{};
  const auto server_usage = [&] {
    ProcUsage u;
    for (const pid_t p : children) {
      const ProcUsage c = pid_usage(p);
      u.cpu_s += c.cpu_s;
      u.ctx_switches += c.ctx_switches;
    }
    return u;
  };
  const ProcUsage self0 = self_usage();
  const ProcUsage srv0 = server_usage();
  const std::uint64_t alloc0 = allocations();
  std::vector<obs::LinkCounters> links0;
  if (d.proc) links0 = d.proc->transport().link_counters();
  res.jiffies_before = read_cpu_jiffies();

  using Clock = std::chrono::steady_clock;
  std::vector<double> sub_len;  // active seconds of each sub-window
  auto mark = Clock::now();
  const Clock::time_point t0 = mark;
  resume(Phase::kWindow);
  for (std::size_t j = 0; j < n_sub && !res.aborted; ++j) {
    ctl.sub = j;
    if (drains) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sub_s));
    } else {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(
                       sub_s * static_cast<double>(j + 1))));
    }
    if (drains || j + 1 == n_sub) ctl.phase = Phase::kPause;
    const Clock::time_point end = Clock::now();
    sub_len.push_back(std::chrono::duration<double>(end - mark).count());
    mark = end;
    if (drains) {
      if (!drain(true)) res.aborted = true;
      if (j + 1 < n_sub) resume(Phase::kWindow);
      mark = Clock::now();
    }
  }
  for (const double s : sub_len) res.window_s += s;
  res.jiffies_after = read_cpu_jiffies();
  const ProcUsage self1 = self_usage();
  const ProcUsage srv1 = server_usage();
  res.allocs = allocations() - alloc0;
  if (d.proc) {
    const auto links1 = d.proc->transport().link_counters();
    res.client_tx_bytes = sum_link(links1, true) - sum_link(links0, true);
    res.client_rx_bytes = sum_link(links1, false) - sum_link(links0, false);
  }
  res.self_usage = {self1.cpu_s - self0.cpu_s,
                    self1.ctx_switches - self0.ctx_switches};
  res.server_usage = {srv1.cpu_s - srv0.cpu_s,
                      srv1.ctx_switches - srv0.ctx_switches};
  {
    const std::lock_guard lock(ctl.mu);
    // A generator that returned before the stop gave up on an op.
    if (ctl.exited > 0) res.aborted = true;
  }
  resume(Phase::kStop);
  for (auto& t : threads) t.join();
  for (std::size_t j = 0; j < sub_len.size(); ++j) {
    std::uint64_t ops = 0;
    for (const CallerState& st : res.callers) {
      ops += st.write_h[j].count() + st.read_h[j].count();
    }
    res.sub_ops.push_back(static_cast<double>(ops) / sub_len[j]);
  }
  if (traced && !drains) {
    // No probe events to join (server processes host no recorder): the op
    // is its own single stage, and its span still goes to --trace-out.
    for (const CallerState& st : res.callers) {
      res.staged_ops += st.spans.size();
      if (trace_out == nullptr) continue;
      for (const Span& s : st.spans) write_span(trace_out, s, nullptr);
    }
  }
  return res;
}

// ----------------------------------------------------------------- results

struct RunResult {
  bool correct = true;
  bool noisy = false;  // calibration moved more than 10% across the run
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> gated;  // the metrics BENCHMARK.json lists
  std::vector<Metric> diag;   // everything else, printed and in --json
  std::vector<std::string> notes;
};

std::uint64_t total(const std::vector<CallerState>& cs,
                    std::uint64_t CallerState::*field) {
  std::uint64_t n = 0;
  for (const CallerState& st : cs) n += st.*field;
  return n;
}

double per_op(double x, double ops) { return ops > 0 ? x / ops : 0; }

/// Latency and throughput over the sub-windows of every pass, pooled.
/// Printed, not gated: they are wall-clock figures, and on a shared VM they
/// move with the hypervisor's steal time (see README.md).
void add_latency_metrics(const std::vector<PassResult>& passes,
                         std::vector<Metric>& diag) {
  LatencyHistogram all, writes, reads;
  std::vector<double> sub_ops, sub_p50, sub_p99;
  double ops = 0, window_s = 0;
  for (const PassResult& p : passes) {
    const std::size_t n_sub = p.sub_ops.size();
    for (std::size_t j = 0; j < n_sub; ++j) {
      LatencyHistogram sub;
      for (const CallerState& st : p.callers) {
        sub.merge(st.write_h[j]);
        sub.merge(st.read_h[j]);
        writes.merge(st.write_h[j]);
        reads.merge(st.read_h[j]);
      }
      sub_p50.push_back(sub.quantile_ns(0.5) / 1e6);
      sub_p99.push_back(sub.quantile_ns(0.99) / 1e6);
    }
    sub_ops.insert(sub_ops.end(), p.sub_ops.begin(), p.sub_ops.end());
    ops += static_cast<double>(total(p.callers, &CallerState::counted));
    window_s += p.window_s;
  }
  all.merge(writes);
  all.merge(reads);
  // Medians over the one-second sub-windows of all deployments: a stall of
  // a second or two (another tenant of the machine, a retry-timer storm)
  // shows in the window spread and p999 below rather than in these.
  diag.push_back({"diag.ops_per_s", median(sub_ops), "ops/s"});
  diag.push_back({"diag.p50_ms", median(sub_p50), "ms"});
  diag.push_back({"diag.p99_ms", median(sub_p99), "ms"});
  diag.push_back({"diag.samples", static_cast<double>(all.count()), "count"});
  diag.push_back({"diag.window.ops_per_s", ops / window_s, "ops/s"});
  diag.push_back({"diag.window.p50_ms", all.quantile_ns(0.5) / 1e6, "ms"});
  diag.push_back({"diag.window.p99_ms", all.quantile_ns(0.99) / 1e6, "ms"});
  diag.push_back({"diag.p999_ms", all.quantile_ns(0.999) / 1e6, "ms"});
  for (const auto& [name, h] :
       {std::pair{"write", &writes}, std::pair{"read", &reads}}) {
    if (h->count() == 0) continue;
    const std::string n(name);
    diag.push_back({"diag." + n + "_samples", static_cast<double>(h->count()),
                    "count"});
    diag.push_back({"diag." + n + "_p50_ms", h->quantile_ns(0.5) / 1e6, "ms"});
    diag.push_back({"diag." + n + "_p99_ms", h->quantile_ns(0.99) / 1e6, "ms"});
  }
  diag.push_back({"diag.window_spread.ops_per_s", iqr_frac(sub_ops), "frac"});
  diag.push_back({"diag.window_spread.p50_ms", iqr_frac(sub_p50), "frac"});
  diag.push_back({"diag.window_spread.p99_ms", iqr_frac(sub_p99), "frac"});
}

/// write_proc: each caller's last acknowledged write must be what a read
/// returns after the window.
bool readback_ok(const Workload& w, Deployment& d, const PassResult& p) {
  if (!d.proc || w.write_frac == 0) return true;
  for (const CallerState& st : p.callers) {
    for (const auto& [obj, seed] : st.last_acked) {
      if (!read_ok(d.proc->get(obj), obj, w.value_size, seed)) return false;
    }
  }
  return true;
}

/// Folds one pass's counts and failure conditions into the run result.
void account(const Workload& w, Deployment& d, const PassResult& p,
             RunResult& r) {
  r.attempted += total(p.callers, &CallerState::attempted);
  r.failed += total(p.callers, &CallerState::failed);
  if (r.failed > 0) r.correct = false;
  if (p.aborted) {
    r.correct = false;
    r.notes.push_back("an operation never completed");
  }
  if (!readback_ok(w, d, p)) {
    r.correct = false;
    r.notes.push_back("write_proc readback returned a stale or wrong value");
  }
}

/// After an in-memory traced pass: lincheck over the recorded history, the
/// client link bytes from the recorder's export, and the server counters
/// (read once the cluster is quiescent).
void add_inmem_layer_metrics(const Workload& w, Deployment& d, RunResult& r) {
  ThreadedCluster& cl = *d.inmem;
  if (!cl.wait_quiescent(10.0)) {
    r.correct = false;
    r.notes.push_back("the cluster did not go quiescent");
  }
  const lincheck::History history = cl.history();
  const lincheck::CheckResult lin = lincheck::check_register(history);
  if (!lin) {
    r.correct = false;
    r.notes.push_back("lincheck: " + lin.explanation);
  }
  const auto ops = static_cast<double>(history.size());
  r.diag.push_back({"lincheck.ops", ops, "count"});

  cl.export_metrics();
  std::uint64_t tx = 0, rx = 0;
  for (const auto& [name, c] : d.recorder->registry().counters()) {
    if (name.rfind("net.host.c", 0) != 0) continue;
    if (name.ends_with(".tx_bytes")) tx += c.value();
    if (name.ends_with(".rx_bytes")) rx += c.value();
  }
  r.gated.push_back({"net.client_tx_bytes_per_op",
                     per_op(static_cast<double>(tx), ops), "B"});
  r.gated.push_back({"net.client_rx_bytes_per_op",
                     per_op(static_cast<double>(rx), ops), "B"});

  std::uint64_t initiated = 0, parked = 0, immediate = 0, reclaimed = 0;
  std::uint64_t wq_max = 0, fq_max = 0;
  double stored = 0;
  for (ProcessId g = 0; g < cl.n_servers(); ++g) {
    const core::RingServer& s = cl.server(g);
    initiated += s.stats().pre_writes_initiated;
    parked += s.stats().reads_parked;
    immediate += s.stats().reads_immediate;
    reclaimed += s.stats().gc_reclaimed_bytes;
    wq_max = std::max(wq_max, s.stats().write_queue_max);
    fq_max = std::max(fq_max, s.stats().forward_queue_max);
    stored += static_cast<double>(s.fragment_bytes());
    for (std::size_t i = 0; i < total_registers(w); ++i) {
      stored += static_cast<double>(s.current_value(object_of(i)).size());
    }
  }
  const harness::RingTraffic t = harness::total_traffic(cl.traffic_per_ring());
  const auto writes = static_cast<double>(initiated);
  const auto user_bytes =
      static_cast<double>(total_registers(w) * w.value_size);
  auto& diag = r.diag;
  diag.push_back({"server.batch_fill", t.batch_fill(), "count"});
  diag.push_back({"server.ring_tx_per_write",
                  per_op(static_cast<double>(t.transmissions), writes),
                  "count"});
  diag.push_back({"server.ring_bytes_per_write",
                  per_op(static_cast<double>(t.bytes), writes), "B"});
  diag.push_back(
      {"server.write_queue_max", static_cast<double>(wq_max), "count"});
  diag.push_back(
      {"server.forward_queue_max", static_cast<double>(fq_max), "count"});
  diag.push_back({"server.reads_parked_frac",
                  per_op(static_cast<double>(parked),
                         static_cast<double>(parked + immediate)),
                  "frac"});
  diag.push_back(
      {"code.stored_bytes_per_user_byte", stored / user_bytes, "frac"});
  diag.push_back({"code.gc_reclaimed_bytes_per_write",
                  per_op(static_cast<double>(reclaimed), writes), "B"});
}

/// The untraced run: the window is split over several fresh deployments,
/// each measured for kDeploySeconds after its own warm-up. Each deployment
/// places its threads and processes on the cores anew, and consecutive
/// deployments differ by a few percent on an idle 4-core VM; medians over
/// them average that out. Every deployment's set-up is timed (setup_s is
/// their median, over at least kSetups), and every value read is checked.
RunResult run_untraced(const RunOptions& o) {
  const Workload& w = *o.w;
  RunResult r;
  const std::size_t n_deploy = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(o.seconds / kDeploySeconds)));
  const std::size_t n_setups = std::max(kSetups, n_deploy);
  RunOptions each = o;
  each.seconds = o.seconds / static_cast<double>(n_deploy);
  std::vector<PassResult> passes;
  std::vector<double> setups, peak_rss, cpu_us_per_op;
  for (std::size_t i = 0; i < n_setups; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::unique_ptr<Deployment> d = deploy(w, false);
    preload(w, *d);
    setups.push_back(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    if (i + n_deploy < n_setups) continue;  // timed set-up only
    each.corrupt = o.corrupt && passes.empty();
    passes.push_back(run_pass(each, *d, false));
    const PassResult& p = passes.back();
    cpu_us_per_op.push_back(
        per_op((p.self_usage.cpu_s + p.server_usage.cpu_s) * 1e6,
               static_cast<double>(total(p.callers, &CallerState::counted))));
    if (d->proc) {
      double rss = 0;
      for (const pid_t c : child_pids()) rss = std::max(rss, peak_rss_mib(c));
      peak_rss.push_back(rss);
    } else if (passes.size() == 1) {
      // The process VmHWM only grows: later deployments would add the
      // allocator's fragmentation to the peak, so read it after the first.
      peak_rss.push_back(peak_rss_mib(::getpid()));
    }
    account(w, *d, p, r);
  }
  // CPU time of every process of the deployment (this one and, on the proc
  // workloads, the servers) per completed op, median over deployments. It
  // is the gated throughput figure: time the hypervisor steals is not
  // charged to a process, so it holds while steal halves wall-clock
  // throughput, and on these CPU-bound workloads throughput on an unshared
  // machine is the CPUs kept busy divided by it.
  r.gated.push_back({"cpu_us_per_op", median(cpu_us_per_op), "us"});
  r.gated.push_back({"setup_s", median(setups), "s"});
  r.gated.push_back({"peak_rss_mb", median(peak_rss), "MiB"});
  add_latency_metrics(passes, r.diag);
  r.diag.push_back({"diag.deployments", static_cast<double>(n_deploy),
                    "count"});
  r.diag.push_back({"diag.setup_spread", iqr_frac(setups), "frac"});
  r.diag.push_back(
      {"diag.steal_frac",
       steal_frac(passes.front().jiffies_before, passes.back().jiffies_after),
       "frac"});
  return r;
}

/// The traced run: one window untraced (OS counters, overhead base), then
/// the same window traced (stages, server counters, lincheck), then layer
/// replays. The window is capped at kTracedSeconds: per-layer numbers need
/// samples, not repeatability, and the cap keeps a traced run no longer
/// than an untraced one.
RunResult run_traced(const RunOptions& run) {
  RunOptions o = run;
  o.seconds = std::min(run.seconds, kTracedSeconds);
  const Workload& w = *o.w;
  RunResult r;
  auto& m = r.gated;
  auto& diag = r.diag;
  double base_ops_s = 0;
  double retry_s = 0;
  {
    auto d = deploy(w, false);
    preload(w, *d);
    const PassResult p = run_pass(o, *d, false);
    const auto ops =
        static_cast<double>(total(p.callers, &CallerState::counted));
    base_ops_s = ops / p.window_s;
    m.push_back({"process.cpu_us_per_op",
                 per_op(p.self_usage.cpu_s * 1e6, ops), "us"});
    m.push_back({"process.ctx_switches_per_op",
                 per_op(static_cast<double>(p.self_usage.ctx_switches), ops),
                 "count"});
    m.push_back({"process.allocs_per_op",
                 per_op(static_cast<double>(p.allocs), ops), "count"});
    m.push_back({"env.steal_frac",
                 steal_frac(p.jiffies_before, p.jiffies_after), "frac"});
    if (d->proc) {
      diag.push_back({"proc.server_cpu_us_per_op",
                      per_op(p.server_usage.cpu_s * 1e6, ops), "us"});
      diag.push_back(
          {"proc.server_ctx_switches_per_op",
           per_op(static_cast<double>(p.server_usage.ctx_switches), ops),
           "count"});
      m.push_back({"net.client_tx_bytes_per_op",
                   per_op(static_cast<double>(p.client_tx_bytes), ops), "B"});
      m.push_back({"net.client_rx_bytes_per_op",
                   per_op(static_cast<double>(p.client_rx_bytes), ops), "B"});
      retry_s = harness::ProcClusterConfig{}.client_retry_timeout_s;
    } else {
      const auto retried =
          static_cast<double>(total(p.callers, &CallerState::retried));
      const auto attempted =
          static_cast<double>(total(p.callers, &CallerState::attempted));
      diag.push_back(
          {"client.retried_frac", per_op(retried, attempted), "frac"});
      retry_s = harness::ThreadedClusterConfig{}.client_retry_timeout_s;
    }
    account(w, *d, p, r);
  }

  {
    auto d = deploy(w, true);
    preload(w, *d);
    const PassResult p = run_pass(o, *d, true);
    const auto ops =
        static_cast<double>(total(p.callers, &CallerState::counted));
    const double traced_ops_s = ops / p.window_s;
    m.push_back({"trace.overhead_frac",
                 base_ops_s > 0 ? 1.0 - traced_ops_s / base_ops_s : 0,
                 "frac"});
    m.push_back({"trace.dropped", static_cast<double>(p.dropped), "count"});
    m.push_back({"trace.stage_sum_err_frac",
                 per_op(static_cast<double>(p.stage_bad),
                        static_cast<double>(p.staged_ops)),
                 "frac"});
    for (const auto& [name, h] : p.stages) {
      diag.push_back({name + ".p50", h.quantile_ns(0.5) / 1e3, "us"});
      diag.push_back({name + ".p99", h.quantile_ns(0.99) / 1e3, "us"});
    }
    account(w, *d, p, r);
    if (p.dropped > 0) {
      r.correct = false;
      r.notes.push_back("the trace buffer dropped events");
    }
    if (d->inmem) add_inmem_layer_metrics(w, *d, r);
  }

  if (o.replays) {
    ReplayParams rp;
    rp.n_servers = w.n_servers;
    rp.value_size = w.value_size;
    rp.write_frac = w.write_frac;
    rp.registers = total_registers(w);
    rp.policy = w.policy;
    rp.tcp = w.proc;
    rp.pending_timers = static_cast<std::size_t>(base_ops_s * retry_s);
    rp.seed = o.seed;
    for (Metric& x : run_replays(rp)) m.push_back(std::move(x));
  }
  return r;
}

RunResult run(const RunOptions& o) {
  warm_cpus(kCpuWarmS);
  const double before = calibrate_mops();
  RunResult r = o.trace ? run_traced(o) : run_untraced(o);
  const double after = calibrate_mops();
  auto& sink = o.trace ? r.gated : r.diag;
  sink.push_back({"env.calib_mops_before", before, "Mops/s"});
  sink.push_back({"env.calib_mops_after", after, "Mops/s"});
  // Kept and marked, never dropped: the trajectory counts noisy runs.
  r.noisy = std::fabs(after / before - 1.0) > 0.10;
  if (r.noisy) {
    r.notes.push_back("noisy: calibration moved more than 10% across the run");
  }
  return r;
}

// ------------------------------------------------------------------ output

void print_metric(const Metric& m) {
  std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  char buf[512];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), v, ms[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

void write_json_file(const std::string& path, const RunOptions& o,
                     const RunResult& r, const std::string& commit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "{\"schema\": \"hts-bench-v1\", \"commit\": \"%s\", "
               "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
               "\"trace\": %d, \"noisy\": %s, \"correct\": %s, "
               "\"attempted\": %llu, \"failed\": %llu,\n \"metrics\": %s,\n "
               "\"diag\": %s}\n",
               commit.c_str(), o.w->name,
               static_cast<unsigned long long>(o.seed), o.seconds,
               o.trace ? 1 : 0, r.noisy ? "true" : "false",
               r.correct ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed),
               json_metrics(r.gated).c_str(), json_metrics(r.diag).c_str());
  std::fclose(f);
}

void print_result(const RunOptions& o, const RunResult& r) {
  const Workload& w = *o.w;
  std::printf("hts_bench %s (%s, seed %llu, %.3g s window, %s)\n", w.name,
              w.proc ? "processes over loopback TCP" : "in-memory threads",
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? "traced" : "untraced");
  std::printf("  why: %s\n", w.why);
  std::printf("gated metrics:\n");
  for (const Metric& m : r.gated) print_metric(m);
  std::printf("diagnostics:\n");
  for (const Metric& m : r.diag) print_metric(m);
  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());
  std::printf("check: %s (%llu ops attempted, %llu failed)\n",
              r.correct ? "PASS" : "FAIL",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              json_metrics(r.gated).c_str());
  std::fflush(stdout);
}

// --------------------------------------------------------------- self-test

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double metric(const RunResult& r, const std::string& name) {
  for (const auto* v : {&r.gated, &r.diag}) {
    for (const Metric& m : *v) {
      if (m.name == name) return m.value;
    }
  }
  return std::nan("");
}

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("self-test: %-60s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };

  // 1. Histogram quantiles against an exact sort, over six decades.
  {
    Rng rng(7);
    std::vector<std::uint64_t> xs;
    LatencyHistogram h;
    for (int i = 0; i < 200000; ++i) {
      const auto v = static_cast<std::uint64_t>(
          std::exp(rng.unit() * std::log(1e9)) + rng.below(100));
      xs.push_back(v);
      h.record(v);
    }
    std::sort(xs.begin(), xs.end());
    double worst = 0;
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(xs.size())));
      const double exact = static_cast<double>(xs[rank - 1]);
      worst = std::max(worst, std::fabs(h.quantile_ns(q) - exact) / exact);
    }
    expect(worst <= 0.01, "histogram quantiles within 1% of an exact sort");
  }

  // 2. A tiny traced run: no dropped events, lincheck passes, and the stages
  // of at least 99% of ops sum to their measured latency within 1%.
  {
    RunOptions o;
    o.w = find_workload("mixed_inmem");
    o.seconds = 1;
    o.warmup_s = 0.2;
    o.trace = true;
    o.replays = false;
    const RunResult r = run_traced(o);
    expect(r.correct, "tiny traced run is correct (values + lincheck)");
    expect(metric(r, "trace.dropped") == 0,
           "tiny traced run dropped no events");
    expect(metric(r, "trace.stage_sum_err_frac") <= 0.01,
           "stage sums match latency for >= 99% of ops");
  }

  // 3. A corrupted read value must fail the run.
  for (const char* name : {"mixed_inmem", "read_proc"}) {
    RunOptions o;
    o.w = find_workload(name);
    o.seconds = 0.5;
    o.warmup_s = 0.1;
    o.corrupt = true;
    const RunResult r = run_untraced(o);
    expect(!r.correct && r.failed == 1,
           std::string("corrupted read fails the run (") + name + ")");
  }
  std::printf("self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_hts_bench --workload <name> --seed <n> "
               "--seconds <s> --trace 0|1 [--json <path>] [--trace-out <path>] "
               "[--commit <sha>] [--corrupt-read]\n"
               "       bench_hts_bench --self-test\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace hts_bench

int main(int argc, char** argv) {
  // A process re-exec'd as a ProcCluster server never runs the bench.
  if (hts::harness::ProcCluster::serve_child(argc, argv)) return 0;
  using namespace hts_bench;
  RunOptions o;
  std::string json_path, trace_path, commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--self-test") return self_test();
      if (a == "--workload") {
        o.w = find_workload(next());
      } else if (a == "--seed") {
        o.seed = std::stoull(next());
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(next());
        // One histogram per caller, op kind and second: keep that bounded.
        have_seconds = o.seconds > 0 && o.seconds <= 3600;
      } else if (a == "--trace") {
        const std::string t = next();
        o.trace = t == "1";
        have_trace = t == "0" || t == "1";
      } else if (a == "--json") {
        json_path = next();
      } else if (a == "--trace-out") {
        trace_path = next();
      } else if (a == "--commit") {
        commit = next();
      } else if (a == "--corrupt-read") {
        o.corrupt = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (o.w == nullptr || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }
  std::FILE* trace_out = nullptr;
  if (!trace_path.empty()) {
    trace_out = std::fopen(trace_path.c_str(), "w");
    if (trace_out == nullptr) return usage();
    o.trace_out = trace_out;
  }
  try {
    const RunResult r = run(o);
    if (trace_out != nullptr) std::fclose(trace_out);
    if (!json_path.empty()) write_json_file(json_path, o, r, commit);
    print_result(o, r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hts_bench: %s\n", e.what());
    return 1;
  }
}
