// FIG10 — the socket fabric (DESIGN.md §Transport, D12), two questions:
//
//   1. Codec egress allocations: the legacy encoder allocates a std::string
//      per message; the scatter-gather FrameWriter encodes batch trains into
//      pooled segments. Steady state target: ZERO allocations per batch on
//      egress (an operator-new hook counts).
//
//   2. Fig3-style read/write throughput of the same protocol on three
//      fabrics: in-process queues (InMemTransport), loopback sockets in one
//      process (ThreadedCluster tcp mode), and real multi-process loopback
//      (ProcCluster — one OS process per server, the paper's deployment
//      shape). The in-memory fabric moves shared_ptrs; the socket fabrics
//      pay real encode + syscall + decode per message, so their gap is the
//      serialization + kernel cost of deployment, not protocol overhead.
//
// --quick: CI smoke mode — tiny windows; numbers are not representative.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/messages.h"
#include "harness/proc_cluster.h"
#include "harness/report.h"
#include "harness/threaded_cluster.h"
#include "net/frame_writer.h"

// ------------------------------------------------ allocation counting hook

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hts;
using namespace hts::harness;

/// A max_batch=16 train of ring messages — the egress hot-path unit.
net::PayloadPtr make_batch(std::uint64_t seed, std::size_t value_size) {
  std::vector<net::PayloadPtr> parts;
  parts.reserve(16);
  for (std::uint64_t i = 0; i < 8; ++i) {
    parts.push_back(net::make_payload<core::PreWrite>(
        Tag{seed + i, 0}, Value::synthetic(seed + i, value_size), 7, seed + i,
        kDefaultObject));
    parts.push_back(
        net::make_payload<core::WriteCommit>(Tag{seed + i, 0}, 7, seed + i,
                                             kDefaultObject));
  }
  return net::make_payload<core::RingBatch>(std::move(parts));
}

void bench_allocations(bool quick) {
  const std::size_t rounds = quick ? 200 : 5000;
  std::vector<net::PayloadPtr> batches;
  for (std::uint64_t b = 0; b < 16; ++b) batches.push_back(make_batch(b, 512));

  Table t("Egress encode: allocations and time per batch (16-part trains)",
          {"encoder", "allocs/batch", "ns/batch", "bytes/batch"});

  // Legacy: one std::string per encode (plus growth reallocations).
  {
    std::size_t bytes = 0;
    for (const auto& b : batches) bytes += b->wire_size();
    const std::uint64_t a0 = g_allocs.load();
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t sink = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const auto& b : batches) sink += core::encode_message(*b).size();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t a1 = g_allocs.load();
    const double per = static_cast<double>(rounds * batches.size());
    t.add_row({"legacy string", Table::num((a1 - a0) / per, 3),
               Table::num(std::chrono::duration<double, std::nano>(t1 - t0)
                              .count() /
                          per),
               Table::num(static_cast<double>(bytes) /
                          static_cast<double>(batches.size()))});
    if (sink == 0) std::printf("(impossible)\n");
  }

  // Scatter-gather: one FrameWriter reused across rounds — the transport's
  // staged-writer pattern. After the first round grows the pool, encode is
  // allocation-free.
  {
    net::FrameWriter w;
    for (const auto& b : batches) {  // warm-up: grow the pool once
      const auto m = w.begin_frame();
      core::encode_message_into(*b, w);
      w.end_frame(m);
    }
    w.clear();
    const std::uint64_t a0 = g_allocs.load();
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t sink = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const auto& b : batches) {
        const auto m = w.begin_frame();
        core::encode_message_into(*b, w);
        w.end_frame(m);
      }
      sink += w.size();
      w.clear();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t a1 = g_allocs.load();
    const double per = static_cast<double>(rounds * batches.size());
    t.add_row({"FrameWriter (pooled)", Table::num((a1 - a0) / per, 3),
               Table::num(std::chrono::duration<double, std::nano>(t1 - t0)
                              .count() /
                          per),
               Table::num(static_cast<double>(sink) /
                          static_cast<double>(rounds * batches.size()))});
  }
  t.print();
  t.print_csv();
  std::printf("Check: FrameWriter steady state is 0 allocs/batch — the pool "
              "grows once and is reused for every train after.\n\n");
}

// ------------------------------------------------------ fabric throughput

struct FabricResult {
  double write_ops_s = 0;
  double read_ops_s = 0;
  double write_mbps = 0;
};

/// Closed-loop clients hammering one ThreadedCluster for `window_s`.
FabricResult run_threaded(ThreadedClusterConfig::TransportKind kind,
                          std::size_t n_servers, std::size_t n_clients,
                          std::size_t value_size, double window_s) {
  ThreadedClusterConfig cfg;
  cfg.n_servers = n_servers;
  cfg.transport = kind;
  cfg.record_history = false;
  ThreadedCluster cluster(cfg);
  std::vector<ThreadedCluster::BlockingClient*> clients;
  for (std::size_t c = 0; c < n_clients; ++c) {
    clients.push_back(&cluster.add_client(c % n_servers));
  }
  cluster.start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t v = 1;
      const ObjectId obj = static_cast<ObjectId>(c);  // disjoint registers
      while (!stop.load(std::memory_order_relaxed)) {
        if (c % 2 == 0) {
          clients[c]->write(obj, Value::synthetic(v++, value_size));
          writes.fetch_add(1, std::memory_order_relaxed);
        } else {
          (void)clients[c]->read(obj);
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
  stop = true;
  for (auto& th : threads) th.join();

  FabricResult r;
  r.write_ops_s = static_cast<double>(writes.load()) / window_s;
  r.read_ops_s = static_cast<double>(reads.load()) / window_s;
  r.write_mbps = r.write_ops_s * static_cast<double>(value_size) * 8 / 1e6;
  return r;
}

/// One blocking client against real server processes: every op is a full
/// encode → socket → decode round trip, so this measures deployment latency
/// (ops/s of a single closed loop), not saturated bandwidth.
FabricResult run_proc(std::size_t n_servers, std::size_t value_size,
                      double window_s) {
  ProcClusterConfig cfg;
  cfg.n_servers = n_servers;
  ProcCluster cluster(cfg);
  cluster.start();

  FabricResult r;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t writes = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < window_s) {
    cluster.put(1, Value::synthetic(writes + 1, value_size));
    ++writes;
  }
  const double wrote_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto t1 = std::chrono::steady_clock::now();
  std::uint64_t reads = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
             .count() < window_s) {
    (void)cluster.get(1);
    ++reads;
  }
  const double read_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();
  cluster.stop();
  r.write_ops_s = static_cast<double>(writes) / wrote_s;
  r.read_ops_s = static_cast<double>(reads) / read_s;
  r.write_mbps = r.write_ops_s * static_cast<double>(value_size) * 8 / 1e6;
  return r;
}

void bench_fabrics(bool quick) {
  const double window = quick ? 0.3 : 2.0;
  const std::size_t n = 3;
  const std::size_t value_size = 1024;
  const std::size_t clients = quick ? 4 : 8;

  Table t("Protocol throughput by fabric (3 servers, 1 KiB values)",
          {"fabric", "write ops/s", "read ops/s", "write Mbit/s"});
  {
    const auto r = run_threaded(ThreadedClusterConfig::TransportKind::kInMem,
                                n, clients, value_size, window);
    t.add_row({"in-memory queues", Table::num(r.write_ops_s, 0),
               Table::num(r.read_ops_s, 0), Table::num(r.write_mbps, 1)});
  }
  {
    const auto r = run_threaded(ThreadedClusterConfig::TransportKind::kTcp,
                                n, clients, value_size, window);
    t.add_row({"loopback tcp (1 proc)", Table::num(r.write_ops_s, 0),
               Table::num(r.read_ops_s, 0), Table::num(r.write_mbps, 1)});
  }
  {
    const auto r = run_proc(n, value_size, window);
    t.add_row({"multi-process tcp", Table::num(r.write_ops_s, 0),
               Table::num(r.read_ops_s, 0), Table::num(r.write_mbps, 1)});
  }
  t.print();
  t.print_csv();
  std::printf("Note: multi-process runs ONE closed-loop client (each op is a "
              "full socket round trip); the threaded rows run %zu.\n",
              clients);
}

}  // namespace

int main(int argc, char** argv) {
  // A process re-exec'd as a ProcCluster server never runs the bench.
  if (hts::harness::ProcCluster::serve_child(argc, argv)) return 0;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  std::printf("FIG10 — socket fabric: egress allocations and per-fabric "
              "throughput%s\n\n", quick ? " [quick]" : "");
  bench_allocations(quick);
  bench_fabrics(quick);
  return 0;
}
