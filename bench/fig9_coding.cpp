// FIG9 — erasure-coded value plane (beyond the paper): saturated write
// throughput and per-server wire/storage cost of coded values vs the
// paper's replicated protocol, swept over value size × {replicated,
// coded k=2, coded k=3}.
//
// Mechanism under test (DESIGN.md §Coded values, D11): a replicated write
// pushes the full value through the sticky server and then around the ring
// inside PreWrite — every server's NIC carries ~|v| per write. A coded
// write sends fragment i (|v|/k bytes) straight to ring member i and the
// ring circulates a metadata-only PreWriteFrag, so each server's wire AND
// storage cost drops to ~|v|/k. The win grows with |v| (at small values
// the fixed per-message overheads dominate and the plane's threshold knob
// keeps them replicated); at 8 KiB, coded k=2 should beat replicated by
// >= 1.5x on write throughput.
//
// The second section runs the same comparison on the threaded fabric
// (real threads + in-memory transport, wall-clock): no calibrated link
// model there, so the numbers only show the plane works end-to-end off
// the simulator; the sim table is the measured claim.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "code/policy.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/threaded_cluster.h"
#include "obs/export.h"
#include "obs/probe.h"

namespace {

hts::code::ValuePolicy coded(std::size_t k) {
  hts::code::ValuePolicy pol;
  pol.k = k;
  pol.min_value_size = 256;  // small values stay on the replicated fast path
  pol.gc_keep = 1;
  return pol;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hts::harness;
  // --quick: CI smoke mode — tiny windows, minimal sweep; numbers are not
  // meaningful, only that the bench still builds, runs and prints.
  // --metrics-json PATH: attach an observability recorder and write the
  // last coded run's full export to PATH — CI validates it against
  // tools/metrics_schema.json (including the code.* / gc.* counters).
  bool quick = false;
  const char* metrics_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    }
  }
  std::printf("FIG9 — write throughput & per-server cost: replicated vs "
              "coded (n = 5 ring)%s\n",
              quick ? " [quick]" : "");

  struct Config {
    const char* name;
    hts::code::ValuePolicy policy;
  };
  const std::vector<Config> configs =
      quick ? std::vector<Config>{{"replicated", {}}, {"coded k=2", coded(2)}}
            : std::vector<Config>{{"replicated", {}},
                                  {"coded k=2", coded(2)},
                                  {"coded k=3", coded(3)}};
  const std::vector<std::size_t> value_sizes =
      quick ? std::vector<std::size_t>{8192}
            : std::vector<std::size_t>{512, 2048, 8192};

  std::string last_export;
  for (const std::size_t value_size : value_sizes) {
    Table table("Figure 9: saturated writes, value size " +
                    std::to_string(value_size) + " B",
                {"config", "total write Mbit/s", "vs replicated",
                 "srv-net B/wr/srv", "cli-net B/wr/srv", "stored B/srv"});
    double baseline = 0;
    for (const Config& c : configs) {
      ExperimentParams p;
      p.n_servers = 5;
      p.reader_machines_per_server = 0;
      p.writer_machines_per_server = 2;
      p.writers_per_machine = 8;
      p.value_size = value_size;
      p.value_policy = c.policy;
      if (quick) {
        p.warmup_s = 0.05;
        p.measure_s = 0.15;
      }
      std::unique_ptr<hts::obs::Recorder> rec;
      if (metrics_path != nullptr && c.policy.active()) {
        rec = std::make_unique<hts::obs::Recorder>();
        p.recorder = rec.get();
      }
      ExperimentResult r = run_core_experiment(p);
      if (rec) last_export = hts::obs::recorder_to_json(*rec);
      if (baseline == 0) baseline = r.write_mbps;
      // Per-write per-server wire bytes: network totals cover the whole
      // run, so approximate total writes by the measured rate times the
      // full run length (closed-loop drivers hold the rate steady).
      const double total_writes =
          r.writes_per_s * (p.warmup_s + p.measure_s);
      const double per_wr_srv = total_writes > 0
          ? static_cast<double>(r.server_net_bytes) /
                (total_writes * static_cast<double>(r.n_servers))
          : 0;
      const double per_wr_cli = total_writes > 0
          ? static_cast<double>(r.client_net_bytes) /
                (total_writes * static_cast<double>(r.n_servers))
          : 0;
      table.add_row(
          {c.name, Table::num(r.write_mbps),
           Table::num(baseline > 0 ? r.write_mbps / baseline : 1.0, 2) + "x",
           Table::num(per_wr_srv, 0), Table::num(per_wr_cli, 0),
           Table::num(static_cast<double>(r.fragment_bytes) /
                          static_cast<double>(r.n_servers),
                      0)});
    }
    table.print();
    table.print_csv();
    std::printf("\n");
  }
  std::printf(
      "Reading the sweep: coded writes move each server's wire cost from\n"
      "~|v| (value riding the ring in PreWrite) to ~|v|/k (one fragment on\n"
      "the client network, metadata-only ring), and storage likewise holds\n"
      "|v|/k per server (times 1 + gc_keep tags until the watermark\n"
      "reclaims). The gain grows with |v|; below the policy threshold\n"
      "values stay replicated, so small-value latency is untouched.\n\n");

  // -------------------------------------------------- threaded fabric
  {
    Table table("Figure 9 (threaded fabric, wall-clock): 8 KiB writes",
                {"config", "writes/s", "vs replicated"});
    const auto window =
        std::chrono::milliseconds(quick ? 100 : 400);
    double baseline = 0;
    for (const Config& c : configs) {
      ThreadedClusterConfig cfg;
      cfg.n_servers = 5;
      cfg.record_history = false;  // benchmark, not a lincheck run
      cfg.value_policy = c.policy;
      ThreadedCluster cluster(cfg);
      std::vector<ThreadedCluster::BlockingClient*> clients;
      for (int i = 0; i < 4; ++i) {
        clients.push_back(&cluster.add_client(static_cast<hts::ProcessId>(i)));
      }
      cluster.start();
      std::atomic<std::uint64_t> ops{0};
      std::atomic<bool> stop{false};
      std::vector<std::thread> threads;
      for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&, i] {
          auto* cl = clients[static_cast<std::size_t>(i)];
          std::uint64_t seed = static_cast<std::uint64_t>(i) << 32;
          while (!stop.load(std::memory_order_relaxed)) {
            ++seed;
            cl->write(static_cast<hts::ObjectId>(seed % 4),
                      hts::Value::synthetic(seed, 8192));
            ops.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      const auto t0 = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(window);
      stop.store(true);
      for (auto& t : threads) t.join();
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double rate = static_cast<double>(ops.load()) / secs;
      if (baseline == 0) baseline = rate;
      table.add_row({c.name, Table::num(rate, 0),
                     Table::num(baseline > 0 ? rate / baseline : 1.0, 2) +
                         "x"});
    }
    table.print();
    std::printf("\n");
  }

  if (metrics_path != nullptr) {
    if (last_export.empty() || !hts::obs::write_file(metrics_path,
                                                     last_export)) {
      std::fprintf(stderr, "failed to write %s\n", metrics_path);
      return 1;
    }
    std::printf("metrics: wrote %s (last coded run)\n", metrics_path);
  }
  return 0;
}
