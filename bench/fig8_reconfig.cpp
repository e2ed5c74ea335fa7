// FIG8 — live reconfiguration (beyond the paper): what a ring-add costs
// while it happens, and what it buys once it is done.
//
// A saturating write fleet runs against R = 2 rings; mid-run the deployment
// grows to R = 3 (epoch 0 → 1) with the freeze → copy → flip migration of
// DESIGN.md D8 running under the load. The sweep reports:
//
//  1. A time series of aggregate write throughput in fixed buckets: the dip
//     while the reassigned registers are frozen/copied, and the recovery to
//     a higher steady state once the third ring serves its share.
//  2. Migration cost: registers moved (vs the consistent-hash expectation
//     of ~1/3 of the materialised namespace) and MigrateState wire bytes
//     (vs the payload actually reassigned).
//  3. The post-grow steady state against a fresh R = 3 deployment of the
//     same fleet (the fig7 band): growing live must land within a few
//     percent of having deployed R = 3 from the start.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/topology.h"
#include "harness/obs_report.h"
#include "harness/report.h"
#include "harness/sim_cluster.h"
#include "harness/workload.h"
#include "lincheck/checker.h"
#include "obs/export.h"
#include "obs/probe.h"
#include "sim/simulator.h"

namespace {

using namespace hts;
using namespace hts::harness;

double g_warmup = 0.3;
double g_grow_at = 0.8;
double g_total = 2.0;
double g_bucket = 0.1;

constexpr std::size_t kServersPerRing = 3;
constexpr std::size_t kMachines = 6;
constexpr std::size_t kSessionsPerMachine = 2;
constexpr std::size_t kInflight = 16;
constexpr std::size_t kObjects = 64;
constexpr std::size_t kValueSize = 1024;

struct RunResult {
  lincheck::History history;
  core::MigrationStats migration;
  std::vector<std::size_t> rings_by_epoch;
  double reconfig_done_at = -1;
  bool lincheck_ok = false;
  std::string lincheck_explanation;
  /// Ops implicated when a checker fails — joined to their trace spans.
  std::vector<lincheck::Op> witnesses;
};

/// Fixed write fleet against `start_rings` rings; optionally grow by one
/// ring of kServersPerRing at `grow_at` (< 0 = never). When `rec` is set the
/// cluster runs fully instrumented: trace spans, the per-bucket
/// "workload.write_bytes" series (the dip chart's data source) and a final
/// export_metrics() snapshot.
RunResult run(std::size_t start_rings, double grow_at, obs::Recorder* rec) {
  sim::Simulator sim;
  SimClusterConfig cfg;
  cfg.topology = core::Topology{start_rings, kServersPerRing};
  cfg.client_max_inflight = kInflight;
  cfg.client_retry_timeout_s = 0.1;  // migration stalls retry through this
  cfg.recorder = rec;
  SimCluster cluster(sim, cfg);

  obs::TimeSeries* write_series =
      rec != nullptr
          ? rec->registry().series("workload.write_bytes", g_bucket)
          : nullptr;
  obs::TimeSeries* read_series =
      rec != nullptr
          ? rec->registry().series("workload.read_bytes", g_bucket)
          : nullptr;

  RunResult r;
  UniqueValueSource values;
  std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
  std::uint64_t seed = 1;
  const std::size_t total_servers = cluster.n_servers();
  for (std::size_t m = 0; m < kMachines; ++m) {
    const auto machine = cluster.add_client_machine();
    for (std::size_t k = 0; k < kSessionsPerMachine; ++k) {
      const ProcessId preferred = static_cast<ProcessId>(
          (m * kSessionsPerMachine + k) % total_servers);
      cluster.add_client(machine, preferred);
      const ClientId id = static_cast<ClientId>(cluster.client_count() - 1);
      WorkloadConfig wl;
      wl.write_fraction = 1.0;
      wl.value_size = kValueSize;
      wl.stop_at = g_total;
      wl.measure_from = 0;
      wl.measure_until = g_total;
      wl.seed = ++seed;
      wl.n_objects = kObjects;
      wl.pipeline = kInflight;
      wl.start_at = 1e-5 * static_cast<double>(id % 97);
      drivers.push_back(std::make_unique<ClosedLoopDriver>(
          sim, cluster.port(id), id, wl, values, &r.history));
      drivers.back()->set_series(write_series, read_series);
    }
  }
  for (auto& d : drivers) d->start();
  // Outlives the event loop below: the re-scheduling copy references it.
  std::function<void()> watch;
  if (grow_at >= 0) {
    cluster.schedule_add_ring(grow_at, kServersPerRing);
    // Sample when the flip lands (first poll after the epoch advances).
    watch = [&cluster, &sim, &r, &watch] {
      if (cluster.view().epoch >= 1) {
        r.reconfig_done_at = sim.now();
        return;
      }
      sim.schedule(1e-3, watch);
    };
    sim.schedule_at(grow_at, watch);
  }
  sim.run_until(g_total);
  sim.run_to_quiescence();
  for (auto& d : drivers) d->finalize();

  r.migration = cluster.reconfig_stats();
  r.rings_by_epoch = cluster.rings_by_epoch();
  cluster.export_metrics();
  auto verdict = lincheck::check_register(r.history);
  auto strict =
      lincheck::check_ring_assignment(r.history, r.rings_by_epoch);
  r.lincheck_ok = verdict.linearizable && strict.linearizable;
  r.lincheck_explanation =
      verdict.linearizable ? strict.explanation : verdict.explanation;
  r.witnesses = verdict.linearizable ? strict.witnesses : verdict.witnesses;
  return r;
}

/// Aggregate write throughput (Mbit/s of payload) completed in [from, to).
double window_mbps(const lincheck::History& h, double from, double to) {
  std::uint64_t bytes = 0;
  for (const auto& op : h.ops()) {
    if (op.is_read || op.pending()) continue;
    if (op.responded_at >= from && op.responded_at < to) {
      bytes += kValueSize;
    }
  }
  return static_cast<double>(bytes) * 8.0 / 1e6 / (to - from);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  if (quick) {
    g_warmup = 0.1;
    g_grow_at = 0.25;
    g_total = 0.7;
    g_bucket = 0.05;
  }
  std::printf(
      "FIG8 — live reconfiguration: R=2 → 3 grow under a saturating write\n"
      "fleet (%zu servers/ring, %zu machines x %zu sessions x %zu in-flight,"
      "\n%zu objects, %zu B values%s); grow starts at t=%.2fs\n\n",
      kServersPerRing, kMachines, kSessionsPerMachine, kInflight, kObjects,
      kValueSize, quick ? ", quick" : "", g_grow_at);

  obs::Recorder recorder;
  const RunResult grown = run(2, g_grow_at, &recorder);
  const RunResult fresh3 = run(3, -1, nullptr);
  const RunResult fresh2 = run(2, -1, nullptr);

  // ---- 1. throughput time series across the grow --------------------------
  // The data source is the exported "workload.write_bytes" series (payload
  // bytes completed per bucket), not a post-hoc scan of the history — the
  // migration dip is a first-class observability product.
  const std::vector<double> buckets =
      recorder.registry().series("workload.write_bytes", g_bucket)->buckets();
  Table series("Aggregate write throughput per bucket (the dip and the "
               "recovery)",
               {"t from", "t to", "write Mbit/s", "phase"});
  const double done =
      grown.reconfig_done_at > 0 ? grown.reconfig_done_at : g_grow_at;
  for (double t = 0; t + g_bucket <= g_total + 1e-9; t += g_bucket) {
    const auto idx = static_cast<std::size_t>(t / g_bucket + 0.5);
    const double bytes = idx < buckets.size() ? buckets[idx] : 0.0;
    const char* phase = t + g_bucket <= g_grow_at ? "R=2"
                        : t >= done               ? "R=3"
                                                  : "migrating";
    series.add_row({Table::num(t, 2), Table::num(t + g_bucket, 2),
                    Table::num(bytes * 8.0 / 1e6 / g_bucket), phase});
  }
  series.print();
  series.print_csv();
  std::printf("\nflip completed at t=%.4fs (%.1f ms after the grow started)\n",
              done, (done - g_grow_at) * 1e3);

  // ---- 2. migration cost --------------------------------------------------
  const double expected_frac = core::expected_move_fraction(2, 3);
  const double moved_frac =
      static_cast<double>(grown.migration.objects_moved) /
      static_cast<double>(kObjects);
  // Every copy ships ~one value (+ tag/headers) to each of the new ring's
  // servers.
  const double payload_per_copy =
      static_cast<double>(kValueSize) * kServersPerRing;
  Table cost("Migration cost: registers and bytes moved vs the "
             "consistent-hash bound",
             {"metric", "value"});
  cost.add_row({"registers moved", std::to_string(grown.migration.objects_moved) +
                                       " / " + std::to_string(kObjects)});
  cost.add_row({"moved fraction", Table::num(moved_frac, 3)});
  cost.add_row({"expected ~1/(R+1)", Table::num(expected_frac, 3)});
  cost.add_row({"MigrateState wire KB",
                Table::num(static_cast<double>(grown.migration.bytes_moved) /
                               1e3,
                           1)});
  cost.add_row(
      {"≈ payload x copies KB",
       Table::num(static_cast<double>(grown.migration.objects_moved) *
                      payload_per_copy / 1e3,
                  1)});
  cost.add_row({"dedup windows wire KB",
                Table::num(static_cast<double>(grown.migration.dedup_bytes) /
                               1e3,
                           1)});
  cost.print();

  // ---- 3. post-grow steady state vs fresh deployments ---------------------
  const double tail_from = std::max(done + 2 * g_bucket, g_total - 5 * g_bucket);
  const double grown_tail = window_mbps(grown.history, tail_from, g_total);
  const double fresh3_tail = window_mbps(fresh3.history, tail_from, g_total);
  const double fresh2_tail = window_mbps(fresh2.history, tail_from, g_total);
  Table steady("Steady state: the grown deployment vs fresh R=3 and R=2",
               {"deployment", "tail write Mbit/s", "vs fresh R=3"});
  steady.add_row({"R=2 grown to R=3 (live)", Table::num(grown_tail),
                  Table::num(fresh3_tail > 0 ? grown_tail / fresh3_tail : 0,
                             3) +
                      "x"});
  steady.add_row({"fresh R=3", Table::num(fresh3_tail), "1.000x"});
  steady.add_row({"fresh R=2 (never grown)", Table::num(fresh2_tail),
                  Table::num(fresh3_tail > 0 ? fresh2_tail / fresh3_tail : 0,
                             3) +
                      "x"});
  steady.print();
  steady.print_csv();

  std::printf(
      "\nlincheck (epoch-aware, across the boundary): %s%s\n",
      grown.lincheck_ok ? "PASS" : "FAIL",
      grown.lincheck_ok ? "" : (" — " + grown.lincheck_explanation).c_str());
  if (!grown.lincheck_ok) {
    std::printf("%s", harness::dump_witness_spans(recorder.trace(),
                                                  grown.witnesses)
                          .c_str());
  }
  std::printf(
      "\nReading the tables: during the migration window only the ~1/3 of\n"
      "registers moving to the new ring stall (freeze → copy → flip); the\n"
      "rest keep their full throughput, so the dip is shallow and short.\n"
      "After the flip the grown deployment matches a fresh R=3 — elastic\n"
      "scale-out with bytes moved ≈ the reassigned namespace fraction.\n");
  return grown.lincheck_ok ? 0 : 1;
}
