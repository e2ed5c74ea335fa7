// Baseline protocols end-to-end on the simulator: ABD quorum register,
// chain replication, TOB storage. Every recorded history must be
// linearizable — the baselines are real, verified implementations, not straw
// men.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "harness/baseline_cluster.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "lincheck/checker.h"

namespace hts::harness {
namespace {

template <typename Protocol>
struct Fixture {
  sim::Simulator sim;
  std::unique_ptr<BaselineCluster<Protocol>> cluster;
  lincheck::History history;
  UniqueValueSource values;
  std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;

  explicit Fixture(SimClusterConfig cfg) {
    cluster = std::make_unique<BaselineCluster<Protocol>>(sim, cfg);
  }

  void add_driver(ProcessId server, WorkloadConfig wl) {
    const std::size_t m = cluster->add_client_machine();
    const ClientId id = cluster->add_client(m, server);
    drivers.push_back(std::make_unique<ClosedLoopDriver>(
        sim, cluster->port(id), id, wl, values, &history));
  }

  void run(double until) {
    for (auto& d : drivers) d->start();
    sim.run_until(until);
    sim.run_to_quiescence();
    for (auto& d : drivers) d->finalize();
  }
};

/// A simulated deployment of `n` servers, every other field at its default.
SimClusterConfig sim_config(std::size_t n) {
  SimClusterConfig cfg;
  cfg.n_servers = n;
  return cfg;
}

WorkloadConfig mixed(double stop, double wf, std::uint64_t seed) {
  WorkloadConfig wl;
  wl.write_fraction = wf;
  wl.value_size = 1024;
  wl.stop_at = stop;
  wl.measure_from = 0;
  wl.measure_until = stop;
  wl.seed = seed;
  return wl;
}

// --------------------------------------------------------------------- ABD

TEST(AbdBaseline, SequentialWriteRead) {
  Fixture<AbdProtocol> f(sim_config(3));
  f.add_driver(0, mixed(0.3, 0.5, 1));
  f.run(0.3);
  EXPECT_GT(f.history.size(), 10u);
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << res.explanation;
}

TEST(AbdBaseline, ConcurrentClientsLinearizable) {
  Fixture<AbdProtocol> f(sim_config(5));
  for (int i = 0; i < 6; ++i) {
    f.add_driver(static_cast<ProcessId>(i % 5), mixed(0.3, 0.4, 10 + i));
  }
  f.run(0.3);
  EXPECT_GT(f.history.size(), 50u);
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << res.explanation;
  EXPECT_TRUE(lincheck::check_tag_order(f.history).linearizable);
}

TEST(AbdBaseline, ToleratesMinorityCrashes) {
  SimClusterConfig cfg = sim_config(5);
  cfg.client_retry_timeout_s = 0.05;
  Fixture<AbdProtocol> f(cfg);
  for (int i = 0; i < 4; ++i) {
    f.add_driver(static_cast<ProcessId>(i), mixed(0.5, 0.5, 20 + i));
  }
  f.cluster->schedule_crash(0.1, 0);
  f.cluster->schedule_crash(0.2, 3);
  f.run(0.5);
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << res.explanation;
  // Progress continues after both crashes (quorum = 3 of 5 still alive).
  double last = 0;
  for (const auto& op : f.history.ops()) {
    if (!op.pending()) last = std::max(last, op.responded_at);
  }
  EXPECT_GT(last, 0.3);
}

TEST(AbdBaseline, ReadsDoWriteBack) {
  // A reader's write-back phase makes a subsequent reader see the same
  // value even if the writer stalled — white-box: server tags converge.
  Fixture<AbdProtocol> f(sim_config(3));
  f.add_driver(0, mixed(0.05, 1.0, 3));  // brief writer
  f.add_driver(1, mixed(0.20, 0.0, 4));  // reader keeps reading
  f.run(0.25);
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << res.explanation;
}

TEST(AbdBaseline, ServesTheObjectNamespace) {
  // ABD over many registers: per-object quorum state, per-object
  // linearizability — the apples-to-apples setup for fig6/fig7 comparisons.
  Fixture<AbdProtocol> f(sim_config(3));
  for (int i = 0; i < 4; ++i) {
    WorkloadConfig wl = mixed(0.3, 0.5, 40 + i);
    wl.n_objects = 6;
    f.add_driver(static_cast<ProcessId>(i % 3), wl);
  }
  f.run(0.3);
  EXPECT_GT(f.history.size(), 50u);
  std::set<ObjectId> seen;
  for (const auto& op : f.history.ops()) seen.insert(op.object);
  EXPECT_GT(seen.size(), 2u) << "workload must actually span the namespace";
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << res.explanation;
  EXPECT_TRUE(lincheck::check_tag_order(f.history).linearizable);
  // Registers version independently: servers materialise only touched
  // objects and tag spaces stay per register.
  EXPECT_LE(f.cluster->server(0).object_count(), 6u);
}

TEST(AbdBaseline, NamespaceWorksThroughTheExperimentHarness) {
  ExperimentParams p;
  p.n_servers = 3;
  p.reader_machines_per_server = 1;
  p.readers_per_machine = 2;
  p.value_size = 2048;
  p.warmup_s = 0.05;
  p.measure_s = 0.15;
  p.n_objects = 4;
  const auto r = run_abd_experiment(p);
  // The per-object preload wrote every register, so a read-only run over
  // the namespace moves real payload.
  EXPECT_GT(r.read_mbps, 5.0);
  EXPECT_GT(r.reads_per_s, 50.0);
}

template <typename Protocol>
void run_namespace_history_check() {
  // All three baselines serve the keyed namespace: a multi-object mixed
  // workload stays per-object linearizable, registers hold independent
  // values, and tag spaces are per register (monotone within each object).
  Fixture<Protocol> f(sim_config(3));
  for (int i = 0; i < 4; ++i) {
    WorkloadConfig wl = mixed(0.3, 0.5, 40 + i);
    wl.n_objects = 5;
    f.add_driver(static_cast<ProcessId>(i % 3), wl);
  }
  f.run(0.3);
  EXPECT_GT(f.history.size(), 50u);
  std::set<ObjectId> seen;
  for (const auto& op : f.history.ops()) seen.insert(op.object);
  EXPECT_GT(seen.size(), 2u) << "workload must actually span the namespace";
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << res.explanation;
  EXPECT_TRUE(lincheck::check_tag_order(f.history).linearizable);
}

TEST(BaselinePort, ChainServesTheObjectNamespace) {
  run_namespace_history_check<ChainProtocol>();
}

TEST(BaselinePort, TobServesTheObjectNamespace) {
  run_namespace_history_check<TobProtocol>();
}

TEST(BaselinePort, ChainAndTobKeepRegistersIndependent) {
  // Direct unit check: two registers on one chain/TOB hold distinct values.
  baselines::ChainServer chain(0, 1);
  struct Ctx final : baselines::PeerContext {
    std::vector<net::PayloadPtr> client;
    void send_peer(ProcessId, net::PayloadPtr) override {}
    void send_client(ClientId, net::PayloadPtr msg) override {
      client.push_back(std::move(msg));
    }
  } ctx;
  chain.on_client_message(
      baselines::ChainWrite(1, 1, Value::synthetic(10, 16), /*obj=*/4), ctx);
  chain.on_client_message(
      baselines::ChainWrite(1, 2, Value::synthetic(20, 16), /*obj=*/9), ctx);
  EXPECT_EQ(chain.current_value(4), Value::synthetic(10, 16));
  EXPECT_EQ(chain.current_value(9), Value::synthetic(20, 16));
  EXPECT_TRUE(chain.current_value(7).empty()) << "untouched register";
  EXPECT_EQ(chain.object_count(), 2u);

  baselines::TobServer tob(0, 1);
  tob.on_client_message(
      baselines::TobWrite(1, 1, Value::synthetic(30, 16), /*obj=*/4), ctx);
  tob.on_client_message(
      baselines::TobWrite(1, 2, Value::synthetic(40, 16), /*obj=*/9), ctx);
  EXPECT_EQ(tob.current_value(4), Value::synthetic(30, 16));
  EXPECT_EQ(tob.current_value(9), Value::synthetic(40, 16));
  EXPECT_TRUE(tob.current_value(7).empty());
}

TEST(BaselinePort, ChainAndTobWorkThroughTheExperimentHarness) {
  // The PR 4 loud-reject is gone: the namespace shape runs end to end on
  // chain and TOB through the same harness as ABD and the core protocol.
  ExperimentParams p;
  p.n_servers = 3;
  p.reader_machines_per_server = 1;
  p.readers_per_machine = 2;
  p.value_size = 2048;
  p.warmup_s = 0.05;
  p.measure_s = 0.15;
  p.n_objects = 4;
  const auto chain = run_chain_experiment(p);
  EXPECT_GT(chain.read_mbps, 5.0);
  const auto tob = run_tob_experiment(p);
  EXPECT_GT(tob.read_mbps, 1.0);
}

// ------------------------------------------------------------------- chain

TEST(ChainBaseline, SequentialWriteRead) {
  Fixture<ChainProtocol> f(sim_config(3));
  f.add_driver(0, mixed(0.3, 0.5, 5));
  f.run(0.3);
  EXPECT_GT(f.history.size(), 10u);
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << res.explanation;
}

TEST(ChainBaseline, ConcurrentClientsLinearizable) {
  Fixture<ChainProtocol> f(sim_config(4));
  for (int i = 0; i < 6; ++i) {
    f.add_driver(static_cast<ProcessId>(i % 4), mixed(0.3, 0.4, 30 + i));
  }
  f.run(0.3);
  EXPECT_GT(f.history.size(), 50u);
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << res.explanation;
}

TEST(ChainBaseline, SurvivesMiddleAndTailCrash) {
  SimClusterConfig cfg = sim_config(4);
  cfg.client_retry_timeout_s = 0.05;
  Fixture<ChainProtocol> f(cfg);
  for (int i = 0; i < 4; ++i) {
    f.add_driver(static_cast<ProcessId>(i), mixed(0.6, 0.5, 40 + i));
  }
  f.cluster->schedule_crash(0.15, 1);  // middle
  f.cluster->schedule_crash(0.30, 3);  // tail
  f.run(0.6);
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << res.explanation;
  double last = 0;
  for (const auto& op : f.history.ops()) {
    if (!op.pending()) last = std::max(last, op.responded_at);
  }
  EXPECT_GT(last, 0.4);
}

TEST(ChainBaseline, SurvivesHeadCrash) {
  SimClusterConfig cfg = sim_config(3);
  cfg.client_retry_timeout_s = 0.05;
  Fixture<ChainProtocol> f(cfg);
  for (int i = 0; i < 3; ++i) {
    f.add_driver(static_cast<ProcessId>(i), mixed(0.5, 0.6, 50 + i));
  }
  f.cluster->schedule_crash(0.15, 0);  // head
  f.run(0.5);
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << res.explanation;
  double last = 0;
  for (const auto& op : f.history.ops()) {
    if (!op.pending()) last = std::max(last, op.responded_at);
  }
  EXPECT_GT(last, 0.3);
}

// --------------------------------------------------------------------- TOB

TEST(TobBaseline, SequentialWriteRead) {
  Fixture<TobProtocol> f(sim_config(3));
  f.add_driver(0, mixed(0.3, 0.5, 7));
  f.run(0.3);
  EXPECT_GT(f.history.size(), 10u);
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << res.explanation;
}

TEST(TobBaseline, ConcurrentClientsAcrossServers) {
  Fixture<TobProtocol> f(sim_config(5));
  for (int i = 0; i < 8; ++i) {
    f.add_driver(static_cast<ProcessId>(i % 5), mixed(0.3, 0.3, 60 + i));
  }
  f.run(0.3);
  EXPECT_GT(f.history.size(), 50u);
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << res.explanation;
  EXPECT_TRUE(lincheck::check_tag_order(f.history).linearizable);
}

TEST(TobBaseline, TokenParksWhenIdle) {
  // After load stops, the simulator must reach quiescence — the token may
  // not spin forever (the park/nudge mechanism).
  Fixture<TobProtocol> f(sim_config(4));
  f.add_driver(2, mixed(0.05, 0.5, 70));
  f.run(0.05);
  // run() already drained to quiescence: if the token spun forever this
  // test would hang. Check someone holds it.
  int holders = 0;
  for (ProcessId p = 0; p < 4; ++p) {
    if (f.cluster->server(p).holds_token()) ++holders;
  }
  EXPECT_EQ(holders, 1);
}

// ---------------------------------------------------- cross-protocol sweep

template <typename Protocol>
void run_property(std::uint64_t seed) {
  Rng rng(seed);
  SimClusterConfig cfg;
  cfg.n_servers = 3 + rng.below(3);
  Fixture<Protocol> f(cfg);
  for (ProcessId s = 0; s < cfg.n_servers; ++s) {
    f.add_driver(s, mixed(0.3, 0.2 + rng.unit() * 0.6, seed * 31 + s));
  }
  f.run(0.3);
  auto res = lincheck::check_register(f.history);
  EXPECT_TRUE(res.linearizable) << Protocol::kName << " seed=" << seed << ": "
                                << res.explanation;
}

class BaselineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BaselineProperty, AbdLinearizable) { run_property<AbdProtocol>(GetParam()); }
TEST_P(BaselineProperty, ChainLinearizable) {
  run_property<ChainProtocol>(GetParam());
}
TEST_P(BaselineProperty, TobLinearizable) { run_property<TobProtocol>(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace hts::harness
