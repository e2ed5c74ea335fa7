// Race stress suite (ctest -L tsan) — the workload the TSan CI job exists
// for. Each test hammers a cross-thread seam of the threaded fabric that the
// thread-safety annotation pass (DESIGN.md D10) locked down:
//
//   * concurrent client sessions across a live ring grow plus a crash
//     (the end-to-end drill, checked for linearizability afterwards);
//   * ViewRegistry publish/refresh from many threads (epoch monotonicity);
//   * the coordinator-race regressions: view()/rings_by_epoch()/history()
//     observed from a non-controlling thread while add_ring runs, and
//     live register_node()/crash()/send() racing on the transport
//     (the started_/stopping_/up lifecycle atomics);
//   * log level flips concurrent with logging threads (atomic Level).
//
// Under plain builds these are fast functional tests; under
// -DHTS_SANITIZE=thread they are the race detector's food.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <future>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "common/value.h"
#include "core/messages.h"
#include "core/reconfig.h"
#include "core/topology.h"
#include "harness/threaded_cluster.h"
#include "lincheck/checker.h"
#include "net/inmem_transport.h"

namespace hts::harness {
namespace {

// ------------------------------------------------------------- end-to-end

TEST(RaceStress, ConcurrentSessionsLiveGrowAndCrash) {
  const core::Topology topo{2, 3};
  ThreadedClusterConfig cfg;
  cfg.topology = topo;
  cfg.client_retry_timeout_s = 0.05;
  cfg.client_max_inflight = 8;
  ThreadedCluster cluster(cfg);
  std::vector<ThreadedCluster::BlockingClient*> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(&cluster.add_client(topo.global_id(i % 2, 0)));
  }
  cluster.start();

  const std::size_t kObjects = 16;
  std::vector<std::future<core::OpResult>> acks;
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    acks.push_back(clients[obj % 4]->async_write(obj,
                                                 Value::synthetic(obj, 64)));
  }
  for (auto& a : acks) (void)a.get();
  acks.clear();

  // Keep four sessions writing while the ring is added and a server dies —
  // every client thread races the coordinator's freeze → copy → flip.
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    acks.push_back(clients[(obj + 1) % 4]->async_write(
        obj, Value::synthetic(100 + obj, 64)));
  }
  cluster.crash_server(topo.global_id(0, 2));
  const Epoch e = cluster.add_ring(3);
  EXPECT_EQ(e, 1u);
  for (auto& a : acks) (void)a.get();
  acks.clear();
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    acks.push_back(clients[obj % 4]->async_write(
        obj, Value::synthetic(200 + obj, 64)));
  }
  for (auto& a : acks) (void)a.get();
  ASSERT_TRUE(cluster.wait_quiescent(5.0));

  auto h = cluster.history();
  auto verdict = lincheck::check_register(h);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  auto strict = lincheck::check_ring_assignment(h, cluster.rings_by_epoch());
  EXPECT_TRUE(strict.linearizable) << strict.explanation;
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    EXPECT_EQ(clients[0]->read(obj), Value::synthetic(200 + obj, 64));
  }
}

// ----------------------------------------------------- ViewRegistry hammer

TEST(RaceStress, ViewRegistryPublishRefreshHammer) {
  // One publisher walks the epoch forward while readers refresh as fast as
  // they can — the exact shape of the coordinator publishing a flip while
  // every client session's view provider polls. Readers must only ever see
  // monotonically non-decreasing epochs.
  constexpr Epoch kEpochs = 200;
  constexpr int kReaders = 4;
  core::ViewRegistry registry(
      core::ClusterView{0, core::Topology::single(3)});

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::atomic<bool> monotonic{true};
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      Epoch last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const core::ClusterView v = registry.get();
        if (v.epoch < last) monotonic.store(false);
        last = v.epoch;
      }
    });
  }
  for (Epoch e = 1; e <= kEpochs; ++e) {
    registry.publish(core::ClusterView{e, core::Topology::single(3)});
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_TRUE(monotonic.load());
  EXPECT_EQ(registry.get().epoch, kEpochs);
}

// -------------------------------------------- coordinator-race regressions

TEST(RaceStress, ObserversDuringLiveReconfig) {
  // Regression: view_/rings_by_epoch_ used to be read bare by the
  // controlling thread while the coordinator rewrote them mid-migration;
  // both now live under views_mu_. An observer thread hammers the locked
  // accessors (plus history()) across a live grow and shrink.
  const core::Topology topo{2, 3};
  ThreadedClusterConfig cfg;
  cfg.topology = topo;
  cfg.client_retry_timeout_s = 0.05;
  ThreadedCluster cluster(cfg);
  auto& writer = cluster.add_client(0);
  cluster.start();

  std::atomic<bool> done{false};
  std::atomic<bool> ok{true};
  std::thread observer([&] {
    Epoch last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const core::ClusterView v = cluster.view();
      const auto rings = cluster.rings_by_epoch();
      // Epochs advance one at a time; the rings-per-epoch table always
      // covers every epoch published so far.
      if (v.epoch < last || rings.size() < v.epoch + 1) ok.store(false);
      last = v.epoch;
      (void)cluster.history();
    }
  });

  std::vector<std::future<core::OpResult>> acks;
  for (ObjectId obj = 1; obj <= 12; ++obj) {
    acks.push_back(writer.async_write(obj, Value::synthetic(obj, 64)));
  }
  EXPECT_EQ(cluster.add_ring(3), 1u);
  for (auto& a : acks) (void)a.get();
  acks.clear();
  for (ObjectId obj = 1; obj <= 12; ++obj) {
    acks.push_back(writer.async_write(obj, Value::synthetic(50 + obj, 64)));
  }
  EXPECT_EQ(cluster.remove_last_ring(), 2u);
  for (auto& a : acks) (void)a.get();
  ASSERT_TRUE(cluster.wait_quiescent(5.0));

  done.store(true, std::memory_order_release);
  observer.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(cluster.view().epoch, 2u);
  EXPECT_EQ(cluster.rings_by_epoch(), (std::vector<std::size_t>{2, 3, 2}));

  auto verdict = lincheck::check_register(cluster.history());
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
}

TEST(RaceStress, LiveRegistrationDuringTrafficAndCrash) {
  // Regression: started_/stopping_ were plain bools and the per-send check
  // took a global state mutex guarding another struct's member; both are
  // atomics now. Traffic flows between two nodes while a second thread
  // registers fresh nodes live (the ring-grow path) and a third crashes a
  // destination mid-stream.
  net::InMemTransport t(0.001);
  std::atomic<std::uint64_t> base_received{0};
  std::atomic<std::uint64_t> late_received{0};
  t.register_node(net::NodeAddress::server(0),
                  [&](net::NodeAddress, net::PayloadPtr) { ++base_received; });
  t.register_node(net::NodeAddress::server(1),
                  [&](net::NodeAddress, net::PayloadPtr) { ++base_received; });
  t.register_node(net::NodeAddress::server(2),
                  [&](net::NodeAddress, net::PayloadPtr) { ++base_received; });
  t.start();

  constexpr int kLateNodes = 8;
  constexpr int kSendsPerWave = 200;
  std::thread sender([&] {
    for (int i = 0; i < kSendsPerWave; ++i) {
      t.send(net::NodeAddress::server(0), net::NodeAddress::server(1),
             net::make_payload<core::ClientWriteAck>(static_cast<RequestId>(i),
                                                     kDefaultObject));
      t.send(net::NodeAddress::server(1), net::NodeAddress::server(2),
             net::make_payload<core::ClientWriteAck>(static_cast<RequestId>(i),
                                                     kDefaultObject));
    }
  });
  std::thread grower([&] {
    for (int i = 0; i < kLateNodes; ++i) {
      const auto addr = net::NodeAddress::server(100 + i);
      t.register_node(addr, [&](net::NodeAddress, net::PayloadPtr) {
        ++late_received;
      });
      t.send(net::NodeAddress::server(0), addr,
             net::make_payload<core::ClientWriteAck>(static_cast<RequestId>(i),
                                                     kDefaultObject));
    }
  });
  std::thread crasher([&] { t.crash(net::NodeAddress::server(2)); });
  sender.join();
  grower.join();
  crasher.join();
  ASSERT_TRUE(t.wait_quiescent(5.0));

  // Every send to a live late-registered node was delivered; node 2's
  // deliveries stop at the crash (racing sends may drop, never deliver
  // after death).
  EXPECT_EQ(late_received.load(), static_cast<std::uint64_t>(kLateNodes));
  EXPECT_GE(base_received.load(), static_cast<std::uint64_t>(kSendsPerWave));
  EXPECT_FALSE(t.is_up(net::NodeAddress::server(2)));
  EXPECT_TRUE(t.is_up(net::NodeAddress::server(100)));
  t.stop();
}

TEST(RaceStress, LogLevelFlipsConcurrentWithLogging) {
  // Regression: the log level was a plain static read by every logging
  // thread while tests flipped it; it is an atomic now. Writers log at
  // debug (never enabled here, so stderr stays quiet) while the flipper
  // toggles between kNone and kInfo.
  const log::Level saved = log::level();
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  writers.reserve(3);
  for (int i = 0; i < 3; ++i) {
    writers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        log::debug([] { return std::string("race stress probe"); });
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    log::set_level(i % 2 == 0 ? log::Level::kNone : log::Level::kInfo);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  log::set_level(saved);
  SUCCEED();
}

}  // namespace
}  // namespace hts::harness
