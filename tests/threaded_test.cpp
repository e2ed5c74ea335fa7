// Integration tests on the threaded fabric: real threads, real concurrency,
// blocking clients, crash injection — and linearizability of everything that
// happened.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "harness/threaded_cluster.h"
#include "lincheck/checker.h"

namespace hts::harness {
namespace {

TEST(ThreadedCluster, SequentialReadWrite) {
  ThreadedClusterConfig cfg;
  cfg.n_servers = 3;
  ThreadedCluster cluster(cfg);
  auto& client = cluster.add_client(0);
  cluster.start();

  EXPECT_TRUE(client.read(kDefaultObject).empty());
  client.write(kDefaultObject, Value::synthetic(1, 128));
  EXPECT_EQ(client.read(kDefaultObject), Value::synthetic(1, 128));
  client.write(kDefaultObject, Value::synthetic(2, 128));
  auto r = client.read_result(kDefaultObject);
  EXPECT_EQ(r.value, Value::synthetic(2, 128));
  EXPECT_EQ(r.tag, (Tag{2, 0}));

  auto verdict = lincheck::check_register(cluster.history());
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
}

TEST(ThreadedCluster, IdleRingCompletesAnOpBeforeTheCallReturns) {
  // On a quiescent in-memory cluster every loop is parked, so a caller's
  // async_write or async_read runs client → s0 → s1 → s2 inline on the
  // caller's own thread, and each node's holder drains the sends back into
  // it: the returned future is already ready. A loop that has not parked
  // yet (or a retry timer firing) posts instead, so each op may retry.
  ThreadedClusterConfig cfg;
  cfg.n_servers = 3;
  ThreadedCluster cluster(cfg);
  auto& client = cluster.add_client(0);
  cluster.start();
  const auto settle = [&] {
    const bool quiet = cluster.wait_quiescent(5.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return quiet;
  };
  constexpr int kOps = 10;
  constexpr int kAttempts = 5;
  std::uint64_t seed = 0;
  for (int op = 0; op < kOps; ++op) {
    bool write_ready = false;
    for (int i = 0; i < kAttempts && !write_ready; ++i) {
      ASSERT_TRUE(settle());
      auto fut = client.async_write(kDefaultObject,
                                    Value::synthetic(++seed, 64));
      write_ready = fut.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready;
      ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
                std::future_status::ready);
    }
    EXPECT_TRUE(write_ready) << "write " << op << " returned a pending future";
    bool read_ready = false;
    for (int i = 0; i < kAttempts && !read_ready; ++i) {
      ASSERT_TRUE(settle());
      auto fut = client.async_read(kDefaultObject);
      read_ready = fut.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
      ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
                std::future_status::ready);
      EXPECT_EQ(fut.get().value.synthetic_seed(), seed);
    }
    EXPECT_TRUE(read_ready) << "read " << op << " returned a pending future";
  }
  auto verdict = lincheck::check_register(cluster.history());
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
}

TEST(ThreadedCluster, ReadYourOwnWritesAcrossServers) {
  ThreadedClusterConfig cfg;
  cfg.n_servers = 5;
  ThreadedCluster cluster(cfg);
  auto& writer = cluster.add_client(0);
  std::vector<ThreadedCluster::BlockingClient*> readers;
  for (ProcessId p = 0; p < 5; ++p) readers.push_back(&cluster.add_client(p));
  cluster.start();

  for (std::uint64_t v = 1; v <= 10; ++v) {
    writer.write(kDefaultObject, Value::synthetic(v, 64));
    // Every server must serve the just-written value (write-all-available).
    for (auto* r : readers) {
      EXPECT_EQ(r->read(kDefaultObject).synthetic_seed(), v);
    }
  }
  auto verdict = lincheck::check_register(cluster.history());
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
}

TEST(ThreadedCluster, ConcurrentClientsLinearizable) {
  ThreadedClusterConfig cfg;
  cfg.n_servers = 4;
  ThreadedCluster cluster(cfg);
  std::vector<ThreadedCluster::BlockingClient*> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(&cluster.add_client(static_cast<ProcessId>(i % 4)));
  }
  cluster.start();

  std::atomic<std::uint64_t> seed{1};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      auto* c = clients[static_cast<std::size_t>(i)];
      for (int op = 0; op < 30; ++op) {
        if ((op + i) % 3 == 0) {
          c->write(kDefaultObject, Value::synthetic(seed.fetch_add(1), 256));
        } else {
          (void)c->read(kDefaultObject);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  auto h = cluster.history();
  EXPECT_EQ(h.size(), 8u * 30u);
  auto verdict = lincheck::check_register(h);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  EXPECT_TRUE(lincheck::check_tag_order(h).linearizable);
}

TEST(ThreadedCluster, SurvivesCrashesUnderConcurrentLoad) {
  ThreadedClusterConfig cfg;
  cfg.n_servers = 4;
  cfg.client_retry_timeout_s = 0.05;
  ThreadedCluster cluster(cfg);
  std::vector<ThreadedCluster::BlockingClient*> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(&cluster.add_client(static_cast<ProcessId>(i % 4)));
  }
  cluster.start();

  std::atomic<std::uint64_t> seed{1};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&, i] {
      auto* c = clients[static_cast<std::size_t>(i)];
      std::uint64_t op = 0;
      while (!stop.load()) {
        if ((op++ + static_cast<std::uint64_t>(i)) % 2 == 0) {
          c->write(kDefaultObject, Value::synthetic(seed.fetch_add(1), 128));
        } else {
          (void)c->read(kDefaultObject);
        }
      }
    });
  }

  // Crash two of four servers while the load runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cluster.crash_server(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cluster.crash_server(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true);
  for (auto& t : threads) t.join();

  EXPECT_FALSE(cluster.server_up(0));
  EXPECT_FALSE(cluster.server_up(2));
  EXPECT_TRUE(cluster.server_up(1));
  EXPECT_TRUE(cluster.server_up(3));

  auto verdict = lincheck::check_register(cluster.history());
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  EXPECT_GT(cluster.history().size(), 50u);
}

TEST(ThreadedCluster, WriteAfterAllButOneCrashed) {
  ThreadedClusterConfig cfg;
  cfg.n_servers = 3;
  cfg.client_retry_timeout_s = 0.05;
  ThreadedCluster cluster(cfg);
  auto& client = cluster.add_client(0);
  cluster.start();

  client.write(kDefaultObject, Value::synthetic(1, 64));
  cluster.crash_server(0);
  cluster.crash_server(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // Server 1 is the sole survivor; the client times out on its preferred
  // server and rotates to it.
  client.write(kDefaultObject, Value::synthetic(2, 64));
  EXPECT_EQ(client.read(kDefaultObject).synthetic_seed(), 2u);

  auto verdict = lincheck::check_register(cluster.history());
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
}

}  // namespace
}  // namespace hts::harness
