// The object namespace end to end: per-object server state behind one ring
// and one fairness pipeline, per-object linearizability checking, and
// pipelined client sessions under crashes and retries on both fabrics.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/messages.h"
#include "core/server.h"
#include "harness/experiment.h"
#include "harness/sim_cluster.h"
#include "harness/threaded_cluster.h"
#include "harness/workload.h"
#include "lincheck/checker.h"
#include "ring_test_util.h"
#include "sim/simulator.h"

namespace hts::core {
namespace {

using test::MiniRing;
using test::MockCtx;

TEST(MultiObjectServer, ObjectsVersionIndependently) {
  MiniRing ring(3);
  ring.at(0).on_client_write(7, 1, Value::synthetic(1, 64), ring.ctx(),
                             /*object=*/10);
  ring.at(1).on_client_write(8, 1, Value::synthetic(2, 64), ring.ctx(),
                             /*object=*/20);
  ring.settle();

  for (ProcessId p = 0; p < 3; ++p) {
    // Each register got its own first timestamp: tag spaces are disjoint.
    EXPECT_EQ(ring.at(p).current_tag(10), (Tag{1, 0})) << "server " << p;
    EXPECT_EQ(ring.at(p).current_tag(20), (Tag{1, 1})) << "server " << p;
    EXPECT_EQ(ring.at(p).current_value(10), Value::synthetic(1, 64));
    EXPECT_EQ(ring.at(p).current_value(20), Value::synthetic(2, 64));
    // The default register is untouched.
    EXPECT_EQ(ring.at(p).current_tag(kDefaultObject), kInitialTag);
    EXPECT_TRUE(ring.at(p).current_value(kDefaultObject).empty());
  }
  EXPECT_EQ(ring.ctx().acks_for(7, 1), 1);
  EXPECT_EQ(ring.ctx().acks_for(8, 1), 1);
}

TEST(MultiObjectServer, ReadOfUntouchedObjectIsImmediateAndInitial) {
  MiniRing ring(3);
  ring.at(1).on_client_read(9, 1, ring.ctx(), /*object=*/42);
  const auto* ack = ring.ctx().last_read_ack(9);
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->value.empty());
  EXPECT_EQ(ack->tag, kInitialTag);
  EXPECT_EQ(ack->object, 42u);
  EXPECT_EQ(ring.at(1).stats().reads_immediate, 1u);
  // Reads must not materialise per-object state (unbounded namespace).
  EXPECT_EQ(ring.at(1).object_count(), 1u);  // the default register only
}

TEST(MultiObjectServer, ReadsParkPerObjectNotPerServer) {
  MiniRing ring(3);
  // A pre-write for object 10 transits server 1 and becomes pending there.
  ring.at(1).on_ring_message(
      net::make_payload<PreWrite>(Tag{1, 0}, Value::synthetic(1, 32), 7, 1,
                                  /*object=*/10),
      ring.ctx());
  ASSERT_TRUE(ring.at(1).next_ring_send().has_value());  // forward → pending
  ASSERT_TRUE(ring.at(1).pending(10).contains(Tag{1, 0}));

  // A read of object 10 parks behind the pending pre-write; a read of
  // object 20 is untouched by it and must be served immediately.
  ring.at(1).on_client_read(9, 1, ring.ctx(), /*object=*/10);
  EXPECT_EQ(ring.at(1).parked_read_count(10), 1u);
  ring.at(1).on_client_read(9, 2, ring.ctx(), /*object=*/20);
  EXPECT_EQ(ring.at(1).stats().reads_immediate, 1u);
  EXPECT_EQ(ring.at(1).parked_read_count(20), 0u);

  // The commit for object 10 unparks its reader with the committed value.
  ring.at(1).on_ring_message(
      net::make_payload<WriteCommit>(Tag{1, 0}, 7, 1, /*object=*/10),
      ring.ctx());
  EXPECT_EQ(ring.at(1).parked_read_count(10), 0u);
  const auto* ack = ring.ctx().last_read_ack(9);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->object, 10u);
  EXPECT_EQ(ack->value, Value::synthetic(1, 32));
}

TEST(MultiObjectServer, CommitsForManyObjectsShareOneRingTrain) {
  // Writes to k distinct objects initiated at one server leave in a single
  // batch — the amortisation the namespace exists to multiply.
  ServerOptions opts;
  opts.max_batch = 8;
  RingServer server(0, 3, opts);
  MockCtx ctx;
  for (RequestId r = 1; r <= 5; ++r) {
    server.on_client_write(7, r, Value::synthetic(r, 32), ctx,
                           /*object=*/100 + r);
  }
  auto batch = server.next_ring_batch();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->msgs.size(), 5u);
  std::set<ObjectId> objects;
  for (const auto& m : batch->msgs) {
    ASSERT_EQ(m->kind(), kPreWrite);
    objects.insert(static_cast<const PreWrite&>(*m).object);
  }
  EXPECT_EQ(objects.size(), 5u);
  EXPECT_EQ(server.stats().batches_out, 1u);
}

TEST(MultiObjectServer, CrashRepairSyncsWrittenObjectsOnly) {
  MiniRing ring(3);
  ring.at(0).on_client_write(7, 1, Value::synthetic(1, 32), ring.ctx(),
                             /*object=*/0);
  ring.at(0).on_client_write(7, 2, Value::synthetic(2, 32), ring.ctx(),
                             /*object=*/5);
  ring.settle();

  // Object 9 was touched at server 0 (an early commit materialised its
  // record) but never written there: its tag is initial, so splice repair
  // must not waste a SyncState on it.
  ring.at(0).on_ring_message(
      net::make_payload<WriteCommit>(Tag{1, 1}, 8, 1, /*object=*/9),
      ring.ctx());
  ASSERT_EQ(ring.at(0).current_tag(9), kInitialTag);

  // Server 1 is server 0's successor; its death forces a splice repair.
  ring.crash(1);
  std::vector<ObjectId> synced;
  while (auto send = ring.at(0).next_ring_send()) {
    if (send->msg->kind() == kSyncState) {
      synced.push_back(static_cast<const SyncState&>(*send->msg).object);
    }
    ring.at(send->to).on_ring_message(std::move(send->msg), ring.ctx());
  }
  ring.settle();
  // One SyncState per written register, default object first; the
  // initial-state object 9 is skipped.
  EXPECT_EQ(synced, (std::vector<ObjectId>{0, 5}));
  EXPECT_EQ(ring.at(0).stats().syncs_sent, 2u);
  EXPECT_EQ(ring.at(2).current_value(5), Value::synthetic(2, 32));
}

TEST(MultiObjectServer, RetryDedupSurvivesOutOfOrderCompletions) {
  // A pipelined client's writes to two objects complete out of order. A
  // transit server that saw both commits must ack a retried copy of either
  // without re-applying it (D6: watermark + out-of-order set).
  MiniRing ring(3);
  auto& transit = ring.at(2);
  // Commits circulate (pre-writes already passed; simulate the non-FIFO
  // worst case where only commits are seen — early-commit path).
  transit.on_ring_message(
      net::make_payload<WriteCommit>(Tag{1, 0}, /*client=*/5, /*req=*/2,
                                     /*object=*/20),
      ring.ctx());
  transit.on_ring_message(
      net::make_payload<WriteCommit>(Tag{1, 0}, /*client=*/5, /*req=*/1,
                                     /*object=*/10),
      ring.ctx());

  // Retries of both completed writes: acked without touching the ring.
  const auto writes_before = transit.write_queue_depth();
  transit.on_client_write(5, 1, Value::synthetic(1, 32), ring.ctx(),
                          /*object=*/10);
  transit.on_client_write(5, 2, Value::synthetic(2, 32), ring.ctx(),
                          /*object=*/20);
  EXPECT_EQ(transit.stats().dedup_acks, 2u);
  EXPECT_EQ(transit.write_queue_depth(), writes_before);
  EXPECT_EQ(ring.ctx().acks_for(5, 1), 1);
  EXPECT_EQ(ring.ctx().acks_for(5, 2), 1);

  // A fresh request is not deduplicated.
  transit.on_client_write(5, 3, Value::synthetic(3, 32), ring.ctx(),
                          /*object=*/30);
  EXPECT_EQ(transit.stats().dedup_acks, 2u);
  EXPECT_EQ(transit.write_queue_depth(), writes_before + 1);
}

}  // namespace
}  // namespace hts::core

namespace hts::lincheck {
namespace {

TEST(MultiObjectLincheck, CrossObjectHistoryPassesPerObjectButFailsMerged) {
  // The satellite regression: a history that is per-object linearizable but
  // that the pre-namespace checker — which merged every op into one
  // register — would (rightly, for one register) reject.
  //
  //   object 1: write(v1) completes in [0, 1]
  //   object 2: read -> initial in [2, 3]
  //
  // Per object this is trivially fine; merged into a single register, the
  // read returns the initial value strictly after v1's write completed —
  // a stale read.
  History per_object;
  per_object.record_write(/*c=*/1, /*value=*/1, 0.0, 1.0, /*object=*/1);
  per_object.record_read(/*c=*/2, kInitialValueId, 2.0, 3.0, kInitialTag,
                         /*object=*/2);
  EXPECT_TRUE(check_register(per_object).linearizable);
  EXPECT_TRUE(check_register_brute(per_object).linearizable);

  History merged;  // the same ops as the old single-register view saw them
  merged.record_write(1, 1, 0.0, 1.0, kDefaultObject);
  merged.record_read(2, kInitialValueId, 2.0, 3.0, kInitialTag, kDefaultObject);
  auto verdict = check_register(merged);
  EXPECT_FALSE(verdict.linearizable);
  EXPECT_FALSE(check_register_brute(merged).linearizable);
}

TEST(MultiObjectLincheck, ViolationInsideOneObjectIsStillCaught) {
  // Same-object stale read must fail even when other objects interleave,
  // and the explanation must name the object.
  History h;
  h.record_write(1, 1, 0.0, 1.0, /*object=*/3);
  h.record_write(1, 2, 1.5, 2.5, /*object=*/3);  // overwrites value 1
  h.record_read(2, 7, 0.2, 0.8, kInitialTag, /*object=*/9);  // other object
  h.record_write(3, 7, 0.0, 0.5, /*object=*/9);
  h.record_read(2, 1, 3.0, 4.0, kInitialTag, /*object=*/3);  // stale!
  auto verdict = check_register(h);
  EXPECT_FALSE(verdict.linearizable);
  EXPECT_NE(verdict.explanation.find("object 3"), std::string::npos)
      << verdict.explanation;
  EXPECT_FALSE(check_register_brute(h).linearizable);
}

TEST(MultiObjectLincheck, TagMonotonicityIsPerObject) {
  // Tags of different registers are incomparable: a "smaller" tag on a
  // later read of another object is not an inversion.
  History ok;
  ok.record_read(1, 5, 0.0, 1.0, Tag{5, 0}, /*object=*/1);
  ok.record_read(1, 6, 2.0, 3.0, Tag{1, 0}, /*object=*/2);
  EXPECT_TRUE(check_tag_order(ok).linearizable);

  History bad;  // same tags within ONE object: a real inversion
  bad.record_read(1, 5, 0.0, 1.0, Tag{5, 0}, /*object=*/1);
  bad.record_read(1, 6, 2.0, 3.0, Tag{1, 0}, /*object=*/1);
  auto verdict = check_tag_order(bad);
  EXPECT_FALSE(verdict.linearizable);
  EXPECT_NE(verdict.explanation.find("object 1"), std::string::npos)
      << verdict.explanation;
}

}  // namespace
}  // namespace hts::lincheck

namespace hts::harness {
namespace {

lincheck::History run_pipelined_sim(std::uint64_t seed, std::size_t n_objects,
                                    std::size_t pipeline, bool with_crash) {
  sim::Simulator sim;
  SimClusterConfig cfg;
  cfg.n_servers = 3;
  cfg.client_retry_timeout_s = 0.02;
  cfg.client_max_inflight = pipeline;
  SimCluster cluster(sim, cfg);
  lincheck::History history;
  UniqueValueSource values;
  std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
  for (ProcessId s = 0; s < 3; ++s) {
    const auto m = cluster.add_client_machine();
    cluster.add_client(m, s);
    const ClientId id = static_cast<ClientId>(cluster.client_count() - 1);
    WorkloadConfig wl;
    wl.write_fraction = 0.6;
    wl.value_size = 1024;
    wl.stop_at = 0.2;
    wl.measure_from = 0;
    wl.measure_until = 0.2;
    wl.seed = seed + s;
    wl.n_objects = n_objects;
    wl.pipeline = pipeline;
    drivers.push_back(std::make_unique<ClosedLoopDriver>(
        sim, cluster.port(id), id, wl, values, &history));
  }
  if (with_crash) cluster.schedule_crash(0.05, 1);
  for (auto& d : drivers) d->start();
  sim.run_to_quiescence();
  for (auto& d : drivers) d->finalize();
  return history;
}

TEST(MultiObjectSim, PipelinedSessionsStayLinearizablePerObject) {
  auto h = run_pipelined_sim(21, /*n_objects=*/4, /*pipeline=*/4,
                             /*with_crash=*/false);
  EXPECT_GT(h.size(), 50u);
  std::set<ObjectId> seen;
  for (const auto& op : h.ops()) seen.insert(op.object);
  EXPECT_EQ(seen.size(), 4u) << "workload must actually span the namespace";
  auto verdict = lincheck::check_register(h);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  EXPECT_TRUE(lincheck::check_tag_order(h).linearizable);
}

TEST(MultiObjectSim, PipelinedSessionsSurviveCrashWithRetries) {
  auto h = run_pipelined_sim(33, /*n_objects=*/4, /*pipeline=*/4,
                             /*with_crash=*/true);
  EXPECT_GT(h.size(), 30u);
  auto verdict = lincheck::check_register(h);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  // Every issued op completed despite the crash (pending writes allowed:
  // none — run_to_quiescence drains retries).
  for (const auto& op : h.ops()) {
    EXPECT_FALSE(op.pending()) << op.describe();
  }
}

TEST(MultiObjectSim, ReadExperimentsPreloadEveryRegister) {
  // The experiment harness preloads each register with one full-size value
  // before measurement, so a read-only run over the namespace measures
  // real payload transfers, not empty initial values.
  ExperimentParams p;
  p.n_servers = 3;
  p.reader_machines_per_server = 1;
  p.readers_per_machine = 2;
  p.value_size = 4096;
  p.warmup_s = 0.1;
  p.measure_s = 0.2;
  p.n_objects = 4;
  auto r = run_core_experiment(p);
  // Empty-value reads would record ~0 bytes; with the preload every read
  // carries the full value regardless of which register it hits.
  EXPECT_GT(r.read_mbps, 10.0);
  EXPECT_GT(r.reads_per_s, 100.0);
}

TEST(MultiObjectThreaded, PipelinedAsyncOpsAcrossObjectsWithCrash) {
  ThreadedClusterConfig cfg;
  cfg.n_servers = 4;
  cfg.client_retry_timeout_s = 0.05;
  cfg.client_max_inflight = 8;
  ThreadedCluster cluster(cfg);
  auto& alice = cluster.add_client(0);
  auto& bob = cluster.add_client(2);
  cluster.start();

  // A window of pipelined writes across distinct objects, then a crash,
  // then more traffic; every future must resolve.
  std::vector<std::future<core::OpResult>> acks;
  for (ObjectId obj = 1; obj <= 6; ++obj) {
    acks.push_back(alice.async_write(obj, Value::synthetic(obj, 256)));
  }
  for (auto& a : acks) (void)a.get();
  cluster.crash_server(1);
  acks.clear();
  for (ObjectId obj = 1; obj <= 6; ++obj) {
    acks.push_back(alice.async_write(obj, Value::synthetic(100 + obj, 256)));
  }
  for (auto& a : acks) (void)a.get();

  // Bob reads every object from another server: he must see the latest
  // value of each register, and learn which server answered.
  for (ObjectId obj = 1; obj <= 6; ++obj) {
    auto r = bob.read_result(obj);
    EXPECT_EQ(r.value, Value::synthetic(100 + obj, 256)) << "object " << obj;
    EXPECT_EQ(r.object, obj);
    EXPECT_LT(r.served_by, 4u) << "served_by must name a real server";
  }

  ASSERT_TRUE(cluster.wait_quiescent(5.0));
  auto verdict = lincheck::check_register(cluster.history());
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
}

TEST(MultiObjectThreaded, SameObjectAsyncWritesApplyInIssueOrder) {
  ThreadedClusterConfig cfg;
  cfg.n_servers = 3;
  cfg.client_max_inflight = 4;
  ThreadedCluster cluster(cfg);
  auto& writer = cluster.add_client(0);
  cluster.start();

  // Back-to-back async writes to ONE object: the session must serialize
  // them, so the last issued value is the final register content.
  std::vector<std::future<core::OpResult>> acks;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    acks.push_back(writer.async_write(7, Value::synthetic(i, 128)));
  }
  for (auto& a : acks) (void)a.get();
  EXPECT_EQ(writer.read(7), Value::synthetic(8, 128));

  ASSERT_TRUE(cluster.wait_quiescent(5.0));
  auto verdict = lincheck::check_register(cluster.history());
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
}

}  // namespace
}  // namespace hts::harness
