// ThreadedCluster — hosts the ring protocol on the threaded in-memory
// transport: every server and every client runs on its own thread, exactly
// one protocol event at a time, with reliable FIFO links. This is the fabric
// for integration/stress tests under real concurrency and for the runnable
// examples (it offers a blocking client API).
//
// Like SimCluster, the cluster is constructed from a core::Topology — R
// independent rings (heterogeneous sizes allowed) behind the deterministic
// shard map. Servers are addressed by global id (ring-major); crash
// notifications stay inside the crashed server's ring; recorded histories
// tag every op with the ring that served it and the epoch it was served in,
// so the checkers can verify each op went to its epoch's owning ring.
//
// Live reconfiguration (DESIGN.md §Reconfiguration, D8): every server
// boots with its epoch-0 view and every session reads the cluster's
// ViewRegistry, so add_ring() / remove_last_ring() are always available.
// They block the calling thread while the freeze → copy → flip migration
// runs against live traffic. The decisions are
// core::MigrationCoordinator's, shared with SimCluster; this fabric only
// executes its commands. Server-side commands (installing views, probing
// drain progress, emitting MigrateState/MigrateDedup, committing the flip)
// travel as control messages executed on the target server's own delivery
// thread, so the single-threaded state-machine discipline holds
// throughout.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "code/policy.h"
#include "common/clock.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "common/value.h"
#include "core/client.h"
#include "core/reconfig.h"
#include "core/server.h"
#include "core/topology.h"
#include "harness/ring_traffic.h"
#include "lincheck/history.h"
#include "net/transport.h"
#include "obs/probe.h"

namespace hts::harness {

struct ThreadedClusterConfig {
  /// Single-ring facade: size of the one ring when `topology` is unset.
  std::size_t n_servers = 3;
  /// Deployment shape: R rings (heterogeneous sizes allowed). Unset =
  /// Topology::single(n_servers), the pre-sharding single-ring cluster.
  std::optional<core::Topology> topology;
  double detection_delay_s = 0.005;
  /// Fabric selection: in-process queues (default) or real loopback TCP
  /// sockets (net::TcpTransport) — same deployment, every node hosted in
  /// this process, frames golden-pinned to the wire codec. The node-facing
  /// surface is identical; only the bytes' journey differs.
  enum class TransportKind { kInMem, kTcp };
  TransportKind transport = TransportKind::kInMem;
  /// TCP mode listen-port base; 0 = ephemeral ports (parallel-ctest safe,
  /// single-process only — which is exactly ThreadedCluster's shape).
  std::uint16_t tcp_base_port = 0;
  double client_retry_timeout_s = 0.1;
  /// Session pipelining/backoff knobs (core::ClientOptions pass-through).
  std::size_t client_max_inflight = 8;
  double client_retry_multiplier = 1.0;
  double client_retry_cap = 8.0;
  std::uint64_t client_seed = 0;
  core::ServerOptions server_options;
  bool record_history = true;  ///< collect a lincheck history of all ops

  /// Coded value plane (DESIGN.md §Coded values): one knob for the whole
  /// deployment — applied to every server and every client session.
  /// Inactive by default (replicated-only traffic, golden-pinned).
  code::ValuePolicy value_policy;

  /// Observability (DESIGN.md D9): when set, event time is wall-clock
  /// seconds since cluster construction (steady_clock — monotonic, not
  /// deterministic), every server/session gets a probe, and
  /// export_metrics() snapshots the deployment. Wire-silent.
  obs::Recorder* recorder = nullptr;

  /// The deployment this config describes (single ring unless set).
  [[nodiscard]] core::Topology resolved_topology() const {
    return topology.value_or(core::Topology::single(n_servers));
  }
};

class ThreadedCluster {
 public:
  explicit ThreadedCluster(ThreadedClusterConfig cfg);
  ~ThreadedCluster();

  ThreadedCluster(const ThreadedCluster&) = delete;
  ThreadedCluster& operator=(const ThreadedCluster&) = delete;

  /// Client handle over one pipelined session. The blocking calls are
  /// thread-safe for one caller at a time; the async_* calls may be issued
  /// back-to-back (up to client_max_inflight ops overlap across distinct
  /// objects; same-object ops queue in order inside the session).
  class BlockingClient {
   public:
    /// Blocks until the write of `object` is acknowledged.
    void write(ObjectId object, Value v);
    /// Blocks until a value of `object` is returned.
    Value read(ObjectId object);
    /// Like read() but exposes the full result (tag, attempts, served_by).
    core::OpResult read_result(ObjectId object);

    /// Pipelined issue: returns immediately; the future resolves when the
    /// operation completes. Ops on distinct objects proceed in parallel.
    std::future<core::OpResult> async_write(ObjectId object, Value v);
    std::future<core::OpResult> async_read(ObjectId object);

    [[nodiscard]] ClientId id() const;

   private:
    friend class ThreadedCluster;
    explicit BlockingClient(void* host) : host_(host) {}
    std::future<core::OpResult> launch(bool is_read, ObjectId object, Value v);
    core::OpResult run(bool is_read, ObjectId object, Value v);
    void* host_;  // ClientHost, opaque to keep the header light
  };

  /// Adds a client before start(); the reference stays valid for the
  /// cluster's lifetime.
  BlockingClient& add_client(ProcessId preferred_server);

  void start();

  /// Crash-stops a server (global id); its ring peers are notified after the
  /// detection delay. Other rings never notice — shards fail independently.
  void crash_server(ProcessId p);

  [[nodiscard]] bool server_up(ProcessId p) const;

  // ---------- live reconfiguration (DESIGN.md D8) ----------
  //
  // Threading contract: one controlling thread drives the cluster —
  // add_client/start/crash_server/add_ring/remove_last_ring and the
  // unlocked introspection accessors (topology(), n_servers(),
  // reconfig_stats(), server()) all belong to it. A *different* thread
  // observing a blocking reconfiguration in progress may only use the
  // locked observers view() and rings_by_epoch(). Concurrent
  // reconfigurations are rejected at runtime.

  /// Grows the deployment by one ring of `n_servers`, live: spawns the
  /// servers (threads and all), migrates the reassigned registers onto them
  /// under traffic, and flips every server to the next epoch. Blocks until
  /// the flip completes and returns the new epoch. Call after start(); one
  /// reconfiguration at a time.
  Epoch add_ring(std::size_t n_servers);

  /// Shrinks by retiring the last ring, live: migrates its registers back
  /// to the survivors, flips, then crash-stops the retired servers (their
  /// ring-local detection fires only among themselves). Blocks until done.
  Epoch remove_last_ring();

  [[nodiscard]] core::ClusterView view() const HTS_EXCLUDES(views_mu_);
  [[nodiscard]] const core::MigrationStats& reconfig_stats() const {
    return migration_stats_;
  }
  /// Ring count per epoch so far (input for the epoch-aware lincheck pass).
  [[nodiscard]] std::vector<std::size_t> rings_by_epoch() const
      HTS_EXCLUDES(views_mu_);

  /// Blocks until all queues drain (no protocol work left).
  bool wait_quiescent(double timeout_s);

  /// Server introspection by global id — only meaningful while quiescent.
  /// RingServer::id() is the server's local (in-ring) index.
  [[nodiscard]] core::RingServer& server(ProcessId p);

  /// Snapshot of the recorded operation history. Ops carry the ring that
  /// served them (from the replying server's global id) and the epoch.
  [[nodiscard]] lincheck::History history() const HTS_EXCLUDES(history_mu_);

  /// Servers ever spawned (a retired ring keeps its slots, marked down).
  [[nodiscard]] std::size_t n_servers() const { return servers_.size(); }
  [[nodiscard]] const core::Topology& topology() const { return topo_; }

  /// Ring egress of shard `r`: transmissions/bytes the ring's servers handed
  /// to the transport, plus their protocol message/batch stats. Read while
  /// quiescent.
  [[nodiscard]] RingTraffic ring_traffic(RingId r) const;
  [[nodiscard]] std::vector<RingTraffic> traffic_per_ring() const;

  /// Snapshots the deployment into the configured recorder's registry —
  /// the same metric names SimCluster::export_metrics emits (per-server
  /// stats, client session counters, per-node transport link counters under
  /// "net.host.*", per-ring traffic, view epoch). Call while quiescent;
  /// idempotent; no-op without a recorder.
  void export_metrics();

 private:
  struct ServerHost;
  struct ClientHost;

  double elapsed() const;
  /// Creates, optionally prepares (views installed before the node can
  /// receive traffic), and registers one server host.
  ServerHost& spawn_server(RingId ring, ProcessId local,
                           std::size_t ring_size, ProcessId global,
                           ProcessId ring_base,
                           const std::function<void(core::RingServer&)>&
                               before_register = nullptr);
  /// Executes `coord`'s commands — server-side ones as control messages on
  /// each server's own thread — until the flip completes.
  Epoch run_coordinator(core::MigrationCoordinator& coord);

  ThreadedClusterConfig cfg_;
  // topo_/map_ belong to the controlling thread (see the threading contract
  // above); the locked snapshots other threads may read live under views_mu_.
  core::Topology topo_;
  std::shared_ptr<core::ViewRegistry> registry_;
  std::shared_ptr<const core::ShardMap> map_;
  core::MigrationStats migration_stats_;
  std::unique_ptr<net::Transport> transport_;
  clk::SteadyTime epoch_;
  std::vector<std::unique_ptr<ServerHost>> servers_;
  std::vector<std::unique_ptr<ClientHost>> clients_;
  std::vector<std::unique_ptr<BlockingClient>> handles_;

  mutable sync::Mutex history_mu_;
  lincheck::History history_ HTS_GUARDED_BY(history_mu_);
  /// Guards the snapshots a non-controlling thread may observe while a
  /// blocking reconfiguration is in progress (view(), rings_by_epoch()).
  mutable sync::Mutex views_mu_;
  core::ClusterView view_ HTS_GUARDED_BY(views_mu_);
  std::vector<std::size_t> rings_by_epoch_ HTS_GUARDED_BY(views_mu_);
  std::atomic<bool> migrating_{false};  ///< rejects concurrent reconfigs
};

}  // namespace hts::harness
