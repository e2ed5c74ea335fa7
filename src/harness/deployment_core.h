// DeploymentCore — the one deployment SimCluster and ThreadedCluster are
// thin shells over. It owns the net::Transport (sim::SimTransport, or an
// in-memory or TCP LoopTransport), the protocol hosts on it
// (harness/transport_hosts.h), the epoch-versioned view with its registry
// and shard map (DESIGN.md D8), the session options every new client gets,
// the probe wiring (D9), the single coordinator driver of live
// reconfiguration, and the per-ring traffic and metrics export.
//
// Reconfiguration: add_ring()/remove_last_ring() run a freeze → copy → flip
// migration whose decisions are core::MigrationCoordinator's. The driver
// executes each server-side command through Transport::execute, serialized
// with the server's handlers, and waits out a kWait by scheduling a
// simulator event (on the simulator: the call returns at once and the
// change completes over virtual time, so a run stays a pure function of the
// seed) or by sleeping (on the live fabrics: the call blocks until the
// flip). A grown ring comes up mid-transition: under the current view it
// owns nothing, so every client op it receives parks until the flip. The
// simulator reuses a retired ring's global ids for a later grow (its
// transport registers a fresh incarnation); the live transports register an
// address once, so there a grow after a shrink is rejected before anything
// is spawned.
//
// Threading: view() and rings_by_epoch() are locked, so a thread other than
// the controlling one may observe them while a blocking reconfiguration
// runs. Everything else belongs to the controlling thread (on the
// simulator, the one driving it).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/client.h"
#include "core/reconfig.h"
#include "core/server.h"
#include "core/topology.h"
#include "harness/ring_traffic.h"
#include "harness/transport_hosts.h"
#include "net/transport.h"
#include "obs/probe.h"
#include "sim/sim_transport.h"

namespace hts::harness {

class DeploymentCore {
 public:
  /// Stops the transport before the hosts its handlers reach go away.
  virtual ~DeploymentCore();
  DeploymentCore(const DeploymentCore&) = delete;
  DeploymentCore& operator=(const DeploymentCore&) = delete;

  // ---------- live reconfiguration (DESIGN.md D8) ----------

  /// Grows the deployment by one ring of `n_servers`, live: spawns its
  /// servers and migrates the ~1/(R+1) of the namespace the shard map
  /// reassigns onto them under traffic. Returns the epoch the deployment
  /// moves to. One reconfiguration at a time; a coded deployment cannot
  /// migrate (std::logic_error, before anything is spawned).
  Epoch add_ring(std::size_t n_servers);
  /// Shrinks by retiring the last ring, live: migrates its registers back
  /// to the survivors, flips, then stops the retired servers.
  Epoch remove_last_ring();
  [[nodiscard]] bool reconfig_in_progress() const { return rc_ != nullptr; }

  [[nodiscard]] core::ClusterView view() const HTS_EXCLUDES(mu_);
  /// Ring count per epoch so far (input for the epoch-aware lincheck pass).
  [[nodiscard]] std::vector<std::size_t> rings_by_epoch() const
      HTS_EXCLUDES(mu_);
  [[nodiscard]] const core::MigrationStats& reconfig_stats() const {
    return migration_stats_;
  }
  [[nodiscard]] const core::Topology& topology() const { return topo_; }

  /// Crash-stops a server (global id); its ring peers are notified after the
  /// detection delay. Other rings never notice — shards fail independently.
  void crash_server(ProcessId p);
  [[nodiscard]] bool server_up(ProcessId p) const;
  /// Server by global id; RingServer::id() is its local (in-ring) index. On
  /// the live fabrics, only meaningful while quiescent.
  [[nodiscard]] core::RingServer& server(ProcessId p);
  /// Servers ever spawned (a retired ring keeps its slots, marked down).
  [[nodiscard]] std::size_t n_servers() const { return servers_.size(); }

  /// Ring egress of shard `r`. The simulator counts what the ring's
  /// server-network NICs transmitted (framing, migration copies and, on a
  /// shared network, client replies included); the live fabrics count the
  /// ring batches the servers handed to the transport. Both add the
  /// servers' protocol message/batch stats. Read while quiescent.
  [[nodiscard]] RingTraffic ring_traffic(RingId r) const;
  /// ring_traffic for every ring of the topology, in ring order.
  [[nodiscard]] std::vector<RingTraffic> traffic_per_ring() const;

  /// Snapshots the deployment into the configured recorder's registry:
  /// per-server protocol stats and queue depths ("server.s<g>.*" plus the
  /// "server.total.*" sums), per-client session counters ("client.c<id>.*"
  /// / "client.total.*"), per-ring wire traffic ("ring.<r>.*" /
  /// "ring.total.*"), the view and the migration counters, and the link
  /// counters — per NIC on the simulator ("net.server.*", plus
  /// "net.client.*" on separate networks), per node on the live fabrics
  /// ("net.host.*"). Call while quiescent; idempotent (counters are set,
  /// not incremented); no-op without a recorder.
  void export_metrics() const;

 protected:
  /// `Config` is a cluster config: its resolved topology is the epoch-0
  /// view, spawned here onto `transport`, and its client_* knobs, server
  /// options, value policy and recorder apply to every session and server.
  template <class Config>
  DeploymentCore(const Config& cfg, std::unique_ptr<net::Transport> transport)
      : topo_(cfg.resolved_topology()),
        registry_(std::make_shared<core::ViewRegistry>(
            core::ClusterView{0, topo_})),
        map_(std::make_shared<const core::ShardMap>(topo_.n_rings())),
        recorder_(cfg.recorder),
        server_opts_(cfg.server_options),
        transport_(std::move(transport)),
        sim_(dynamic_cast<sim::SimTransport*>(transport_.get())),
        view_{0, topo_},
        rings_by_epoch_(1, topo_.n_rings()) {
    assert(topo_.valid());
    session_.retry_timeout = cfg.client_retry_timeout_s;
    session_.retry_multiplier = cfg.client_retry_multiplier;
    session_.retry_cap = cfg.client_retry_cap;
    session_.max_inflight = cfg.client_max_inflight;
    session_.value_policy = cfg.value_policy;
    server_opts_.value_policy = cfg.value_policy;
    boot();
  }

  [[nodiscard]] net::Transport& transport() { return *transport_; }
  /// Adds a client session first contacting `preferred` (global id),
  /// routing across every ring; completed launch()/run() ops go to
  /// `history` when it is non-null.
  TransportClientHost& add_client_host(ProcessId preferred,
                                       HistorySink* history);
  [[nodiscard]] TransportClientHost& client_host(ClientId id) {
    return *clients_[id];
  }
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }

 private:
  /// Points the recorder's clock at the transport and spawns the topology.
  void boot();
  /// Creates server `local` of `topo`'s ring `ring`, installs `boot` (and
  /// begins the change to `next`, if any) before the node can receive
  /// traffic, and registers it.
  void spawn_server(const core::Topology& topo, RingId ring, ProcessId local,
                    core::ServerView boot,
                    std::optional<core::ServerView> next = std::nullopt);
  /// Executes the coordinator's commands until it waits on the simulator
  /// (the resume becomes a scheduled event) or finishes the flip.
  void drive();
  /// Runs one server-side command on its server and waits for its result;
  /// nullopt if the server is down (the command did not run).
  std::optional<core::MigrationProbe> run_command(
      const core::MigrationCommand& cmd);

  core::Topology topo_;
  std::shared_ptr<core::ViewRegistry> registry_;
  std::shared_ptr<const core::ShardMap> map_;
  core::MigrationStats migration_stats_;
  obs::Recorder* recorder_;
  core::ClientOptions session_;  // the config's session knobs
  core::ServerOptions server_opts_;

  // Declared before the hosts: destroyed after them, stopped before.
  std::unique_ptr<net::Transport> transport_;
  sim::SimTransport* sim_;  // transport_ when it is the simulator, else null
  std::vector<std::unique_ptr<TransportServerHost>> servers_;
  std::vector<std::unique_ptr<TransportClientHost>> clients_;

  std::unique_ptr<core::MigrationCoordinator> rc_;
  // Migration egress, counted on the servers' threads, folded in at the flip.
  std::atomic<std::uint64_t> migrate_bytes_{0};
  std::atomic<std::uint64_t> dedup_bytes_{0};

  mutable sync::Mutex mu_;
  core::ClusterView view_ HTS_GUARDED_BY(mu_);
  std::vector<std::size_t> rings_by_epoch_ HTS_GUARDED_BY(mu_);
};

}  // namespace hts::harness
