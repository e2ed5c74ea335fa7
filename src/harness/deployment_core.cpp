#include "harness/deployment_core.h"

#include <chrono>
#include <cstdint>
#include <iterator>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/messages.h"
#include "obs/net_stats.h"

namespace hts::harness {

namespace {
// One histogram shape per name for every fabric, so their exports validate
// against one schema: every server feeds "ring.batch_fill" (its mean is
// exactly ring messages / transmissions, the RingTraffic fill factor) and
// every session one backoff-delay histogram.
const std::vector<double> kBatchFillBounds = {1, 2, 4, 8, 16, 32, 64, 128};
const std::vector<double> kBackoffBounds = {0.001, 0.01, 0.1, 0.25,
                                            0.5,   1,    2,   4,   8};

net::NodeAddress server_addr(ProcessId p) {
  return net::NodeAddress::server(p);
}
}  // namespace

DeploymentCore::~DeploymentCore() {
  transport_->stop();
  if (recorder_ != nullptr) recorder_->set_clock(nullptr);
}

void DeploymentCore::boot() {
  if (recorder_ != nullptr) {
    // Simulated seconds on the simulator (a sim run's entire export is a
    // pure function of the seed); wall-clock seconds since the transport
    // came up on the live fabrics — comparable with OpResult timestamps
    // (ClientContext::now()) either way.
    recorder_->set_clock([t = transport_.get()] { return t->now(); });
  }
  // One ring at a time, ring-major: servers_[global] is server `local` of
  // its ring. Each ring is an independent instance of the protocol; only
  // client traffic (and reconfiguration copies) ever spans rings.
  for (RingId r = 0; r < static_cast<RingId>(topo_.n_rings()); ++r) {
    for (ProcessId local = 0; local < topo_.ring_size(r); ++local) {
      spawn_server(topo_, r, local, core::ServerView{0, r, map_});
    }
  }
}

void DeploymentCore::spawn_server(const core::Topology& topo, RingId ring,
                                  ProcessId local, core::ServerView boot,
                                  std::optional<core::ServerView> next) {
  const ProcessId global = topo.global_id(ring, local);
  auto host = std::make_unique<TransportServerHost>(
      *transport_, local, topo.ring_size(ring), global, topo.ring_base(ring),
      server_opts_);
  TransportServerHost* raw = host.get();
  if (recorder_ != nullptr) {
    raw->server.attach_obs(obs::ServerProbe{
        recorder_, global,
        recorder_->registry().histogram("ring.batch_fill", kBatchFillBounds)});
  }
  raw->server.install_view(std::move(boot));
  if (next) raw->server.begin_view_change(std::move(*next));
  if (global < servers_.size()) {
    // A grow after a shrink reuses the retired ring's global-id block (the
    // topology's ring-major arithmetic demands it). The retired host can
    // go: the simulator never calls a crashed incarnation's handlers again,
    // and the live fabrics reject the grow.
    servers_[global] = std::move(host);
  } else {
    assert(servers_.size() == global);
    servers_.push_back(std::move(host));
  }
  raw->register_node();
}

TransportClientHost& DeploymentCore::add_client_host(ProcessId preferred,
                                                     HistorySink* history) {
  core::ClientOptions opts = session_;
  opts.n_servers = topo_.total_servers();
  opts.topology = topo_;
  opts.epoch = view().epoch;
  opts.preferred_server = preferred;
  const auto id = static_cast<ClientId>(clients_.size());
  auto host = std::make_unique<TransportClientHost>(
      *transport_, core::ClientSession(id, opts), history);
  core::ClientSession& session = host->session();
  if (recorder_ != nullptr) {
    session.attach_obs(obs::ClientProbe{
        recorder_, id,
        recorder_->registry().histogram("client.backoff_delay_s",
                                        kBackoffBounds)});
  }
  session.set_view_provider([reg = registry_] { return reg->get(); });
  host->register_node();
  clients_.push_back(std::move(host));
  return *clients_.back();
}

void DeploymentCore::crash_server(ProcessId p) {
  transport_->crash(server_addr(p));
}

bool DeploymentCore::server_up(ProcessId p) const {
  return transport_->is_up(server_addr(p));
}

core::RingServer& DeploymentCore::server(ProcessId p) {
  return servers_[p]->server;
}

core::ClusterView DeploymentCore::view() const {
  const sync::MutexLock lock(mu_);
  return view_;
}

std::vector<std::size_t> DeploymentCore::rings_by_epoch() const {
  const sync::MutexLock lock(mu_);
  return rings_by_epoch_;
}

// ----------------------------------------------------- reconfiguration

Epoch DeploymentCore::add_ring(std::size_t n_servers) {
  // Runtime validation, not asserts: a malformed or overlapping schedule
  // must fail loudly in Release too, before anything is spawned —
  // overwriting an in-flight reconfiguration would hand servers
  // inconsistent views.
  if (rc_) throw std::logic_error("add_ring: reconfiguration in progress");
  if (sim_ == nullptr && topo_.total_servers() != servers_.size()) {
    throw std::logic_error(
        "add_ring: the live fabrics do not reuse retired global ids");
  }
  const core::ClusterView current = view();
  rc_ = std::make_unique<core::MigrationCoordinator>(core::MigrationPlan::grow(
      current, map_, n_servers, session_.value_policy.active()));
  const core::MigrationPlan& plan = rc_->plan();
  const Epoch next = plan.next.epoch;
  const auto ring = static_cast<RingId>(topo_.n_rings());
  for (ProcessId local = 0; local < n_servers; ++local) {
    spawn_server(plan.next.topology, ring, local,
                 core::ServerView{current.epoch, ring, map_},
                 core::ServerView{next, ring, plan.new_map});
  }
  drive();
  return next;
}

Epoch DeploymentCore::remove_last_ring() {
  if (rc_) {
    throw std::logic_error("remove_last_ring: reconfiguration in progress");
  }
  rc_ = std::make_unique<core::MigrationCoordinator>(
      core::MigrationPlan::shrink(view(), map_,
                                  session_.value_policy.active()));
  const Epoch next = rc_->plan().next.epoch;
  drive();
  return next;
}

void DeploymentCore::drive() {
  using Kind = core::MigrationCommand::Kind;
  for (;;) {
    const core::MigrationCommand cmd = rc_->next();
    switch (cmd.kind) {
      case Kind::kPublish:
        registry_->publish(rc_->plan().next);
        break;
      case Kind::kWait:
        if (sim_ != nullptr) {
          sim_->simulator().schedule(cmd.delay_s, [this] { drive(); });
          return;
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(cmd.delay_s));
        break;
      case Kind::kRetire:
        // The ring is empty of state by now and retires whole: the crash
        // notices reach only its own (stopped) servers.
        transport_->crash(server_addr(cmd.server));
        break;
      case Kind::kDone: {
        const core::MigrationPlan& plan = rc_->plan();
        topo_ = plan.next.topology;
        map_ = plan.new_map;
        migration_stats_.objects_moved += rc_->copied();
        migration_stats_.bytes_moved += migrate_bytes_.exchange(0);
        migration_stats_.dedup_bytes += dedup_bytes_.exchange(0);
        ++migration_stats_.reconfigs;
        {
          const sync::MutexLock lock(mu_);
          view_ = plan.next;
          rings_by_epoch_.push_back(topo_.n_rings());
        }
        rc_.reset();
        return;
      }
      default: {
        auto reply = run_command(cmd);
        if (!reply) {
          rc_->on_down();
        } else if (cmd.kind == Kind::kProbe) {
          rc_->on_probe(std::move(*reply));
        }
        break;
      }
    }
  }
}

std::optional<core::MigrationProbe> DeploymentCore::run_command(
    const core::MigrationCommand& cmd) {
  TransportServerHost* host = servers_[cmd.server].get();
  auto reply = std::make_shared<std::promise<core::MigrationProbe>>();
  auto fut = reply->get_future();
  transport_->execute(host->addr(), [this, host, cmd, reply] {
    // Copies travel the server network, charged like all ring traffic and
    // counted as migration cost.
    auto probe = core::execute_migration_command(
        cmd, host->server, *host,
        [&](ProcessId to, const net::PayloadPtr& msg) {
          if (!transport_->is_up(server_addr(to))) return;
          (msg->kind() == core::kMigrateState ? migrate_bytes_ : dedup_bytes_)
              .fetch_add(msg->wire_size(), std::memory_order_relaxed);
          transport_->send(host->addr(), server_addr(to), msg);
        });
    // A commit replays parked ops into the ring; nothing else the
    // coordinator runs leaves ring egress behind.
    if (cmd.kind == core::MigrationCommand::Kind::kCommit) {
      transport_->pull_egress(host->addr());
    }
    reply->set_value(probe.value_or(core::MigrationProbe{}));
  });
  // Inline (the simulator, a parked in-memory loop) the reply is already
  // set; otherwise poll, so a server that dies first (its queue discarded,
  // no reply coming) is noticed. No lock is held while `fn` may run.
  for (;;) {
    if (fut.wait_for(std::chrono::milliseconds(0)) ==
        std::future_status::ready) {
      return fut.get();
    }
    if (!transport_->is_up(host->addr())) {
      // One last chance: the reply may have been set just before the crash.
      if (fut.wait_for(std::chrono::milliseconds(0)) ==
          std::future_status::ready) {
        return fut.get();
      }
      return std::nullopt;
    }
    fut.wait_for(std::chrono::milliseconds(2));
  }
}

// ------------------------------------------------------------- accessors

RingTraffic DeploymentCore::ring_traffic(RingId r) const {
  assert(r < topo_.n_rings());
  RingTraffic t;
  for (ProcessId local = 0; local < topo_.ring_size(r); ++local) {
    const ProcessId g = topo_.global_id(r, local);
    const TransportServerHost& host = *servers_[g];
    if (sim_ != nullptr) {
      const obs::LinkCounters nic = sim_->ring_link(g);
      t.transmissions += nic.tx_messages;
      t.bytes += nic.tx_bytes;
    } else {
      t.transmissions +=
          host.ring_transmissions.load(std::memory_order_relaxed);
      t.bytes += host.ring_bytes.load(std::memory_order_relaxed);
    }
    t.ring_messages += host.server.stats().ring_messages_out;
    t.batches += host.server.stats().batches_out;
  }
  return t;
}

std::vector<RingTraffic> DeploymentCore::traffic_per_ring() const {
  std::vector<RingTraffic> v;
  v.reserve(topo_.n_rings());
  for (RingId r = 0; r < static_cast<RingId>(topo_.n_rings()); ++r) {
    v.push_back(ring_traffic(r));
  }
  return v;
}

void DeploymentCore::export_metrics() const {
  // Every name is *set*, not incremented, so exporting twice yields the same
  // bytes, and one schema (tools/metrics_schema.json) validates any fabric.
  if (recorder_ == nullptr) return;
  obs::MetricsRegistry& reg = recorder_->registry();
  core::ServerStats server_total;
  for (const auto& host : servers_) {
    const core::RingServer& s = host->server;
    const std::string prefix = "server.s" + std::to_string(host->global);
    for (const auto& [name, field] : core::kServerStatFields) {
      reg.counter(prefix + "." + name)->set(s.stats().*field);
      server_total.*field += s.stats().*field;
    }
    reg.gauge(prefix + ".write_queue_depth")
        ->set(static_cast<double>(s.write_queue_depth()));
    reg.gauge(prefix + ".urgent_queue_depth")
        ->set(static_cast<double>(s.urgent_queue_depth()));
    reg.gauge(prefix + ".forward_queue_depth")
        ->set(static_cast<double>(s.scheduler().forward_queue_size()));
    reg.gauge(prefix + ".fragment_bytes")
        ->set(static_cast<double>(s.fragment_bytes()));
  }
  for (const auto& [name, field] : core::kServerStatFields) {
    reg.counter(std::string("server.total.") + name)
        ->set(server_total.*field);
  }
  // Client totals are zeros without sessions, so the schema holds anyway.
  std::uint64_t client_total[std::size(core::kClientStatFields)] = {};
  for (const auto& host : clients_) {
    const core::ClientSession& c = host->session();
    const std::string prefix = "client.c" + std::to_string(c.id());
    std::size_t i = 0;
    for (const auto& [name, get] : core::kClientStatFields) {
      reg.counter(prefix + "." + name)->set((c.*get)());
      client_total[i++] += (c.*get)();
    }
  }
  std::size_t i = 0;
  for (const auto& [name, get] : core::kClientStatFields) {
    reg.counter(std::string("client.total.") + name)->set(client_total[i++]);
  }
  const std::vector<RingTraffic> rings = traffic_per_ring();
  for (std::size_t r = 0; r <= rings.size(); ++r) {
    const bool total = r == rings.size();
    const RingTraffic t = total ? total_traffic(rings) : rings[r];
    const std::string prefix =
        total ? "ring.total" : "ring." + std::to_string(r);
    reg.counter(prefix + ".transmissions")->set(t.transmissions);
    reg.counter(prefix + ".bytes")->set(t.bytes);
    reg.counter(prefix + ".ring_messages")->set(t.ring_messages);
    reg.counter(prefix + ".batches")->set(t.batches);
  }
  reg.gauge("view.epoch")->set(static_cast<double>(view().epoch));
  reg.gauge("view.rings")->set(static_cast<double>(rings.size()));
  reg.counter("migration.objects_moved")->set(migration_stats_.objects_moved);
  reg.counter("migration.bytes_moved")->set(migration_stats_.bytes_moved);
  reg.counter("migration.dedup_bytes")->set(migration_stats_.dedup_bytes);
  reg.counter("migration.reconfigs")->set(migration_stats_.reconfigs);
  if (sim_ == nullptr) {
    // One transport carries everything: per-node counters under a single
    // prefix (labels "s<id>" / "c<id>").
    obs::export_links(reg, "net.host", *transport_);
    return;
  }
  obs::export_links(reg, "net.server", sim_->server_network());
  if (&sim_->client_network() != &sim_->server_network()) {
    obs::export_links(reg, "net.client", sim_->client_network());
  }
}

}  // namespace hts::harness
