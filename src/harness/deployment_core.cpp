#include "harness/deployment_core.h"

#include <string>

#include "harness/obs_report.h"

namespace hts::harness {

namespace {
// One histogram shape per name for every fabric, so their exports validate
// against one schema: every server feeds "ring.batch_fill" (its mean is
// exactly ring messages / transmissions, the RingTraffic fill factor) and
// every session one backoff-delay histogram.
const std::vector<double> kBatchFillBounds = {1, 2, 4, 8, 16, 32, 64, 128};
const std::vector<double> kBackoffBounds = {0.001, 0.01, 0.1, 0.25,
                                            0.5,   1,    2,   4,   8};
}  // namespace

core::ClusterView DeploymentCore::view() const {
  const sync::MutexLock lock(mu_);
  return view_;
}

std::vector<std::size_t> DeploymentCore::rings_by_epoch() const {
  const sync::MutexLock lock(mu_);
  return rings_by_epoch_;
}

core::ClientOptions DeploymentCore::client_options(ProcessId preferred) const {
  core::ClientOptions opts = session_;
  opts.n_servers = topo.total_servers();
  opts.topology = topo;
  opts.epoch = view().epoch;
  opts.preferred_server = preferred;
  return opts;
}

void DeploymentCore::adopt(core::RingServer& server, ProcessId global) const {
  if (recorder_ == nullptr) return;
  server.attach_obs(obs::ServerProbe{
      recorder_, global,
      recorder_->registry().histogram("ring.batch_fill", kBatchFillBounds)});
}

void DeploymentCore::adopt(core::ClientSession& session) const {
  if (recorder_ != nullptr) {
    session.attach_obs(obs::ClientProbe{
        recorder_, session.id(),
        recorder_->registry().histogram("client.backoff_delay_s",
                                        kBackoffBounds)});
  }
  session.set_view_provider([reg = registry] { return reg->get(); });
}

void DeploymentCore::finish(const core::MigrationCoordinator& done) {
  const core::MigrationPlan& plan = done.plan();
  topo = plan.next.topology;
  map = plan.new_map;
  migration_stats.objects_moved += done.copied();
  ++migration_stats.reconfigs;
  const sync::MutexLock lock(mu_);
  view_ = plan.next;
  rings_by_epoch_.push_back(topo.n_rings());
}

void DeploymentCore::export_metrics(
    const std::vector<std::pair<ProcessId, const core::RingServer*>>& servers,
    const std::vector<const core::ClientSession*>& sessions,
    const std::vector<RingTraffic>& rings) const {
  if (recorder_ == nullptr) return;
  obs::MetricsRegistry& reg = recorder_->registry();
  for (const auto& [global, server] : servers) {
    export_server_stats(reg, "server.s" + std::to_string(global), *server);
  }
  export_server_totals(reg, servers);
  for (const core::ClientSession* c : sessions) {
    export_client_stats(reg, "client.c" + std::to_string(c->id()), *c);
  }
  export_client_totals(reg, sessions);
  export_rings_and_view(reg, rings, view().epoch, migration_stats);
}

}  // namespace hts::harness
