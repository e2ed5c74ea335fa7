#include "harness/threaded_cluster.h"

#include <utility>

#include "net/inmem_transport.h"
#include "net/tcp_transport.h"

namespace hts::harness {

namespace {

/// Builds the configured fabric. The TCP one lists every initial server for
/// the failure-detection mesh; servers spawned later by add_ring are
/// reached lazily by traffic.
std::unique_ptr<net::Transport> make_transport(
    const ThreadedClusterConfig& cfg) {
  if (cfg.transport == ThreadedClusterConfig::TransportKind::kTcp) {
    return std::make_unique<net::TcpTransport>(
        tcp_options(cfg.detection_delay_s, cfg.tcp_base_port,
                    cfg.resolved_topology().total_servers()));
  }
  return std::make_unique<net::InMemTransport>(cfg.detection_delay_s);
}

}  // namespace

ThreadedCluster::ThreadedCluster(const ThreadedClusterConfig& cfg)
    : DeploymentCore(cfg, make_transport(cfg)),
      record_history_(cfg.record_history) {}

ThreadedCluster::~ThreadedCluster() { transport().stop(); }

ThreadedCluster::BlockingClient& ThreadedCluster::add_client(
    ProcessId preferred_server) {
  TransportClientHost& host = add_client_host(
      preferred_server, record_history_ ? &history_ : nullptr);
  handles_.push_back(
      std::unique_ptr<BlockingClient>(new BlockingClient(&host)));
  return *handles_.back();
}

// ---------------------------------------------------------------- client

void ThreadedCluster::BlockingClient::write(ObjectId object, Value v) {
  (void)host_->run(false, object, std::move(v));
}

Value ThreadedCluster::BlockingClient::read(ObjectId object) {
  return host_->run(true, object, {}).value;
}

core::OpResult ThreadedCluster::BlockingClient::read_result(ObjectId object) {
  return host_->run(true, object, {});
}

std::future<core::OpResult> ThreadedCluster::BlockingClient::async_write(
    ObjectId object, Value v) {
  return host_->launch(false, object, std::move(v));
}

std::future<core::OpResult> ThreadedCluster::BlockingClient::async_read(
    ObjectId object) {
  return host_->launch(true, object, {});
}

ClientId ThreadedCluster::BlockingClient::id() const {
  return host_->session().id();
}

}  // namespace hts::harness
