#include "harness/transport_hosts.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/messages.h"

namespace hts::harness {

net::TcpTransport::Options tcp_options(double detection_delay_s,
                                       std::uint16_t base_port,
                                       std::size_t n_servers) {
  net::TcpTransport::Options o;
  o.detection_delay_s = detection_delay_s;
  o.base_port = base_port;
  for (std::size_t g = 0; g < n_servers; ++g) {
    o.servers.push_back(static_cast<ProcessId>(g));
  }
  o.encode = [](const net::Payload& m, net::FrameWriter& w) {
    core::encode_message_into(m, w);
  };
  o.decode = [](std::string_view bytes) {
    return core::decode_message(bytes);
  };
  return o;
}

// ------------------------------------------------------------------ server

TransportServerHost::TransportServerHost(net::Transport& t, ProcessId local,
                                         std::size_t n, ProcessId global_id,
                                         ProcessId base,
                                         core::ServerOptions opts)
    : transport(t),
      server(local, n, opts),
      global(global_id),
      ring_base(base),
      ring_size(n) {}

void TransportServerHost::register_node() {
  transport.register_node(
      net::NodeAddress::server(global),
      [this](net::NodeAddress, net::PayloadPtr m) {
        on_message(std::move(m));
      },
      [this](ProcessId crashed) { on_crash(crashed); });
}

void TransportServerHost::on_message(net::PayloadPtr msg) {
  server.on_message(std::move(msg), *this);
  drain();
}

void TransportServerHost::on_crash(ProcessId p) {
  // Host-local ring bounds: the cluster topology may be mid-change.
  if (p == global || p < ring_base || p >= ring_base + ring_size) return;
  server.on_peer_crash(static_cast<ProcessId>(p - ring_base), *this);
  drain();
}

void TransportServerHost::drain() {
  while (auto batch = server.next_ring_batch()) {
    const auto to = static_cast<ProcessId>(ring_base + batch->to);
    auto wire = std::move(*batch).into_wire();
    ring_transmissions.fetch_add(1, std::memory_order_relaxed);
    ring_bytes.fetch_add(wire->wire_size(), std::memory_order_relaxed);
    transport.send(net::NodeAddress::server(global),
                   net::NodeAddress::server(to), std::move(wire));
  }
}

void TransportServerHost::send_client(ClientId client, net::PayloadPtr msg) {
  transport.send(net::NodeAddress::server(global),
                 net::NodeAddress::client(client), std::move(msg));
}

// ----------------------------------------------------------------- history

void HistorySink::record(ClientId client, const core::OpResult& r,
                         std::uint64_t write_seed) {
  // OpResult::ring names the ring of the server that replied; the epoch
  // rides on the reply frame.
  const sync::MutexLock lock(mu_);
  if (r.is_read) {
    const std::uint64_t seen = r.value.empty() ? lincheck::kInitialValueId
                                               : r.value.synthetic_seed();
    history_.record_read(client, seen, r.invoked_at, r.completed_at, r.tag,
                         r.object, r.ring, r.epoch, r.req);
  } else {
    history_.record_write(client, write_seed, r.invoked_at, r.completed_at,
                          r.object, r.ring, r.epoch, r.req);
  }
}

lincheck::History HistorySink::snapshot() const {
  const sync::MutexLock lock(mu_);
  return history_;
}

// ------------------------------------------------------------------ client

TransportClientHost::TransportClientHost(net::Transport& transport,
                                         ClientId id, core::ClientOptions opts,
                                         clk::SteadyTime epoch,
                                         HistorySink* history)
    : transport_(transport),
      session_(id, opts),
      epoch_(epoch),
      history_(history) {
  session_.on_complete = [this](const core::OpResult& r) {
    auto it = pending_.find(r.req);
    if (history_ != nullptr) {
      history_->record(session_.id(), r,
                       it != pending_.end() ? it->second.value_seed : 0);
    }
    if (it != pending_.end()) {
      it->second.promise->set_value(r);
      pending_.erase(it);
    }
  };
}

void TransportClientHost::register_node() {
  transport_.register_node(
      net::NodeAddress::client(session_.id()),
      [this](net::NodeAddress from, net::PayloadPtr msg) {
        const ProcessId sender = from.kind == net::NodeAddress::Kind::kServer
                                     ? static_cast<ProcessId>(from.id)
                                     : kNoProcess;
        session_.on_reply(*msg, sender, *this);
      },
      nullptr,
      [this](std::uint64_t token) { session_.on_timer(token, *this); });
}

std::future<core::OpResult> TransportClientHost::launch(bool is_read,
                                                        ObjectId object,
                                                        Value v) {
  auto promise = std::make_shared<std::promise<core::OpResult>>();
  std::future<core::OpResult> fut = promise->get_future();
  transport_.execute(
      net::NodeAddress::client(session_.id()),
      [this, is_read, object, v = std::move(v),
       promise = std::move(promise)]() mutable {
        const std::uint64_t seed = v.synthetic_seed();
        const RequestId req =
            is_read ? session_.begin_read(object, *this)
                    : session_.begin_write(object, std::move(v), *this);
        pending_.emplace(req, PendingOp{std::move(promise), seed});
      });
  return fut;
}

core::OpResult TransportClientHost::run(bool is_read, ObjectId object,
                                        Value v) {
  auto fut = launch(is_read, object, std::move(v));
  if (fut.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    throw std::runtime_error("client operation timed out (deadlock?)");
  }
  return fut.get();
}

void TransportClientHost::send_server(ProcessId server, net::PayloadPtr msg) {
  transport_.send(net::NodeAddress::client(session_.id()),
                  net::NodeAddress::server(server), std::move(msg));
}

void TransportClientHost::arm_timer(double delay_seconds,
                                    std::uint64_t token) {
  transport_.arm_timer(net::NodeAddress::client(session_.id()), delay_seconds,
                       token);
}

double TransportClientHost::now() const { return clk::seconds_since(epoch_); }

}  // namespace hts::harness
