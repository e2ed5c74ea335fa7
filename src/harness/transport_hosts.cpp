#include "harness/transport_hosts.h"

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
      addr(),
      [this](net::NodeAddress, net::PayloadPtr m) {
        server.on_message(std::move(m), *this);
        transport.pull_egress(addr());
      },
      [this](ProcessId p) {
        // Host-local ring bounds: the cluster topology may be mid-change.
        if (p == global || p < ring_base || p >= ring_base + ring_size) return;
        server.on_peer_crash(static_cast<ProcessId>(p - ring_base), *this);
        transport.pull_egress(addr());
      },
      nullptr, [this] { return send_one_batch(); });
}

bool TransportServerHost::send_one_batch() {
  // A single-message batch goes on the wire unwrapped, so max_batch = 1
  // reproduces the unbatched protocol bit-for-bit. Ring traffic never
  // crosses rings: the successor's local id maps into this ring's block.
  auto batch = server.next_ring_batch();
  if (!batch) return false;
  const auto to = static_cast<ProcessId>(ring_base + batch->to);
  auto wire = std::move(*batch).into_wire();
  ring_transmissions.fetch_add(1, std::memory_order_relaxed);
  ring_bytes.fetch_add(wire->wire_size(), std::memory_order_relaxed);
  transport.send(addr(), net::NodeAddress::server(to), std::move(wire));
  return true;
}

void TransportServerHost::send_client(ClientId client, net::PayloadPtr msg) {
  transport.send(addr(), net::NodeAddress::client(client), std::move(msg));
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

}  // namespace hts::harness
