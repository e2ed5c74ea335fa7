// Bandwidth-accurate model of a switched full-duplex ethernet.
//
// Each endpoint owns a NIC with independent transmit and receive serializers
// running at the configured bandwidth (full duplex). A transmission:
//
//   depart  = max(now, tx_free) + ser        (sender serializes the frames)
//   deliver = max(depart + latency, rx_free) + ser_rx_extra
//
// where `ser` covers the message bytes plus ethernet/IP/TCP framing per MTU
// frame, and receiver-side occupancy equals the serialization time — so
// fan-in to one receiver queues exactly like frames queue in a switch egress
// port. A lone stream pays serialization once (cut-through), which is what a
// real switched LAN does at the message scale we model.
//
// This is the substitution for the paper's 24-node cluster (DESIGN.md §3):
// the throughput claims are bandwidth-structure claims, and this model
// reproduces the structure — per-NIC saturation, fan-in queuing, separate or
// shared client/server networks — without pretending to model TCP dynamics.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/payload.h"
#include "obs/net_stats.h"
#include "sim/simulator.h"

namespace hts::sim {

struct NetConfig {
  double bandwidth_bps = 100e6;   ///< paper: fast ethernet, 100 Mbit/s
  double latency_s = 50e-6;       ///< propagation + switch, per hop
  std::size_t frame_payload = 1448;  ///< TCP MSS on ethernet
  std::size_t frame_overhead = 78;   ///< eth+IP+TCP headers per frame
  /// Fixed per-message CPU cost charged on the transmit path (syscall,
  /// protocol work). The calibration knob that turns raw bandwidth into the
  /// paper's observed 80–90 Mbit/s (see EXPERIMENTS.md).
  double per_message_cpu_s = 40e-6;

  /// Bytes on the wire for a message of `payload` bytes.
  [[nodiscard]] std::size_t wire_bytes(std::size_t payload) const {
    const std::size_t frames =
        payload == 0 ? 1 : (payload + frame_payload - 1) / frame_payload;
    return payload + frames * frame_overhead;
  }

  /// Pure wire serialization time (bytes over the link) for `payload` bytes.
  [[nodiscard]] double wire_time(std::size_t payload) const {
    return static_cast<double>(wire_bytes(payload)) * 8.0 / bandwidth_bps;
  }

  /// Total sender-side occupancy: CPU cost then wire serialization.
  [[nodiscard]] double ser_time(std::size_t payload) const {
    return wire_time(payload) + per_message_cpu_s;
  }
};

/// Identifies a NIC within a Network.
using NicId = std::uint32_t;
inline constexpr NicId kNoNic = 0xFFFFFFFFu;

class Network : public obs::LinkStatsSource {
 public:
  using DeliverFn = std::function<void(net::PayloadPtr)>;

  Network(Simulator& sim, NetConfig cfg) : sim_(sim), cfg_(cfg) {}

  /// Registers an endpoint; `deliver` is invoked (in sim time) for each
  /// message arriving at this NIC.
  NicId add_nic(std::string label, DeliverFn deliver) {
    nics_.push_back(Nic{std::move(label), std::move(deliver), 0.0, 0.0, true});
    return static_cast<NicId>(nics_.size() - 1);
  }

  /// Earliest time the given NIC's transmit serializer is free.
  [[nodiscard]] double tx_free_at(NicId n) const { return nics_[n].tx_free; }

  [[nodiscard]] const NetConfig& config() const { return cfg_; }

  /// Disables an endpoint (crash): queued deliveries are dropped on arrival,
  /// future sends from it are ignored.
  void disable(NicId n) { nics_[n].up = false; }

  [[nodiscard]] bool is_up(NicId n) const { return nics_[n].up; }

  /// Transmits `msg` from `from` to `to`. Returns the time the sender's
  /// transmit serializer frees (callers pacing their egress use this).
  double send(NicId from, NicId to, net::PayloadPtr msg) {
    return transmit(from, to, std::move(msg), nullptr);
  }

  /// send(), handing the arriving message to `arrive` instead of the
  /// receiving NIC's deliver function (a transport that knows the sender
  /// and the receiving node passes them along this way). Either runs only
  /// if the receiving NIC is still up.
  double transmit(NicId from, NicId to, net::PayloadPtr msg,
                  DeliverFn arrive) {
    assert(from < nics_.size() && to < nics_.size());
    Nic& src = nics_[from];
    if (!src.up) return sim_.now();

    const double wire = cfg_.wire_time(msg->wire_size());
    const double start = std::max(sim_.now(), src.tx_free);
    const double xmit_start = start + cfg_.per_message_cpu_s;
    const double depart = xmit_start + wire;
    src.tx_free = depart;
    const std::uint64_t wire_bytes = cfg_.wire_bytes(msg->wire_size());
    bytes_sent_ += wire_bytes;
    ++messages_sent_;
    src.tx_bytes += wire_bytes;
    ++src.tx_messages;

    // Receiver side: bits start arriving one hop after they start flowing.
    // A free receiver link streams them through (delivery = depart+latency);
    // a busy one buffers them at the switch and re-serializes at link rate,
    // which is exactly how fan-in congestion behaves on switched ethernet.
    Nic& dst = nics_[to];
    const double begin_rx = std::max(xmit_start + cfg_.latency_s, dst.rx_free);
    const double deliver_at = begin_rx + wire;
    dst.rx_free = deliver_at;

    sim_.schedule_at(deliver_at, [this, to, m = std::move(msg),
                                  arrive = std::move(arrive)]() mutable {
      Nic& d = nics_[to];
      if (d.up) (arrive ? arrive : d.deliver)(std::move(m));
    });
    return depart;
  }

  [[nodiscard]] std::uint64_t total_bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t total_messages_sent() const {
    return messages_sent_;
  }

  /// Per-NIC transmit accounting — what lets a sharded harness break the
  /// global totals out per ring (sum over the ring's server NICs).
  [[nodiscard]] std::uint64_t nic_messages_sent(NicId n) const {
    return nics_[n].tx_messages;
  }
  [[nodiscard]] std::uint64_t nic_bytes_sent(NicId n) const {
    return nics_[n].tx_bytes;
  }

  /// obs::LinkStatsSource: the same per-NIC transmit accounting behind the
  /// fabric-independent interface the metrics exporter reads.
  [[nodiscard]] std::vector<obs::LinkCounters> link_counters() const override {
    std::vector<obs::LinkCounters> out;
    out.reserve(nics_.size());
    for (const Nic& n : nics_) {
      out.push_back(obs::LinkCounters{n.label, n.tx_messages, n.tx_bytes});
    }
    return out;
  }

 private:
  struct Nic {
    std::string label;
    DeliverFn deliver;
    double tx_free = 0.0;
    double rx_free = 0.0;
    bool up = true;
    std::uint64_t tx_messages = 0;
    std::uint64_t tx_bytes = 0;
  };

  Simulator& sim_;
  NetConfig cfg_;
  std::vector<Nic> nics_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
};

}  // namespace hts::sim
