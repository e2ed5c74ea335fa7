// One interface over every fabric's link accounting.
//
// sim::Network keeps per-NIC tx counters; both live transports keep per-node
// atomics on each node's net::NodeLoop (tx charged at send, rx at delivery).
// LinkStatsSource is the common read side: a labeled list of {messages,
// bytes} counters, so the exporter (and any future dashboard) reads every
// fabric identically. Labels follow the NodeAddress convention: "s<id>" for
// servers, "c<id>" for clients. The socket fabric adds how many writes
// carried its frames (tx_flushes), so frames per flush is
// tx_messages / tx_flushes; no other fabric has, or exports, that count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace hts::obs {

struct LinkCounters {
  std::string label;
  std::uint64_t tx_messages = 0;
  std::uint64_t tx_bytes = 0;
  // Receive side. The in-process fabrics count delivered payloads at their
  // wire size; the socket fabric counts real bytes read. Sources that do not
  // track rx (sim::Network charges the sender only) leave these at zero.
  std::uint64_t rx_messages = 0;
  std::uint64_t rx_bytes = 0;
  // sendmsg calls that wrote bytes: set by the socket fabric only.
  std::optional<std::uint64_t> tx_flushes = std::nullopt;
};

class LinkStatsSource {
 public:
  virtual ~LinkStatsSource() = default;
  /// Snapshot of every endpoint's transmit counters, in registration order.
  [[nodiscard]] virtual std::vector<LinkCounters> link_counters() const = 0;
};

/// Publishes a source's counters into the registry as
/// "<prefix>.<label>.tx_messages" / ".tx_bytes" / ".rx_*" (and
/// ".tx_flushes" where the source counts them) plus "<prefix>.total.*".
inline void export_links(MetricsRegistry& reg, const std::string& prefix,
                         const LinkStatsSource& src) {
  std::uint64_t total_msgs = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_rx_msgs = 0;
  std::uint64_t total_rx_bytes = 0;
  std::optional<std::uint64_t> total_flushes;
  for (const LinkCounters& lc : src.link_counters()) {
    if (lc.tx_flushes) {
      reg.counter(prefix + "." + lc.label + ".tx_flushes")->set(*lc.tx_flushes);
      total_flushes = total_flushes.value_or(0) + *lc.tx_flushes;
    }
    reg.counter(prefix + "." + lc.label + ".tx_messages")->set(lc.tx_messages);
    reg.counter(prefix + "." + lc.label + ".tx_bytes")->set(lc.tx_bytes);
    reg.counter(prefix + "." + lc.label + ".rx_messages")->set(lc.rx_messages);
    reg.counter(prefix + "." + lc.label + ".rx_bytes")->set(lc.rx_bytes);
    total_msgs += lc.tx_messages;
    total_bytes += lc.tx_bytes;
    total_rx_msgs += lc.rx_messages;
    total_rx_bytes += lc.rx_bytes;
  }
  reg.counter(prefix + ".total.tx_messages")->set(total_msgs);
  reg.counter(prefix + ".total.tx_bytes")->set(total_bytes);
  reg.counter(prefix + ".total.rx_messages")->set(total_rx_msgs);
  reg.counter(prefix + ".total.rx_bytes")->set(total_rx_bytes);
  if (total_flushes) {
    reg.counter(prefix + ".total.tx_flushes")->set(*total_flushes);
  }
}

}  // namespace hts::obs
