// One interface over every fabric's link accounting.
//
// sim::Network keeps per-NIC tx counters; both live transports keep per-node
// atomics on each node's net::NodeLoop (tx charged at send, rx at delivery).
// LinkStatsSource is the common read side: a labeled list of {messages,
// bytes} counters, so the exporter (and any future dashboard) reads every
// fabric identically. Labels follow the NodeAddress convention: "s<id>" for
// servers, "c<id>" for clients. The socket fabric adds how many writes
// carried its frames (tx_flushes), so frames per flush is
// tx_messages / tx_flushes, and how many non-blocking polls its loops made
// after a blocking wait (ready_polls), of which ready_poll_hits found an
// event; no other fabric has, or exports, these counts. The in-memory
// fabric's futex-parked loops add the futex wakes other threads sent them
// (loop_wakes) and the parks they took (parks); only it exports those.
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
  // Set by the socket fabric only: sendmsg calls that wrote bytes, and its
  // loops' non-blocking polls and the polls that found an event.
  std::optional<std::uint64_t> tx_flushes = std::nullopt;
  std::optional<std::uint64_t> ready_polls = std::nullopt;
  std::optional<std::uint64_t> ready_poll_hits = std::nullopt;
  // Set by the in-memory fabric only: futex wakes sent to the node's loop,
  // and the futex waits the loop entered.
  std::optional<std::uint64_t> loop_wakes = std::nullopt;
  std::optional<std::uint64_t> parks = std::nullopt;
};

class LinkStatsSource {
 public:
  virtual ~LinkStatsSource() = default;
  /// Snapshot of every endpoint's transmit counters, in registration order.
  [[nodiscard]] virtual std::vector<LinkCounters> link_counters() const = 0;
};

/// Every endpoint's counters summed, labeled "total"; each optional count
/// is set when any endpoint counts it.
inline LinkCounters sum_links(const std::vector<LinkCounters>& links) {
  LinkCounters total{.label = "total"};
  auto add = [](std::optional<std::uint64_t>& sum,
                const std::optional<std::uint64_t>& v) {
    if (v) sum = sum.value_or(0) + *v;
  };
  for (const LinkCounters& lc : links) {
    total.tx_messages += lc.tx_messages;
    total.tx_bytes += lc.tx_bytes;
    total.rx_messages += lc.rx_messages;
    total.rx_bytes += lc.rx_bytes;
    add(total.tx_flushes, lc.tx_flushes);
    add(total.ready_polls, lc.ready_polls);
    add(total.ready_poll_hits, lc.ready_poll_hits);
    add(total.loop_wakes, lc.loop_wakes);
    add(total.parks, lc.parks);
  }
  return total;
}

/// Publishes a source's counters into the registry as
/// "<prefix>.<label>.tx_messages" / ".tx_bytes" / ".rx_*" (and
/// ".tx_flushes" / ".ready_polls" / ".ready_poll_hits" / ".loop_wakes" /
/// ".parks" where the source counts them) plus "<prefix>.total.*".
inline void export_links(MetricsRegistry& reg, const std::string& prefix,
                         const LinkStatsSource& src) {
  std::vector<LinkCounters> links = src.link_counters();
  links.push_back(sum_links(links));
  for (const LinkCounters& lc : links) {
    const std::string p = prefix + "." + lc.label + ".";
    reg.counter(p + "tx_messages")->set(lc.tx_messages);
    reg.counter(p + "tx_bytes")->set(lc.tx_bytes);
    reg.counter(p + "rx_messages")->set(lc.rx_messages);
    reg.counter(p + "rx_bytes")->set(lc.rx_bytes);
    if (lc.tx_flushes) reg.counter(p + "tx_flushes")->set(*lc.tx_flushes);
    if (lc.ready_polls) reg.counter(p + "ready_polls")->set(*lc.ready_polls);
    if (lc.ready_poll_hits) {
      reg.counter(p + "ready_poll_hits")->set(*lc.ready_poll_hits);
    }
    if (lc.loop_wakes) reg.counter(p + "loop_wakes")->set(*lc.loop_wakes);
    if (lc.parks) reg.counter(p + "parks")->set(*lc.parks);
  }
}

}  // namespace hts::obs
