// Shared in-process ring drivers for RingServer unit tests: a reply-recording
// ServerContext and a mini-ring that delivers every producible ring message
// until quiescence (dead servers swallow anything sent to them, crash-stop).
// Used by server_unit_test.cpp and multiobject_test.cpp — keep the crash and
// settle semantics here so the suites cannot drift apart.
#pragma once

#include <memory>
#include <vector>

#include "core/messages.h"
#include "core/server.h"

namespace hts::core::test {

struct MockCtx final : ServerContext {
  struct Reply {
    ClientId client;
    net::PayloadPtr msg;
  };
  std::vector<Reply> replies;

  void send_client(ClientId client, net::PayloadPtr msg) override {
    replies.push_back(Reply{client, std::move(msg)});
  }

  [[nodiscard]] int acks_for(ClientId c, RequestId r) const {
    int n = 0;
    for (const auto& rep : replies) {
      if (rep.client == c && rep.msg->kind() == kClientWriteAck &&
          static_cast<const ClientWriteAck&>(*rep.msg).req == r) {
        ++n;
      }
    }
    return n;
  }

  [[nodiscard]] const ClientReadAck* last_read_ack(ClientId c) const {
    const ClientReadAck* found = nullptr;
    for (const auto& rep : replies) {
      if (rep.client == c && rep.msg->kind() == kClientReadAck) {
        found = &static_cast<const ClientReadAck&>(*rep.msg);
      }
    }
    return found;
  }
};

/// Mini-ring: delivers every producible ring message until quiescence.
/// Dead servers swallow anything sent to them (crash-stop).
class MiniRing {
 public:
  explicit MiniRing(std::size_t n, ServerOptions opts = {}) {
    for (ProcessId p = 0; p < n; ++p) {
      servers_.push_back(std::make_unique<RingServer>(p, n, opts));
      dead_.push_back(false);
    }
  }

  RingServer& at(ProcessId p) { return *servers_[p]; }
  MockCtx& ctx() { return ctx_; }

  void crash(ProcessId p) {
    kill(p);
    for (ProcessId q = 0; q < servers_.size(); ++q) notify(q, p);
  }

  /// Crash-stops p without telling anyone: a staggered-notice schedule
  /// then delivers the failure detector's notices one peer at a time.
  void kill(ProcessId p) { dead_[p] = true; }
  void notify(ProcessId q, ProcessId crashed) {
    if (!dead_[q]) servers_[q]->on_peer_crash(crashed, ctx_);
  }

  /// One egress step from server p: send its next ring message (if any).
  bool step(ProcessId p) {
    if (dead_[p]) return false;
    auto send = servers_[p]->next_ring_send();
    if (!send) return false;
    if (!dead_[send->to]) {
      servers_[send->to]->on_ring_message(std::move(send->msg), ctx_);
    }
    return true;
  }

  /// Runs until no server can make progress.
  void settle() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (ProcessId p = 0; p < servers_.size(); ++p) {
        while (step(p)) progress = true;
      }
    }
  }

 private:
  std::vector<std::unique_ptr<RingServer>> servers_;
  std::vector<bool> dead_;
  MockCtx ctx_;
};

}  // namespace hts::core::test
