#include "core/client.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "code/crc32.h"
#include "code/mds.h"

namespace hts::core {

ClientSession::ClientSession(ClientId id, ClientOptions opts)
    : id_(id),
      opts_(opts),
      router_(opts.topology.value_or(Topology::single(opts.n_servers)),
              opts.preferred_server),
      epoch_(opts.epoch) {
  assert(opts_.max_inflight > 0);
}

RequestId ClientSession::begin_write(ObjectId object, Value v,
                                     ClientContext& ctx) {
  Op op;
  op.object = object;
  op.is_read = false;
  op.req = next_write_req_++;  // gapless among writes: exact server dedup
  op.value = std::move(v);
  op.invoked_at = ctx.now();
  const RequestId req = op.req;
  probe_.event(obs::EventKind::kClientSubmit, req, object);
  backlog_.push_back(std::move(op));
  dispatch(ctx);
  return req;
}

RequestId ClientSession::begin_read(ObjectId object, ClientContext& ctx) {
  Op op;
  op.object = object;
  op.is_read = true;
  op.req = kReadRequestBit | next_read_req_++;
  op.invoked_at = ctx.now();
  const RequestId req = op.req;
  probe_.event(obs::EventKind::kClientSubmit, req, object);
  backlog_.push_back(std::move(op));
  dispatch(ctx);
  return req;
}

void ClientSession::dispatch(ClientContext& ctx) {
  // In-order scan: the first backlog op of each object goes out as soon as
  // a pipeline slot and the object slot are free; later ops of the same
  // object stay behind it (per-object FIFO).
  for (auto it = backlog_.begin();
       it != backlog_.end() && inflight_.size() < opts_.max_inflight;) {
    if (active_objects_.contains(it->object)) {
      ++it;
      continue;
    }
    Op op = std::move(*it);
    it = backlog_.erase(it);
    op.ring = router_.ring_of(op.object);
    op.target = router_.target_of(op.ring);
    active_objects_.insert(op.object);
    auto [slot, fresh] = inflight_.emplace(op.req, std::move(op));
    assert(fresh);
    arm_retry(slot->second.retry_at, transmit(slot->second, ctx), ctx);
  }
}

bool ClientSession::refresh_view() {
  if (!view_provider_) return false;
  ClusterView latest = view_provider_();
  if (latest.epoch <= epoch_) return false;
  epoch_ = latest.epoch;
  router_.set_topology(latest.topology);
  ++view_refreshes_;
  return true;
}

void ClientSession::reroute(Op& op) {
  op.ring = router_.ring_of(op.object);
  op.target = router_.target_of(op.ring);
}

double ClientSession::transmit(Op& op, ClientContext& ctx) {
  ++op.attempts;
  probe_.event(obs::EventKind::kClientSend, op.req, op.target, op.attempts);
  const Topology& topo = router_.topology();
  const std::size_t ring_n =
      op.ring < topo.n_rings() ? topo.ring_size(op.ring) : 0;
  const code::ValuePolicy& pol = opts_.value_policy;
  if (op.is_read) {
    // A (re)transmission restarts the read protocol from the top: any
    // half-finished coded fetch is stale (its tag may be GC'd, its server
    // dead) and must not leak into the fresh attempt.
    op.fetching = false;
    op.frag_parts.clear();
    ctx.send_server(op.target, net::make_payload<ClientRead>(
                                   id_, op.req, op.object, epoch_));
  } else if (pol.coded_for(op.value.size()) && pol.k <= ring_n &&
             ring_n >= 2 && ring_n <= 255) {
    // Coded write (D11): encode into ring_n fragments, one per ring
    // member by local index; only the sticky target's copy initiates.
    // A retry re-encodes and re-fans-out — servers re-stage (idempotent)
    // and the initiate copy deduplicates exactly like a retried
    // ClientWrite. Rings smaller than k take the replicated branch below.
    code::MdsCodec codec(ring_n, pol.k);
    std::vector<std::string> frags = codec.encode(op.value.bytes());
    ++encodes_;
    for (std::size_t i = 0; i < ring_n; ++i) {
      const ProcessId global =
          topo.global_id(op.ring, static_cast<ProcessId>(i));
      const std::uint32_t crc = code::crc32(frags[i]);
      ctx.send_server(global,
                      net::make_payload<FragWrite>(
                          id_, op.req, static_cast<std::uint8_t>(ring_n),
                          static_cast<std::uint8_t>(pol.k),
                          static_cast<std::uint8_t>(i), global == op.target,
                          op.value.size(), crc, std::move(frags[i]),
                          op.object, epoch_));
    }
  } else {
    ctx.send_server(op.target, net::make_payload<ClientWrite>(
                                   id_, op.req, op.value, op.object, epoch_));
  }
  const double delay = opts_.retry_timeout;
  op.retry_at = ctx.now() + delay;
  op.retry_seq = ++retry_seq_;
  return delay;
}

void ClientSession::arm_retry(double at, double delay, ClientContext& ctx) {
  // The armed timer already fires by `at`: this deadline waits for it.
  if (timer_token_ != 0 && timer_at_ <= at) return;
  timer_token_ = ++timer_seq_;
  timer_at_ = at;
  ctx.arm_timer(delay, timer_token_);
}

void ClientSession::on_reply(const net::Payload& msg, ProcessId from,
                             ClientContext& ctx) {
  RequestId req = 0;
  bool is_read = false;
  Epoch served_epoch = 0;
  switch (msg.kind()) {
    case kClientWriteAck: {
      const auto& m = static_cast<const ClientWriteAck&>(msg);
      req = m.req;
      served_epoch = m.epoch;
      break;
    }
    case kClientReadAck: {
      const auto& m = static_cast<const ClientReadAck&>(msg);
      req = m.req;
      served_epoch = m.epoch;
      is_read = true;
      break;
    }
    case kEpochNack: {
      // The target does not own the op's register under the hinted epoch:
      // refresh the view and re-route. If the registry has caught up to the
      // hint, retransmit right away; otherwise leave the op armed — its
      // retry timer re-checks the view, so progress resumes as soon as the
      // flip publishes (no immediate retransmit = no NACK ping-pong).
      const auto& m = static_cast<const EpochNack&>(msg);
      auto nacked = inflight_.find(m.req);
      if (nacked == inflight_.end()) return;  // late, op already completed
      ++epoch_nacks_;
      probe_.event(obs::EventKind::kClientNacked, m.req, m.epoch);
      const bool refreshed = refresh_view();
      if (refreshed) {
        probe_.event(obs::EventKind::kClientEpochRefresh, m.req, epoch_);
      }
      Op& op = nacked->second;
      const ProcessId before = op.target;
      reroute(op);
      // Retransmit only when something actually changed (the view advanced
      // to the hint, or the route did): a NACK that changes nothing waits
      // for the retry timer instead of ping-ponging at network rate.
      if (epoch_ >= m.epoch && (refreshed || op.target != before)) {
        arm_retry(op.retry_at, transmit(op, ctx), ctx);
      }
      return;
    }
    case kCodedReadAck: {
      // A read hit a coded register: the ack names the committed tag and
      // carries the replier's fragments; collect k distinct ones (here and
      // via FragFetch from the other ring members) and reconstruct.
      const auto& m = static_cast<const CodedReadAck&>(msg);
      auto it = inflight_.find(m.req);
      if (it == inflight_.end()) return;  // late, op already completed
      Op& op = it->second;
      if (!op.is_read) return;
      if (op.fetching && m.tag < op.frag_tag) {
        return;  // a stale server's ack; keep fetching the newer tag
      }
      if (!op.fetching || m.tag > op.frag_tag) {
        // First ack, or a retry's server named a fresher committed tag:
        // (re)start the fetch there. Never downgrades — the read completes
        // with a tag at least as fresh as any server reported.
        op.fetching = true;
        op.frag_tag = m.tag;
        op.frag_shape = CodedShape{m.n, m.k, m.value_size};
        op.frag_epoch = m.epoch;
        op.frag_from = from;
        op.frag_parts.clear();
      }
      accept_parts(op, m.parts);
      if (try_complete_coded(it, ctx)) return;
      // Round 2: ask every other ring member for its fragments at the tag.
      const Topology& topo = router_.topology();
      if (op.ring >= topo.n_rings()) return;  // view moved; timer recovers
      for (std::size_t i = 0; i < topo.ring_size(op.ring); ++i) {
        const ProcessId global =
            topo.global_id(op.ring, static_cast<ProcessId>(i));
        if (global == from) continue;
        ctx.send_server(global,
                        net::make_payload<FragFetch>(id_, op.req, op.frag_tag,
                                                     op.object, epoch_));
      }
      return;
    }
    case kFragFetchAck: {
      const auto& m = static_cast<const FragFetchAck&>(msg);
      auto it = inflight_.find(m.req);
      if (it == inflight_.end()) return;
      Op& op = it->second;
      // Only fragments of the tag being fetched count; an empty or
      // mismatched ack is a miss (GC'd or never stored there) — the
      // remaining k-of-n acks complete the read, or the timer restarts it.
      if (!op.fetching || m.tag != op.frag_tag) return;
      accept_parts(op, m.parts);
      try_complete_coded(it, ctx);
      return;
    }
    default:
      return;  // not addressed to this protocol role
  }
  auto it = inflight_.find(req);
  if (it == inflight_.end()) return;  // late duplicate after completion
  if (it->second.is_read != is_read) return;  // kind mismatch: not our reply
  if (is_read) {
    const auto& m = static_cast<const ClientReadAck&>(msg);
    complete(it, from, served_epoch, m.value, m.tag, ctx);
  } else {
    complete(it, from, served_epoch, Value{}, Tag{}, ctx);
  }
}

void ClientSession::complete(std::map<RequestId, Op>::iterator it,
                             ProcessId from, Epoch epoch, Value value,
                             const Tag& tag, ClientContext& ctx) {
  const Op& op = it->second;
  OpResult result;
  result.is_read = op.is_read;
  result.object = op.object;
  // The serving ring comes from the server that actually replied — the
  // evidence the cross-ring checker needs; a misrouting bug would make it
  // differ from the router's choice. Routed ring only when the fabric did
  // not identify the sender. A sender beyond this view's server range is a
  // retired ring's straggler: its ring has no id under the current
  // topology, and op.ring may already be the *re-routed* ring (wrong for
  // the reply's old epoch) — record "unknown" so the epoch-aware checker
  // is not fed a false (ring, epoch) pair.
  if (from == kNoProcess) {
    result.ring = op.ring;
  } else if (from < router_.topology().total_servers()) {
    result.ring = router_.topology().ring_of_server(from);
  } else {
    result.ring = kNoRing;
  }
  result.epoch = epoch;
  result.req = op.req;
  result.value = std::move(value);
  result.tag = tag;
  result.invoked_at = op.invoked_at;
  result.completed_at = ctx.now();
  result.attempts = op.attempts;
  result.served_by = from;
  probe_.event(obs::EventKind::kClientReply, op.req,
               from == kNoProcess ? 0 : from, op.attempts);

  active_objects_.erase(op.object);
  inflight_.erase(it);
  dispatch(ctx);  // a freed slot may release queued work
  if (on_complete) on_complete(result);
}

void ClientSession::accept_parts(Op& op, const std::vector<FragPart>& parts) {
  for (const FragPart& p : parts) {
    if (p.index >= op.frag_shape.n) continue;
    if (op.frag_parts.contains(p.index)) continue;
    if (code::crc32(p.bytes) != p.checksum) {
      // Corrupt in storage or transit: never feed it to the decoder — k
      // *valid* fragments are required, and the CRC is what detects a bad
      // one before it silently reconstructs garbage.
      ++frag_corrupt_;
      continue;
    }
    op.frag_parts.emplace(p.index, p.bytes);
  }
}

bool ClientSession::try_complete_coded(std::map<RequestId, Op>::iterator it,
                                       ClientContext& ctx) {
  Op& op = it->second;
  if (!op.fetching || op.frag_parts.size() < std::size_t{op.frag_shape.k}) {
    return false;
  }
  std::vector<code::FragmentRef> refs;
  refs.reserve(op.frag_parts.size());
  for (const auto& [idx, bytes] : op.frag_parts) {
    refs.emplace_back(idx, std::string_view(bytes));
  }
  std::string bytes;
  try {
    code::MdsCodec codec(op.frag_shape.n, op.frag_shape.k);
    bytes = codec.decode(refs, op.frag_shape.value_size);
  } catch (const std::invalid_argument&) {
    return false;  // inconsistent geometry; the retry timer restarts
  }
  ++decodes_;
  complete(it, op.frag_from, op.frag_epoch, Value(std::move(bytes)),
           op.frag_tag, ctx);
  return true;
}

void ClientSession::on_timer(std::uint64_t token, ClientContext& ctx) {
  if (token != timer_token_) return;  // superseded by an earlier deadline
  timer_token_ = 0;
  // Retry every op due by now in (deadline, arm order) — the order one
  // timer per op would have fired in — then re-arm once for the earliest
  // deadline left. A fire that finds nothing due (clock rounding) only
  // re-arms, so no retry is ever lost.
  const double now = ctx.now();
  struct Due {
    double at;
    std::uint64_t seq;
    RequestId req;
  };
  std::vector<Due> due;
  for (const auto& [req, op] : inflight_) {
    if (op.retry_at <= now) due.push_back({op.retry_at, op.retry_seq, req});
  }
  std::sort(due.begin(), due.end(), [](const Due& a, const Due& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  for (const Due& d : due) {
    if (auto it = inflight_.find(d.req); it != inflight_.end()) {
      retry(it->second, ctx);
    }
  }
  if (inflight_.empty()) return;
  const Op& next = std::min_element(inflight_.begin(), inflight_.end(),
                                    [](const auto& a, const auto& b) {
                                      return a.second.retry_at <
                                             b.second.retry_at;
                                    })->second;
  arm_retry(next.retry_at, std::max(0.0, next.retry_at - ctx.now()), ctx);
}

void ClientSession::retry(Op& op, ClientContext& ctx) {
  // §3: "when their request times out, they simply re-send it to another
  // server". Same request id — servers deduplicate retried writes (D5).
  // Rotation stays inside the op's ring, and later dispatches to that ring
  // start at the rotated-to server: one crashed preferred server must not
  // cost every subsequent op of its shard a timeout.
  //
  // A retry is also the moment to notice a reconfiguration the session has
  // not heard about (e.g. the op's whole ring was retired and nobody is
  // left to NACK): adopt the latest view and re-route before re-sending.
  const bool refreshed = refresh_view();
  if (refreshed) {
    probe_.event(obs::EventKind::kClientEpochRefresh, op.req, epoch_);
  }
  if (refreshed || op.ring >= router_.topology().n_rings() ||
      router_.ring_of(op.object) != op.ring) {
    // The view advanced — now, or earlier via another op's EpochNack while
    // this op was already in flight. Either way this op's route is stale
    // (its ring may not even exist any more): re-derive it instead of
    // rotating inside the old ring.
    reroute(op);
  } else {
    op.target = router_.rotate(op.ring, op.target);
    ++rotations_;
  }
  ++total_retries_;
  probe_.event(obs::EventKind::kClientRetry, op.req, op.attempts + 1);
  transmit(op, ctx);
}

}  // namespace hts::core
