#include "core/server.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "code/crc32.h"
#include "code/mds.h"
#include "common/logging.h"

namespace hts::core {

RingServer::RingServer(ProcessId self, std::size_t n_servers,
                       ServerOptions opts)
    : self_(self),
      opts_(opts),
      ring_(n_servers),
      successor_(ring_.successor(self)),
      sched_(n_servers, self),
      view_{0, kDefaultRing, std::make_shared<const ShardMap>(1)} {
  assert(self < n_servers);
  // The default register always exists: crash repair syncs it even when it
  // was never written, exactly as the single-register protocol did.
  objects_.emplace(kDefaultObject,
                   ObjectState(kDefaultObject, n_servers, kInitialTag));
}

RingServer::ObjectState& RingServer::state_of(ObjectId id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    it = objects_.emplace(id, ObjectState(id, ring_.initial_size(), kInitialTag))
             .first;
  }
  return it->second;
}

const RingServer::ObjectState* RingServer::find_state(ObjectId id) const {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : &it->second;
}

void RingServer::on_message(net::PayloadPtr msg, ServerContext& ctx) {
  switch (msg->kind()) {
    case kRingBatch:  // unpacked atomically by on_ring_message
    case kPreWrite:
    case kWriteCommit:
    case kSyncState:
    case kPreWriteFrag:
    case kFragRepair:
      on_ring_message(std::move(msg), ctx);
      break;
    case kFragWrite:
      on_frag_write(static_cast<const FragWrite&>(*msg), ctx);
      break;
    case kFragFetch:
      on_frag_fetch(static_cast<const FragFetch&>(*msg), ctx);
      break;
    case kMigrateState:
      on_migrate_state(static_cast<const MigrateState&>(*msg));
      break;
    case kMigrateDedup:
      on_migrate_dedup(static_cast<const MigrateDedup&>(*msg));
      break;
    case kClientWrite: {
      const auto& m = static_cast<const ClientWrite&>(*msg);
      on_client_write(m.client, m.req, m.value, ctx, m.object);
      break;
    }
    case kClientRead: {
      const auto& m = static_cast<const ClientRead&>(*msg);
      on_client_read(m.client, m.req, ctx, m.object);
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------- clients

bool RingServer::gate_client_op(bool is_read, ClientId client, RequestId req,
                                Value* value, ObjectId object,
                                ServerContext& ctx) {
  const bool owns_now = view_.owns(object);
  if (!incoming_) {
    if (owns_now) return false;
    // Misrouted (stale client view): refuse with our newest epoch as the
    // refresh hint.
    ++stats_.epoch_nacks;
    probe_.event(obs::EventKind::kEpochNackSent, client, req, view_.epoch);
    ctx.send_client(client,
                    net::make_payload<EpochNack>(req, object, view_.epoch));
    return true;
  }
  const bool owns_next = incoming_->owns(object);
  if (owns_now && owns_next) return false;  // untouched by the change
  if (!owns_now && owns_next) {
    // The register is moving onto this server: the op comes from a client
    // that already refreshed to the next view. Park it until the flip —
    // serving before the migrated state lands would read/write a stale
    // (initial) register. Duplicate retries of one write collapse to one
    // parked copy, so the replay cannot double-apply.
    if (!is_read) {
      for (const TransitionOp& t : transition_parked_) {
        if (!t.is_read && t.client == client && t.req == req) return true;
      }
    }
    ++stats_.transition_parked;
    probe_.event(obs::EventKind::kTransitionPark, client, req,
                 incoming_->epoch);
    transition_parked_.push_back(TransitionOp{
        is_read, client, req, value ? std::move(*value) : Value{}, object});
    return true;
  }
  // Moving away (the freeze half of freeze→copy→flip), or never ours: the
  // next epoch is the hint the client needs.
  ++stats_.epoch_nacks;
  probe_.event(obs::EventKind::kEpochNackSent, client, req, incoming_->epoch);
  ctx.send_client(client,
                  net::make_payload<EpochNack>(req, object, incoming_->epoch));
  return true;
}

void RingServer::on_client_write(ClientId client, RequestId req, Value value,
                                 ServerContext& ctx, ObjectId object) {
  ++stats_.client_writes_in;
  if (opts_.dedup_retries && view_.owns(object) &&
      request_completed(client, req)) {
    // This request already completed somewhere (we learned via the commit
    // circulating); re-applying would risk the duplicate-write atomicity
    // violation (D5). Just ack — including mid-migration while the register
    // is frozen (this server still owns it under the current view, so the
    // (ring, epoch) stamp is truthful). Once the register has *left* this
    // server — !owns under the current view — the gate below NACKs instead:
    // the new owner dedup-acks from the merged MigrateDedup windows, so the
    // history never records the old ring serving in the new epoch.
    ++stats_.dedup_acks;
    probe_.event(obs::EventKind::kDedupAck, client, req);
    ctx.send_client(client, net::make_payload<ClientWriteAck>(req, object,
                                                              view_.epoch));
    return;
  }
  if (gate_client_op(false, client, req, &value, object, ctx)) return;
  LocalWrite w{object, client, req, std::move(value)};
  if (solo()) {
    solo_write(w, ctx);
    return;
  }
  write_queue_.push_back(std::move(w));  // line 19
  stats_.write_queue_max =
      std::max<std::uint64_t>(stats_.write_queue_max, write_queue_.size());
  probe_.event(obs::EventKind::kWriteEnqueue, client, req,
               write_queue_.size());
}

void RingServer::on_client_read(ClientId client, RequestId req,
                                ServerContext& ctx, ObjectId object) {
  ++stats_.client_reads_in;
  if (gate_client_op(true, client, req, nullptr, object, ctx)) return;
  const ObjectState* obj = find_state(object);
  if (obj == nullptr || obj->pending.empty()) {  // line 77
    // A never-touched register is a register in its initial state — no
    // pending pre-writes can exist for it, so the read is immediate.
    ++stats_.reads_immediate;
    probe_.event(obs::EventKind::kReadImmediate, client, req);
    if (obj != nullptr && obj->coded) {
      send_coded_read_ack(*obj, client, req, ctx);
      return;
    }
    ctx.send_client(client, net::make_payload<ClientReadAck>(
                                req, obj ? obj->value : Value{},
                                obj ? obj->tag : kInitialTag, object,
                                view_.epoch));
    return;
  }
  const Tag threshold = *obj->pending.max_tag();  // line 80
  if (opts_.read_fastpath && obj->tag >= threshold) {
    // Ablation: the locally applied value already dominates every pending
    // pre-write, so it is safe to return it (the paper always parks).
    ++stats_.reads_immediate;
    probe_.event(obs::EventKind::kReadImmediate, client, req);
    if (obj->coded) {
      send_coded_read_ack(*obj, client, req, ctx);
      return;
    }
    ctx.send_client(client,
                    net::make_payload<ClientReadAck>(req, obj->value, obj->tag,
                                                     object, view_.epoch));
    return;
  }
  ++stats_.reads_parked;
  probe_.event(obs::EventKind::kReadPark, client, req);
  state_of(object).parked.push_back(
      ParkedRead{client, req, threshold});  // line 81
}

// ----------------------------------------------- coded value plane (D11)

void RingServer::on_frag_write(const FragWrite& m, ServerContext& ctx) {
  ++stats_.frag_writes_in;
  if (m.initiate) ++stats_.client_writes_in;  // the coded write request
  if (code::crc32(m.frag) != m.checksum) {
    // A corrupt fragment must never enter the store: a reader decoding it
    // would reconstruct a value nobody wrote. Drop it — the initiate copy
    // of a dropped fragment simply times out at the client and retries.
    ++stats_.frag_corrupt;
    return;
  }
  // The commit raced ahead of this fragment (apply_coded promoted nothing
  // and recorded the tag): bind the fragment to the committed tag now —
  // staging it would leak, and dropping it would leave this server unable
  // to serve its share to readers and repair. Must run before the dedup
  // check below, which would otherwise swallow exactly this case.
  if (ObjectState& late_obj = state_of(m.object); late_obj.frags) {
    if (auto late_tag = late_obj.frags->take_late(m.client, m.req)) {
      late_obj.frags->adopt(
          *late_tag, code::StoredFragment{m.frag_index, m.n, m.k,
                                          m.value_size, m.checksum, m.frag});
      ++stats_.frag_late_binds;
      if (m.initiate && view_.owns(m.object)) {
        ++stats_.dedup_acks;
        probe_.event(obs::EventKind::kDedupAck, m.client, m.req);
        ctx.send_client(m.client, net::make_payload<ClientWriteAck>(
                                      m.req, m.object, view_.epoch));
      }
      return;
    }
  }
  // A retry of a write whose commit already circulated: every server
  // learned completion via note_completed, so nobody re-stages (staged
  // fragments of completed writes would never be promoted again — a leak).
  const bool done = opts_.dedup_retries && request_completed(m.client, m.req);
  if (done) {
    if (m.initiate && view_.owns(m.object)) {
      ++stats_.dedup_acks;
      probe_.event(obs::EventKind::kDedupAck, m.client, m.req);
      ctx.send_client(m.client, net::make_payload<ClientWriteAck>(
                                    m.req, m.object, view_.epoch));
    }
    return;
  }
  if (m.initiate &&
      gate_client_op(false, m.client, m.req, nullptr, m.object, ctx)) {
    return;
  }
  ObjectState& obj = state_of(m.object);
  obj.store().stage(m.client, m.req,
                    code::StoredFragment{m.frag_index, m.n, m.k, m.value_size,
                                         m.checksum, m.frag});
  if (!m.initiate) return;
  LocalWrite w{m.object, m.client, m.req, Value{},
               true,     m.n,      m.k,   m.value_size};
  if (solo()) {
    solo_write(w, ctx);
    return;
  }
  write_queue_.push_back(std::move(w));
  stats_.write_queue_max =
      std::max<std::uint64_t>(stats_.write_queue_max, write_queue_.size());
  probe_.event(obs::EventKind::kWriteEnqueue, m.client, m.req,
               write_queue_.size());
}

void RingServer::on_frag_fetch(const FragFetch& m, ServerContext& ctx) {
  ++stats_.frag_fetches_in;
  std::vector<FragPart> parts;
  std::uint64_t vsize = 0;
  if (const ObjectState* obj = find_state(m.object); obj && obj->frags) {
    if (const auto* set = obj->frags->at(m.tag)) {
      for (const code::StoredFragment& f : *set) {
        parts.push_back(FragPart{f.frag_index, f.checksum, f.bytes});
        vsize = f.value_size;
      }
    }
  }
  // Empty parts = not found (never staged here, or GC-reclaimed): the
  // client counts the miss and completes from the other k-of-n servers.
  ctx.send_client(m.client,
                  net::make_payload<FragFetchAck>(m.req, m.tag, vsize,
                                                  std::move(parts), m.object,
                                                  view_.epoch));
}

void RingServer::send_coded_read_ack(const ObjectState& obj, ClientId client,
                                     RequestId req, ServerContext& ctx) {
  std::vector<FragPart> parts;
  if (obj.frags) {
    if (const auto* set = obj.frags->at(obj.tag)) {
      for (const code::StoredFragment& f : *set) {
        parts.push_back(FragPart{f.frag_index, f.checksum, f.bytes});
      }
    }
  }
  ctx.send_client(client, net::make_payload<CodedReadAck>(
                              req, obj.tag, obj.cn, obj.ck,
                              obj.coded_value_size, std::move(parts), obj.id,
                              view_.epoch));
}

// ------------------------------------------------------- view changes (D8)

void RingServer::begin_view_change(ServerView next) {
  assert(!incoming_);
  assert(next.epoch == view_.epoch + 1);
  incoming_ = std::move(next);
  migrated_in_.clear();
  transition_dedup_merges_ = 0;
}

void RingServer::commit_view_change(ServerContext& ctx) {
  assert(incoming_);
  view_ = std::move(*incoming_);
  incoming_.reset();
  migrated_in_.clear();
  transition_dedup_merges_ = 0;
  // Replay in arrival order through the normal handlers: the register's
  // migrated state is installed, so writes tag past it and reads see it.
  std::deque<TransitionOp> parked = std::move(transition_parked_);
  transition_parked_.clear();
  for (TransitionOp& op : parked) {
    probe_.event(obs::EventKind::kTransitionReplay, op.client, op.req,
                 view_.epoch);
    if (op.is_read) {
      on_client_read(op.client, op.req, ctx, op.object);
    } else {
      on_client_write(op.client, op.req, std::move(op.value), ctx, op.object);
    }
  }
}

void RingServer::on_migrate_state(const MigrateState& m) {
  apply(state_of(m.object), m.tag, m.value);
  migrated_in_.insert(m.object);
  ++stats_.migrations_in;
  stats_.migrate_bytes_in += m.wire_size();
  probe_.event(obs::EventKind::kMigrateIn, 0, 0, m.wire_size(), m.object);
}

void RingServer::on_migrate_dedup(const MigrateDedup& m) {
  for (const MigrateDedup::Window& in : m.windows) {
    CompletedWindow& w = completed_req_[in.client];
    w.watermark = std::max(w.watermark, in.watermark);
    for (const RequestId r : in.above) {
      if (r > w.watermark) w.above.insert(r);
    }
    while (!w.above.empty() && *w.above.begin() <= w.watermark + 1) {
      w.watermark = std::max(w.watermark, *w.above.begin());
      w.above.erase(w.above.begin());
    }
  }
  ++stats_.dedup_merges;
  ++transition_dedup_merges_;
}

MigrationProbe RingServer::migration_probe() const {
  assert(incoming_ && incoming_->map);
  MigrationProbe out;
  for (const auto& [id, obj] : objects_) {
    if (!object_moves(id, *view_.map, *incoming_->map)) continue;
    out.moving.emplace_back(id, obj.tag);
    if (!object_quiescent(id)) out.quiescent = false;
  }
  out.migrated.assign(migrated_in_.begin(), migrated_in_.end());
  std::sort(out.migrated.begin(), out.migrated.end());
  out.dedup_merges = transition_dedup_merges_;
  return out;
}

bool RingServer::object_quiescent(ObjectId object) const {
  if (const ObjectState* obj = find_state(object)) {
    if (!obj->pending.empty() || !obj->outstanding.empty() ||
        !obj->adopted.empty() || !obj->queued_tags.empty() ||
        !obj->early_commits.empty() || !obj->parked.empty()) {
      return false;
    }
  }
  for (const LocalWrite& w : write_queue_) {
    if (w.object == object) return false;
  }
  // Repair re-sends and write-phase starts wait in the urgent queue; the
  // fairness queue holds transit traffic. Either may still reference the
  // register.
  auto references = [object](const net::Payload& msg) {
    switch (msg.kind()) {
      case kPreWrite:
        return static_cast<const PreWrite&>(msg).object == object;
      case kWriteCommit:
        return static_cast<const WriteCommit&>(msg).object == object;
      case kSyncState:
        return static_cast<const SyncState&>(msg).object == object;
      case kPreWriteFrag:
        return static_cast<const PreWriteFrag&>(msg).object == object;
      case kFragRepair:
        return static_cast<const FragRepair&>(msg).object == object;
      default:
        return false;
    }
  };
  for (const auto& msg : urgent_) {
    if (references(*msg)) return false;
  }
  for (const ForwardItem& item : sched_.queue()) {
    if (references(*item.msg)) return false;
  }
  return true;
}

std::vector<MigrateDedup::Window> RingServer::completed_windows() const {
  std::vector<MigrateDedup::Window> out;
  out.reserve(completed_req_.size());
  for (const auto& [client, w] : completed_req_) {
    MigrateDedup::Window win;
    win.client = client;
    win.watermark = w.watermark;
    win.above.assign(w.above.begin(), w.above.end());
    out.push_back(std::move(win));
  }
  return out;
}

// ---------------------------------------------------------------- ring in

void RingServer::on_ring_message(net::PayloadPtr msg, ServerContext& ctx) {
  if (msg->kind() == kRingBatch) {
    // Atomic batch delivery, enforced once for every fabric: all parts are
    // applied before control returns (so before any resulting sends are
    // pulled). Batches never nest, so this recurses at most one level.
    const auto& batch = static_cast<const RingBatch&>(*msg);
    for (const auto& part : batch.parts) on_ring_message(part, ctx);
    return;
  }
  ++stats_.ring_messages_in;
  switch (msg->kind()) {
    case kPreWrite:
      ++stats_.pre_writes_in;
      handle_pre_write(msg, static_cast<const PreWrite&>(*msg), ctx);
      break;
    case kWriteCommit:
      ++stats_.commits_in;
      handle_commit(msg, static_cast<const WriteCommit&>(*msg), ctx);
      break;
    case kSyncState:
      ++stats_.syncs_in;
      handle_sync(static_cast<const SyncState&>(*msg));
      break;
    case kPreWriteFrag:
      handle_pre_write_frag(msg, static_cast<const PreWriteFrag&>(*msg), ctx);
      break;
    case kFragRepair:
      handle_frag_repair(msg, static_cast<const FragRepair&>(*msg));
      break;
    default:
      log::error([&] {
        return "server " + std::to_string(self_) +
               ": unexpected ring message " + msg->describe();
      });
      break;
  }
  stats_.forward_queue_max =
      std::max<std::uint64_t>(stats_.forward_queue_max, sched_.queue().size());
}

void RingServer::handle_pre_write(const net::PayloadPtr& msg, const PreWrite& m,
                                  ServerContext& ctx) {
  ObjectState& obj = state_of(m.object);
  if (m.tag.id == self_) {
    // My own pre-write completed the loop (lines 32–39).
    auto it = obj.outstanding.find(m.tag);
    if (it == obj.outstanding.end()) {
      // Long completed; a crash-recovery duplicate. Absorb.
      ++stats_.duplicates_dropped;
      return;
    }
    if (it->second.write_phase) {
      // Duplicate of a pre-write whose commit is already circulating; the
      // duplicate exists because of a crash re-send, so the commit may have
      // been lost too — re-issue it.
      push_urgent(net::make_payload<WriteCommit>(m.tag, it->second.client,
                                                 it->second.req, m.object,
                                                 view_.epoch));
      return;
    }
    it->second.write_phase = true;
    obj.pending.erase(m.tag);           // line 37
    apply(obj, m.tag, it->second.value);  // lines 33–36
    push_urgent(net::make_payload<WriteCommit>(m.tag, it->second.client,
                                               it->second.req, m.object,
                                               view_.epoch));  // line 38
    return;
  }

  // Transit. The early-commit case must run before duplicate suppression:
  // processing the overtaking commit set the watermark, but this pre-write
  // is the first copy we see, not a duplicate.
  if (obj.early_commits.contains(m.tag)) {
    // Defensive (non-FIFO fabrics only): the commit overtook this pre-write.
    // Apply now and forward the pre-write so downstream servers can do the
    // same; it must NOT enter the pending set (the commit already passed).
    obj.early_commits.erase(m.tag);
    // If the original copy still sits in our forward queue, neutralize it:
    // without this, next_ring_send would move it into the pending set at
    // pull time — a pending entry whose commit already passed and will
    // never return, parking every later read forever.
    obj.queued_tags.erase(m.tag);
    apply(obj, m.tag, m.value);
    note_completed(obj, m.tag, m.client, m.req);
    unpark_up_to(obj, m.tag, ctx);
    sched_.enqueue(ForwardItem{m.tag.id, msg});
    return;
  }

  // Duplicate handling (D5):
  if (already_committed(obj, m.tag)) {
    // The commit already passed here; everyone downstream on this path has
    // or will see that commit before this duplicate. Nothing to do.
    ++stats_.duplicates_dropped;
    return;
  }
  if (obj.queued_tags.contains(m.tag)) {
    // Original copy is still waiting in our forward queue; it will carry the
    // information onward. Drop the duplicate.
    ++stats_.duplicates_dropped;
    return;
  }

  const bool origin_dead = !ring_.is_alive(m.tag.id);
  if (origin_dead && ring_.absorber(m.tag.id) == self_) {
    // D4: the pre-write of a dead origin completed its loop at us — we are
    // the surrogate. Behave exactly as the origin would at line 32: apply,
    // clear pending, and launch the write phase on the origin's behalf.
    if (obj.adopted.contains(m.tag)) {
      // Duplicate while our adoption commit circulates; re-issue the commit
      // in case it was lost with another crash.
      push_urgent(net::make_payload<WriteCommit>(m.tag, m.client, m.req,
                                                 m.object, view_.epoch));
      return;
    }
    ++stats_.adoptions;
    obj.pending.erase(m.tag);
    apply(obj, m.tag, m.value);
    obj.adopted[m.tag] = {m.client, m.req};
    push_urgent(net::make_payload<WriteCommit>(m.tag, m.client, m.req,
                                               m.object, view_.epoch));
    return;
  }

  if (obj.pending.contains(m.tag)) {
    // We already forwarded this pre-write once (it is pending here). A
    // duplicate must still travel onward: crash recovery re-sends exist
    // precisely to bridge gaps *downstream* of us. Forward without
    // re-inserting into the pending set.
    forward_duplicate(m.tag.id, msg);
    return;
  }

  // Normal transit path (lines 30–31). The pending insertion happens at
  // forward time (line 71) — see next_ring_send().
  sched_.enqueue(ForwardItem{m.tag.id, msg});
  obj.queued_tags.insert(m.tag);
  (void)ctx;
}

void RingServer::handle_commit(const net::PayloadPtr& msg, const WriteCommit& m,
                               ServerContext& ctx) {
  ObjectState& obj = state_of(m.object);
  if (m.tag.id == self_) {
    // My own commit returned: the write is complete (lines 49–51).
    auto it = obj.outstanding.find(m.tag);
    if (it == obj.outstanding.end()) {
      ++stats_.duplicates_dropped;  // duplicate of an acked write
      return;
    }
    note_completed(obj, m.tag, it->second.client, it->second.req);
    ctx.send_client(it->second.client,
                    net::make_payload<ClientWriteAck>(
                        it->second.req, m.object, view_.epoch));
    obj.outstanding.erase(it);
    unpark_up_to(obj, m.tag, ctx);
    return;
  }

  // Surrogate absorption: a commit we issued for a dead origin came back.
  auto ad = obj.adopted.find(m.tag);
  if (ad != obj.adopted.end() && !ring_.is_alive(m.tag.id) &&
      ring_.absorber(m.tag.id) == self_) {
    note_completed(obj, m.tag, ad->second.first, ad->second.second);
    obj.adopted.erase(ad);
    unpark_up_to(obj, m.tag, ctx);
    return;
  }

  if (already_committed(obj, m.tag)) {
    // Recovery duplicate. Forward it (downstream may have missed it) unless
    // we are where it must be absorbed.
    if (!ring_.is_alive(m.tag.id) && ring_.absorber(m.tag.id) == self_) {
      ++stats_.duplicates_dropped;
      return;
    }
    forward_duplicate(m.tag.id, msg);
    return;
  }

  auto entry = obj.pending.erase(m.tag);  // line 47
  if (entry && entry->coded) {
    // Coded write: the value never travelled — bind the fragment this
    // server staged from the client's FragWrite to the committing tag.
    apply_coded(obj, m.tag, entry->client, entry->req, entry->cn, entry->ck,
                entry->coded_value_size);
  } else if (entry) {
    apply(obj, m.tag, entry->value);  // lines 43–46, value cached at pre-write
  } else {
    // Commit overtook its pre-write (only possible on a non-FIFO fabric).
    // Remember it; the pre-write handler completes the work.
    obj.early_commits.insert(m.tag);
  }
  note_completed(obj, m.tag, m.client, m.req);
  unpark_up_to(obj, m.tag, ctx);
  sched_.enqueue(ForwardItem{m.tag.id, msg});  // line 48
}

void RingServer::handle_sync(const SyncState& m) {
  apply(state_of(m.object), m.tag, m.value);
}

void RingServer::handle_pre_write_frag(const net::PayloadPtr& msg,
                                       const PreWriteFrag& m,
                                       ServerContext& ctx) {
  // The coded twin of handle_pre_write: identical circulation, no value —
  // each server already staged its fragment from the client's FragWrite,
  // and the commit binds it to this tag (apply_coded).
  ObjectState& obj = state_of(m.object);
  if (m.tag.id == self_) {
    auto it = obj.outstanding.find(m.tag);
    if (it == obj.outstanding.end()) {
      ++stats_.duplicates_dropped;
      return;
    }
    if (it->second.write_phase) {
      push_urgent(net::make_payload<WriteCommit>(m.tag, it->second.client,
                                                 it->second.req, m.object,
                                                 view_.epoch));
      return;
    }
    it->second.write_phase = true;
    obj.pending.erase(m.tag);
    apply_coded(obj, m.tag, it->second.client, it->second.req, m.n, m.k,
                m.value_size);
    push_urgent(net::make_payload<WriteCommit>(m.tag, it->second.client,
                                               it->second.req, m.object,
                                               view_.epoch));
    return;
  }

  if (obj.early_commits.contains(m.tag)) {
    obj.early_commits.erase(m.tag);
    obj.queued_tags.erase(m.tag);  // see handle_pre_write: defuse queued copy
    apply_coded(obj, m.tag, m.client, m.req, m.n, m.k, m.value_size);
    note_completed(obj, m.tag, m.client, m.req);
    unpark_up_to(obj, m.tag, ctx);
    sched_.enqueue(ForwardItem{m.tag.id, msg});
    return;
  }

  if (already_committed(obj, m.tag)) {
    ++stats_.duplicates_dropped;
    return;
  }
  if (obj.queued_tags.contains(m.tag)) {
    ++stats_.duplicates_dropped;
    return;
  }

  const bool origin_dead = !ring_.is_alive(m.tag.id);
  if (origin_dead && ring_.absorber(m.tag.id) == self_) {
    if (obj.adopted.contains(m.tag)) {
      push_urgent(net::make_payload<WriteCommit>(m.tag, m.client, m.req,
                                                 m.object, view_.epoch));
      return;
    }
    ++stats_.adoptions;
    obj.pending.erase(m.tag);
    apply_coded(obj, m.tag, m.client, m.req, m.n, m.k, m.value_size);
    obj.adopted[m.tag] = {m.client, m.req};
    push_urgent(net::make_payload<WriteCommit>(m.tag, m.client, m.req,
                                               m.object, view_.epoch));
    return;
  }

  if (obj.pending.contains(m.tag)) {
    forward_duplicate(m.tag.id, msg);
    return;
  }

  sched_.enqueue(ForwardItem{m.tag.id, msg});
  obj.queued_tags.insert(m.tag);
  (void)ctx;
}

void RingServer::handle_frag_repair(const net::PayloadPtr& msg,
                                    const FragRepair& m) {
  ObjectState& obj = state_of(m.object);
  // A repair doubles as the coded register's SyncState: it names the
  // origin's committed tag and geometry, so a spliced-in successor that
  // missed the commit adopts the coded state here (same "at least as fresh
  // as the predecessor" argument as handle_sync).
  if (m.tag > obj.tag) {
    obj.tag = m.tag;
    obj.value = Value{};
    obj.coded = true;
    obj.cn = m.n;
    obj.ck = m.k;
    obj.coded_value_size = m.value_size;
  }

  if (m.origin == self_) {
    // Full loop: the ring contributed its fragments. Regenerate the crashed
    // server's index so the code's failure tolerance is restored.
    if (m.parts.size() >= std::size_t{m.k}) {
      std::vector<code::FragmentRef> refs;
      refs.reserve(m.parts.size());
      for (const FragPart& p : m.parts) {
        refs.emplace_back(p.index, std::string_view(p.bytes));
      }
      try {
        code::MdsCodec codec(m.n, m.k);
        std::string frag = codec.regenerate(m.missing_index, refs,
                                            m.value_size);
        const std::uint32_t crc = code::crc32(frag);
        obj.store().adopt(m.tag,
                          code::StoredFragment{m.missing_index, m.n, m.k,
                                               m.value_size, crc,
                                               std::move(frag)});
        ++stats_.frag_repairs;
      } catch (const std::invalid_argument&) {
        ++stats_.frag_corrupt;  // inconsistent contributions: abandon
      }
    }
    return;  // absorb — repairs circulate exactly once
  }
  if (!ring_.is_alive(m.origin) && ring_.absorber(m.origin) == self_) {
    return;  // the origin died mid-repair; absorb on its behalf
  }

  // Transit: contribute our fragments at the tag while fewer than k are
  // aboard, then forward (fairness-accounted under the origin, like any
  // ring message).
  std::vector<FragPart> parts = m.parts;
  bool contributed = false;
  if (obj.frags && parts.size() < std::size_t{m.k}) {
    if (const auto* set = obj.frags->at(m.tag)) {
      for (const code::StoredFragment& f : *set) {
        if (parts.size() >= std::size_t{m.k}) break;
        if (f.frag_index == m.missing_index) continue;
        const bool dup =
            std::any_of(parts.begin(), parts.end(), [&](const FragPart& p) {
              return p.index == f.frag_index;
            });
        if (dup) continue;
        parts.push_back(FragPart{f.frag_index, f.checksum, f.bytes});
        contributed = true;
      }
    }
  }
  net::PayloadPtr onward =
      contributed ? net::make_payload<FragRepair>(m.origin, m.tag, m.n, m.k,
                                                  m.missing_index,
                                                  m.value_size,
                                                  std::move(parts), m.object,
                                                  m.epoch)
                  : msg;
  sched_.enqueue(ForwardItem{m.origin, std::move(onward)});
}

// ---------------------------------------------------------------- egress

bool RingServer::has_ring_traffic() const {
  if (solo()) return false;
  return !urgent_.empty() || !sched_.forward_queue_empty() ||
         !write_queue_.empty();
}

namespace {

/// (client, req) of a protocol message, for trace attribution. SyncState
/// and RingBatch carry no op identity.
std::pair<ClientId, RequestId> op_of(const net::Payload& msg) {
  switch (msg.kind()) {
    case kPreWrite: {
      const auto& m = static_cast<const PreWrite&>(msg);
      return {m.client, m.req};
    }
    case kWriteCommit: {
      const auto& m = static_cast<const WriteCommit&>(msg);
      return {m.client, m.req};
    }
    case kPreWriteFrag: {
      const auto& m = static_cast<const PreWriteFrag&>(msg);
      return {m.client, m.req};
    }
    default:
      return {0, 0};
  }
}

}  // namespace

std::optional<RingSend> RingServer::next_ring_send() {
  if (solo()) return std::nullopt;
  if (!urgent_.empty()) {
    net::PayloadPtr msg = std::move(urgent_.front());
    urgent_.pop_front();
    if (msg->kind() == kWriteCommit) ++stats_.commits_sent;
    ++stats_.ring_messages_out;
    if (probe_.attached()) {
      const auto [c, r] = op_of(*msg);
      probe_.event(obs::EventKind::kFairnessPick, c, r, batch_seq_);
    }
    return RingSend{successor_, std::move(msg)};
  }

  FairScheduler::Decision d;
  if (opts_.fairness) {
    d = sched_.next(!write_queue_.empty());
  } else {
    // Ablation: forward-first FIFO, no per-origin accounting.
    d = sched_.next_fifo(!write_queue_.empty());
  }
  if (d.initiate_local) {
    LocalWrite w = std::move(write_queue_.front());
    write_queue_.pop_front();  // line 27
    ++stats_.ring_messages_out;
    probe_.event(obs::EventKind::kFairnessPick, w.client, w.req, batch_seq_);
    return initiate_write(std::move(w));
  }
  if (d.forward) {
    ForwardItem item = std::move(*d.forward);
    sched_.count_sent(item.origin);  // line 72
    if (item.msg->kind() == kPreWrite) {
      // Line 71: a pre-write enters our pending set when we forward it —
      // unless its commit already overtook it while it sat in this queue
      // (crash re-send timing on a real fabric). Such a tag must apply now
      // and never enter pending: the commit will not come back to erase the
      // entry, and a stale pending tag parks every later read forever.
      const auto& pw = static_cast<const PreWrite&>(*item.msg);
      ObjectState& obj = state_of(pw.object);
      if (obj.queued_tags.erase(pw.tag) > 0) {
        if (obj.early_commits.erase(pw.tag) > 0) {
          apply(obj, pw.tag, pw.value);
        } else {
          obj.pending.insert(PendingEntry{pw.tag, pw.value, pw.client,
                                          pw.req});
        }
      }
    } else if (item.msg->kind() == kPreWriteFrag) {
      // Same rule for the coded twin; the entry carries geometry, no value.
      const auto& pw = static_cast<const PreWriteFrag&>(*item.msg);
      ObjectState& obj = state_of(pw.object);
      if (obj.queued_tags.erase(pw.tag) > 0) {
        if (obj.early_commits.erase(pw.tag) > 0) {
          apply_coded(obj, pw.tag, pw.client, pw.req, pw.n, pw.k,
                      pw.value_size);
        } else {
          obj.pending.insert(PendingEntry{pw.tag, Value{}, pw.client, pw.req,
                                          true, pw.n, pw.k, pw.value_size});
        }
      }
    }
    ++stats_.forwards;
    ++stats_.ring_messages_out;
    if (probe_.attached()) {
      const auto [c, r] = op_of(*item.msg);
      probe_.event(obs::EventKind::kFairnessPick, c, r, batch_seq_);
    }
    return RingSend{successor_, std::move(item.msg)};
  }
  return std::nullopt;
}

net::PayloadPtr RingBatchSend::into_wire() && {
  assert(!msgs.empty());
  return msgs.size() == 1 ? std::move(msgs.front())
                          : net::make_payload<RingBatch>(std::move(msgs));
}

std::optional<RingBatchSend> RingServer::next_ring_batch() {
  ++batch_seq_;  // the id kFairnessPick events stamp on this pull's picks
  auto first = next_ring_send();
  if (!first) return std::nullopt;
  RingBatchSend batch;
  batch.to = first->to;
  batch.msgs.push_back(std::move(first->msg));
  const std::size_t cap = opts_.max_batch < 1 ? 1 : opts_.max_batch;
  while (batch.msgs.size() < cap) {
    auto more = next_ring_send();
    if (!more) break;
    // The successor only changes inside on_peer_crash, never between pulls,
    // so every message in one batch targets the same link.
    assert(more->to == batch.to);
    batch.msgs.push_back(std::move(more->msg));
  }
  if (batch.msgs.size() > 1) ++stats_.batches_out;
  // One sample per transmission (singletons included), so the histogram's
  // mean is exactly RingTraffic's fill: ring messages / transmissions.
  probe_.record_batch_fill(static_cast<double>(batch.msgs.size()));
  probe_.event(obs::EventKind::kBatchSeal, 0, 0, batch_seq_,
               batch.msgs.size());
  return batch;
}

RingSend RingServer::initiate_write(LocalWrite w) {
  // Lines 22–26: tag = [max(highest pending ts, local ts) + 1, i]. The
  // timestamp space is per object: registers version independently.
  ObjectState& obj = state_of(w.object);
  std::uint64_t ts = obj.tag.ts;
  if (auto hp = obj.pending.max_tag()) ts = std::max(ts, hp->ts);
  const Tag tag{ts + 1, self_};

  obj.pending.insert(PendingEntry{tag, w.value, w.client, w.req, w.coded,
                                  w.cn, w.ck, w.coded_value_size});
  obj.outstanding[tag] =
      OutstandingWrite{w.client, w.req,         w.value, false,
                       w.coded,  w.cn,  w.ck,   w.coded_value_size};
  sched_.count_sent(self_);  // line 26
  ++stats_.pre_writes_initiated;
  if (w.coded) {
    return RingSend{successor_, net::make_payload<PreWriteFrag>(
                                    tag, w.client, w.req, w.cn, w.ck,
                                    w.coded_value_size, w.object,
                                    view_.epoch)};
  }
  return RingSend{successor_,
                  net::make_payload<PreWrite>(tag, w.value, w.client, w.req,
                                              w.object, view_.epoch)};
}

void RingServer::solo_write(const LocalWrite& w, ServerContext& ctx) {
  ObjectState& obj = state_of(w.object);
  std::uint64_t ts = obj.tag.ts;
  if (auto hp = obj.pending.max_tag()) ts = std::max(ts, hp->ts);
  const Tag tag{ts + 1, self_};
  if (w.coded) {
    apply_coded(obj, tag, w.client, w.req, w.cn, w.ck, w.coded_value_size);
  } else {
    apply(obj, tag, w.value);
  }
  note_completed(obj, tag, w.client, w.req);
  ctx.send_client(w.client, net::make_payload<ClientWriteAck>(
                                w.req, w.object, view_.epoch));
  unpark_up_to(obj, tag, ctx);
}

// ---------------------------------------------------------------- crashes

void RingServer::on_peer_crash(ProcessId crashed, ServerContext& ctx) {
  if (crashed == self_ || !ring_.mark_crashed(crashed)) return;
  std::vector<net::PayloadPtr> duplicates = std::move(forwarded_duplicates_);
  forwarded_duplicates_.clear();

  if (ring_.alive_count() == 1) {
    resolve_everything_solo(ctx);
    return;
  }

  const bool was_successor = (crashed == successor_);
  successor_ = ring_.successor(self_);

  if (was_successor) {
    // Lines 86–91: splice the ring; bring the new successor up to date and
    // re-send every pending pre-write (anything swallowed by the dead
    // successor is covered; duplicates are suppressed downstream). One
    // repair pass per touched register, default object first (objects_ is
    // ordered) — single-register traffic is exactly the original repair
    // (the default register syncs unconditionally, as the seed did).
    // Registers still in their initial state need no SyncState: applying
    // the initial tag downstream is a no-op, and with one register per key
    // a namespace-wide sweep should not flood the ring with them.
    for (const auto& [id, obj] : objects_) {
      if (obj.coded) {
        // A coded register syncs through its FragRepair (launched in the
        // absorber pass below — it carries tag + geometry); a SyncState
        // with the empty value would install an empty *replicated* state.
      } else if (id == kDefaultObject || !obj.tag.is_initial()) {
        ++stats_.syncs_sent;
        push_urgent(net::make_payload<SyncState>(obj.tag, obj.value, id,
                                                 view_.epoch));
      }
      for (const auto& e : obj.pending.snapshot()) {
        if (e.coded) {
          push_urgent(net::make_payload<PreWriteFrag>(
              e.tag, e.client, e.req, e.cn, e.ck, e.coded_value_size, id,
              view_.epoch));
        } else {
          push_urgent(net::make_payload<PreWrite>(e.tag, e.value, e.client,
                                                  e.req, id, view_.epoch));
        }
      }
    }
    // Staggered notices: an origin that learned of the crash first re-sent
    // its current phase, and we forwarded that duplicate into the dead
    // successor before our own notice arrived — the original commit may
    // have died there too, so nothing else would ever complete the write.
    // Re-send every duplicate forwarded since the last notice; downstream
    // duplicate suppression absorbs the ones that did get through.
    for (net::PayloadPtr& msg : duplicates) push_urgent(std::move(msg));
  }

  for (auto& [id, obj] : objects_) {
    // Origin-side repair: any of my in-flight writes may have died inside
    // the crashed server. Re-issue the current phase; duplicates are
    // absorbed.
    for (auto& [tag, ow] : obj.outstanding) {
      if (ow.write_phase) {
        push_urgent(net::make_payload<WriteCommit>(tag, ow.client, ow.req, id,
                                                   view_.epoch));
      } else if (ow.coded) {
        push_urgent(net::make_payload<PreWriteFrag>(
            tag, ow.client, ow.req, ow.cn, ow.ck, ow.coded_value_size, id,
            view_.epoch));
      } else {
        push_urgent(net::make_payload<PreWrite>(tag, ow.value, ow.client,
                                                ow.req, id, view_.epoch));
      }
    }

    // D4 — adoption: if we are the dead server's surrogate, restart the
    // circulation of every pre-write it originated that is still pending
    // here; when each loops back to us we commit it on the origin's behalf.
    if (ring_.absorber(crashed) == self_) {
      for (const auto& e : obj.pending.entries_from(crashed)) {
        ++stats_.adoptions;
        if (e.coded) {
          push_urgent(net::make_payload<PreWriteFrag>(
              e.tag, e.client, e.req, e.cn, e.ck, e.coded_value_size, id,
              view_.epoch));
        } else {
          push_urgent(net::make_payload<PreWrite>(e.tag, e.value, e.client,
                                                  e.req, id, view_.epoch));
        }
      }

      // D11 — coded repair (the RADON direction): the crashed server's
      // fragment of every coded register is gone. Circulate a FragRepair
      // seeded with our fragments; each server appends its own until k are
      // aboard, and back here the missing index is regenerated and
      // adopted. Doubles as the coded register's splice sync (see
      // handle_frag_repair). Only worthwhile while >= k servers survive.
      if (obj.coded && ring_.alive_count() >= std::size_t{obj.ck}) {
        std::vector<FragPart> parts;
        if (obj.frags) {
          if (const auto* set = obj.frags->at(obj.tag)) {
            for (const code::StoredFragment& f : *set) {
              parts.push_back(FragPart{f.frag_index, f.checksum, f.bytes});
            }
          }
        }
        push_urgent(net::make_payload<FragRepair>(
            self_, obj.tag, obj.cn, obj.ck,
            static_cast<std::uint8_t>(crashed), obj.coded_value_size,
            std::move(parts), id, view_.epoch));
      }
    }
  }
}

void RingServer::resolve_everything_solo(ServerContext& ctx) {
  // Only this server remains: every pending pre-write of every register
  // resolves by local application in tag order; every queued/outstanding
  // write completes.
  for (auto& [id, obj] : objects_) {
    for (const auto& e : obj.pending.snapshot()) {
      if (e.coded) {
        apply_coded(obj, e.tag, e.client, e.req, e.cn, e.ck,
                    e.coded_value_size);
      } else {
        apply(obj, e.tag, e.value);
      }
      note_completed(obj, e.tag, e.client, e.req);
    }
    obj.pending.clear();

    for (auto& [tag, ow] : obj.outstanding) {
      if (ow.coded) {
        apply_coded(obj, tag, ow.client, ow.req, ow.cn, ow.ck,
                    ow.coded_value_size);
      } else {
        apply(obj, tag, ow.value);
      }
      note_completed(obj, tag, ow.client, ow.req);
      ctx.send_client(ow.client, net::make_payload<ClientWriteAck>(
                                     ow.req, id, view_.epoch));
    }
    obj.outstanding.clear();
    obj.adopted.clear();
    obj.queued_tags.clear();
    obj.early_commits.clear();

    // Parked reads: every threshold tag has now been applied or superseded,
    // so the current tag dominates every parked threshold.
    unpark_up_to(obj, obj.tag, ctx);
  }
  urgent_.clear();

  // Queued client writes complete through the solo path.
  std::deque<LocalWrite> queued = std::move(write_queue_);
  write_queue_.clear();
  for (auto& w : queued) solo_write(w, ctx);
}

// ---------------------------------------------------------------- helpers

void RingServer::apply(ObjectState& obj, const Tag& t, const Value& v) {
  if (t > obj.tag) {
    obj.tag = t;
    obj.value = v;
    // A replicated value superseding a coded state flips the register back
    // to replicated mode (one register may alternate under a
    // size-threshold policy). Old fragment sets stay until the GC
    // watermark of a later coded commit reclaims them.
    obj.coded = false;
  }
}

void RingServer::apply_coded(ObjectState& obj, const Tag& t, ClientId client,
                             RequestId req, std::uint8_t n, std::uint8_t k,
                             std::uint64_t value_size) {
  if (t > obj.tag) {
    obj.tag = t;
    obj.value = Value{};
    obj.coded = true;
    obj.cn = n;
    obj.ck = k;
    obj.coded_value_size = value_size;
  }
  ++stats_.coded_commits;
  // Promote even when t is superseded: the fragment belongs to tag t
  // regardless, and an in-flight read of t may still fetch it (the GC
  // slack below is what bounds how long). A promote with nothing staged
  // means the FragWrite has not arrived here (the fan-out and the ring
  // share no ordering, so the commit can win the race — or the fragment
  // was lost to a crash window): the commit still applies — that is an
  // availability loss of one fragment, never an atomicity violation.
  // Remember the tag so a late-arriving fragment binds to it directly
  // (on_frag_write); repair can also refill it.
  if (!obj.store().promote(client, req, t)) {
    ++stats_.frag_missing;
    obj.store().note_missing(client, req, t);
  }
  const std::size_t freed =
      obj.store().gc_below(obj.tag, opts_.value_policy.gc_keep);
  if (freed > 0) {
    ++stats_.gc_runs;
    stats_.gc_reclaimed_bytes += freed;
  }
}

void RingServer::note_completed(ObjectState& obj, const Tag& t,
                                ClientId client, RequestId req) {
  if (t.id < obj.commit_watermark.size()) {
    obj.commit_watermark[t.id] = std::max(obj.commit_watermark[t.id], t.ts);
  }
  if (!opts_.dedup_retries) return;
  CompletedWindow& w = completed_req_[client];
  if (req <= w.watermark) return;  // stale duplicate
  w.above.insert(req);
  // D6: advance the watermark over the gapless completed prefix. Write ids
  // are gapless per client (reads use a disjoint id space), so a gap is a
  // write whose commit has not circulated yet — it will, and `above`
  // drains. No forced compaction: guessing a gap closed could ack a write
  // that was never applied (an acked-but-lost write).
  while (!w.above.empty() && *w.above.begin() == w.watermark + 1) {
    w.watermark = *w.above.begin();
    w.above.erase(w.above.begin());
  }
}

bool RingServer::request_completed(ClientId client, RequestId req) const {
  auto it = completed_req_.find(client);
  if (it == completed_req_.end()) return false;
  return req <= it->second.watermark || it->second.above.contains(req);
}

bool RingServer::already_committed(const ObjectState& obj, const Tag& t) {
  return t.id < obj.commit_watermark.size() &&
         t.ts <= obj.commit_watermark[t.id];
}

void RingServer::unpark_up_to(ObjectState& obj, const Tag& t,
                              ServerContext& ctx) {
  std::vector<ParkedRead> keep;
  keep.reserve(obj.parked.size());
  for (ParkedRead& r : obj.parked) {
    if (r.threshold <= t) {
      // D2: reply with the *current* local value — at least as new as the
      // threshold since the unblocking commit has been applied.
      if (obj.coded) {
        send_coded_read_ack(obj, r.client, r.req, ctx);
      } else {
        ctx.send_client(r.client,
                        net::make_payload<ClientReadAck>(r.req, obj.value,
                                                         obj.tag, obj.id,
                                                         view_.epoch));
      }
    } else {
      keep.push_back(std::move(r));
    }
  }
  obj.parked.swap(keep);
}

void RingServer::forward_duplicate(ProcessId origin,
                                   const net::PayloadPtr& msg) {
  sched_.enqueue(ForwardItem{origin, msg});
  forwarded_duplicates_.push_back(msg);
}

void RingServer::push_urgent(net::PayloadPtr msg) {
  urgent_.push_back(std::move(msg));
  stats_.urgent_queue_max =
      std::max<std::uint64_t>(stats_.urgent_queue_max, urgent_.size());
}

const Tag& RingServer::current_tag(ObjectId object) const {
  static const Tag initial = kInitialTag;
  const ObjectState* obj = find_state(object);
  return obj ? obj->tag : initial;
}

const Value& RingServer::current_value(ObjectId object) const {
  static const Value empty;
  const ObjectState* obj = find_state(object);
  return obj ? obj->value : empty;
}

const PendingSet& RingServer::pending(ObjectId object) const {
  static const PendingSet none;
  const ObjectState* obj = find_state(object);
  return obj ? obj->pending : none;
}

std::size_t RingServer::parked_read_count(ObjectId object) const {
  const ObjectState* obj = find_state(object);
  return obj ? obj->parked.size() : 0;
}

std::size_t RingServer::fragment_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, obj] : objects_) {
    if (obj.frags) {
      total += obj.frags->stored_bytes() + obj.frags->staged_bytes();
    }
  }
  return total;
}

}  // namespace hts::core
