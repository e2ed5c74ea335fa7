#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "code/crc32.h"
#include "code/mds.h"
#include "common/rng.h"
#include "common/value.h"
#include "core/client.h"
#include "core/messages.h"
#include "core/server.h"
#include "core/topology.h"
#include "net/frame_writer.h"
#include "net/inmem_transport.h"
#include "net/tcp_transport.h"
#include "os_stats.h"

namespace hts_bench {

using namespace hts;
using Clock = std::chrono::steady_clock;

namespace {

// Every replay reports the median of kReps timed repetitions of at least
// kRepS each, so one burst from another tenant of the machine moves at most
// one sample.
constexpr int kReps = 5;
constexpr double kRepS = 0.025;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double median_of_reps(F&& rep) {
  std::vector<double> samples;
  for (int i = 0; i < kReps; ++i) samples.push_back(rep());
  std::sort(samples.begin(), samples.end());
  return samples[kReps / 2];
}

/// Nanoseconds per operation of `batch`, which performs `per_batch`
/// operations per call.
template <typename F>
double ns_per_op(std::size_t per_batch, F&& batch) {
  batch();  // warm caches and pools outside the timed region
  return median_of_reps([&] {
    std::size_t ops = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      batch();
      ops += per_batch;
      elapsed = seconds_since(t0);
    } while (elapsed < kRepS);
    return elapsed * 1e9 / static_cast<double>(ops);
  });
}

ObjectId object_of(std::size_t i) { return static_cast<ObjectId>(i + 1); }

Value value_of(ObjectId obj, std::size_t size) {
  return Value::synthetic((obj << 40) | 1, size);
}

std::vector<core::FragPart> fragments(const code::MdsCodec& codec,
                                      const Value& v) {
  std::vector<core::FragPart> parts;
  std::vector<std::string> frags = codec.encode(v.bytes());
  for (std::size_t i = 0; i < frags.size(); ++i) {
    parts.push_back(core::FragPart{static_cast<std::uint8_t>(i),
                                   code::crc32(frags[i]), std::move(frags[i])});
  }
  return parts;
}

// ------------------------------------------------------------ client replay

struct NullClientCtx final : core::ClientContext {
  void send_server(ProcessId, net::PayloadPtr) override {}
  void arm_timer(double, std::uint64_t) override {}
  [[nodiscard]] double now() const override { return 0; }
};

/// ClientSession begin_* plus the delivery of the reply that completes the
/// op (built per op, as a fabric would decode it), in the workload's mix.
double client_sm_ns(const ReplayParams& p) {
  core::ClientOptions o;
  o.n_servers = p.n_servers;
  o.topology = core::Topology::single(p.n_servers);
  o.max_inflight = 8;
  o.value_policy = p.policy;
  core::ClientSession session(0, o);
  NullClientCtx ctx;
  const bool coded = p.policy.coded_for(p.value_size);
  const code::MdsCodec codec(p.n_servers, coded ? p.policy.k : 1);
  std::vector<Value> values;
  std::vector<std::vector<core::FragPart>> parts;
  for (std::size_t i = 0; i < p.registers; ++i) {
    values.push_back(value_of(object_of(i), p.value_size));
    if (coded) {
      auto all = fragments(codec, values.back());
      all.resize(p.policy.k);
      parts.push_back(std::move(all));
    }
  }
  Rng rng(p.seed);
  return ns_per_op(256, [&] {
    for (int i = 0; i < 256; ++i) {
      const std::size_t r = rng.below(p.registers);
      const ObjectId obj = object_of(r);
      if (rng.chance(p.write_frac)) {
        const RequestId req = session.begin_write(obj, values[r], ctx);
        session.on_reply(core::ClientWriteAck(req, obj), 0, ctx);
      } else {
        const RequestId req = session.begin_read(obj, ctx);
        if (coded) {
          session.on_reply(
              core::CodedReadAck(req, Tag{1, 0},
                                 static_cast<std::uint8_t>(p.n_servers),
                                 static_cast<std::uint8_t>(p.policy.k),
                                 p.value_size, parts[r], obj),
              0, ctx);
        } else {
          session.on_reply(core::ClientReadAck(req, values[r], Tag{1, 0}, obj),
                           0, ctx);
        }
      }
    }
  });
}

// ------------------------------------------------------------ server replay

struct ReplySink final : core::ServerContext {
  std::uint64_t replies = 0;
  void send_client(ClientId, net::PayloadPtr) override { ++replies; }
};

/// n RingServers in one thread, ring batches handed straight to the
/// successor until no server has ring traffic left.
struct RingReplay {
  std::vector<std::unique_ptr<core::RingServer>> servers;
  ReplySink sink;

  RingReplay(std::size_t n, const code::ValuePolicy& policy) {
    core::ServerOptions o;
    o.value_policy = policy;
    for (std::size_t i = 0; i < n; ++i) {
      servers.push_back(std::make_unique<core::RingServer>(
          static_cast<ProcessId>(i), n, o));
    }
  }

  void pump() {
    for (bool moved = true; moved;) {
      moved = false;
      for (auto& s : servers) {
        while (auto batch = s->next_ring_batch()) {
          const ProcessId to = batch->to;
          servers[to]->on_ring_message(std::move(*batch).into_wire(), sink);
          moved = true;
        }
      }
    }
  }
};

/// Server-side cost of one write and one read, timed around the server
/// handlers only (building the client's messages is excluded). Coded writes
/// deliver a FragWrite to every ring member; coded reads add the k-1
/// FragFetch round the reader needs.
std::pair<double, double> server_sm_ns(const ReplayParams& p) {
  const std::size_t n = p.n_servers;
  RingReplay ring(n, p.policy);
  const bool coded = p.policy.coded_for(p.value_size);
  const std::size_t k = coded ? p.policy.k : 1;
  const code::MdsCodec codec(n, k);
  std::vector<Value> values;
  std::vector<std::vector<core::FragPart>> parts;
  for (std::size_t i = 0; i < p.registers; ++i) {
    values.push_back(value_of(object_of(i), p.value_size));
    if (coded) parts.push_back(fragments(codec, values.back()));
  }
  const ClientId client = 1;
  RequestId next_write = 1;
  RequestId next_read = 1;

  const auto write = [&](std::size_t r, std::size_t target) {
    const ObjectId obj = object_of(r);
    const RequestId req = next_write++;
    if (!coded) {
      const auto t0 = Clock::now();
      ring.servers[target]->on_client_write(client, req, values[r], ring.sink,
                                            obj);
      ring.pump();
      return Clock::now() - t0;
    }
    std::vector<std::unique_ptr<core::FragWrite>> msgs;
    for (std::size_t i = 0; i < n; ++i) {
      const core::FragPart& f = parts[r][i];
      msgs.push_back(std::make_unique<core::FragWrite>(
          client, req, static_cast<std::uint8_t>(n),
          static_cast<std::uint8_t>(k), f.index, i == target, p.value_size,
          f.checksum, f.bytes, obj));
    }
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      ring.servers[i]->on_frag_write(*msgs[i], ring.sink);
    }
    ring.pump();
    return Clock::now() - t0;
  };
  const auto read = [&](std::size_t r, std::size_t target) {
    const ObjectId obj = object_of(r);
    const RequestId req = core::kReadRequestBit | next_read++;
    const auto t0 = Clock::now();
    ring.servers[target]->on_client_read(client, req, ring.sink, obj);
    for (std::size_t j = 1; coded && j < k; ++j) {
      auto& peer = *ring.servers[(target + j) % n];
      peer.on_frag_fetch(
          core::FragFetch(client, req, peer.current_tag(obj), obj), ring.sink);
    }
    return Clock::now() - t0;
  };

  for (std::size_t r = 0; r < p.registers; ++r) (void)write(r, r % n);
  Rng rng(p.seed);
  // Each kind is timed on its own: with one op at a time nothing is ever
  // pending, so the mix would not change either cost.
  const auto per_op_ns = [&](auto&& op) {
    return median_of_reps([&] {
      Clock::duration busy{};
      std::uint64_t ops = 0;
      const auto t0 = Clock::now();
      while (seconds_since(t0) < kRepS) {
        busy += op(rng.below(p.registers), rng.below(n));
        ++ops;
      }
      return std::chrono::duration<double, std::nano>(busy).count() /
             static_cast<double>(ops);
    });
  };
  const double w = per_op_ns(write);
  return {w, per_op_ns(read)};
}

// ------------------------------------------------------------- codec replay

struct CodecKind {
  const char* name;
  net::PayloadPtr msg;
};

std::vector<CodecKind> codec_kinds(std::size_t value_size) {
  const Value v = value_of(7, value_size);
  const Tag tag{42, 1};
  const ClientId c = 3;
  const RequestId r = 99;
  const ObjectId obj = 7;
  // A frag_write carries one (n, 2) fragment: half the value.
  const std::string frag(code::MdsCodec::fragment_size(value_size, 2), 'f');
  return {
      {"client_write", net::make_payload<core::ClientWrite>(c, r, v, obj)},
      {"client_read_ack",
       net::make_payload<core::ClientReadAck>(r, v, tag, obj)},
      {"pre_write", net::make_payload<core::PreWrite>(tag, v, c, r, obj)},
      {"write_commit", net::make_payload<core::WriteCommit>(tag, c, r, obj)},
      {"frag_write",
       net::make_payload<core::FragWrite>(c, r, 5, 2, 1, true, value_size,
                                          code::crc32(frag), frag, obj)},
  };
}

void codec_replay(std::size_t value_size, std::vector<Metric>& out) {
  std::uint64_t decodes = 0, decode_allocs = 0;
  for (const CodecKind& kind : codec_kinds(value_size)) {
    net::FrameWriter w;
    const double enc = ns_per_op(64, [&] {
      for (int i = 0; i < 64; ++i) {
        const auto mark = w.begin_frame();
        core::encode_message_into(*kind.msg, w);
        w.end_frame(mark);
      }
      w.clear();
    });
    const std::string bytes = core::encode_message(*kind.msg);
    std::size_t sink = 0;
    std::uint64_t allocs = 0, ops = 0;
    const double dec = ns_per_op(64, [&] {
      const std::uint64_t a0 = allocations();
      for (int i = 0; i < 64; ++i) sink += core::decode_message(bytes)->kind();
      allocs += allocations() - a0;
      ops += 64;
    });
    if (sink == 0) out.push_back({"codec.impossible", 0, "count"});
    decodes += ops;
    decode_allocs += allocs;
    out.push_back({std::string("codec.encode_ns.") + kind.name, enc, "ns"});
    out.push_back({std::string("codec.decode_ns.") + kind.name, dec, "ns"});
  }
  out.push_back({"codec.allocs_per_decode",
                 static_cast<double>(decode_allocs) /
                     static_cast<double>(decodes),
                 "count"});
}

// ----------------------------------------------------------- fabric replays

net::TcpTransport::Options tcp_options(std::vector<ProcessId> servers) {
  net::TcpTransport::Options o;
  o.servers = std::move(servers);
  o.encode = [](const net::Payload& m, net::FrameWriter& w) {
    core::encode_message_into(m, w);
  };
  o.decode = [](std::string_view bytes) { return core::decode_message(bytes); };
  return o;
}

/// One-way hop time: a client node and a server node bounce one
/// ClientWrite of the workload's value size back and forth on their own
/// delivery threads; hop = elapsed / (2 × rounds) per repetition.
double hop_us(net::Transport& t, std::size_t value_size, int rounds) {
  const net::NodeAddress srv = net::NodeAddress::server(0);
  const net::NodeAddress cli = net::NodeAddress::client(0);
  // Written by this thread only before the send that starts a volley; the
  // transport's queue hand-off orders it before the handlers read it.
  int remaining = 0;
  std::promise<void>* done = nullptr;
  t.register_node(srv, [&](net::NodeAddress, net::PayloadPtr m) {
    t.send(srv, cli, std::move(m));
  });
  t.register_node(cli, [&](net::NodeAddress, net::PayloadPtr m) {
    if (--remaining > 0) {
      t.send(cli, srv, std::move(m));
    } else {
      done->set_value();
    }
  });
  t.start();
  const auto msg = net::make_payload<core::ClientWrite>(
      0, 1, value_of(1, value_size), 1);
  const auto volley = [&](int n) {
    std::promise<void> p;
    remaining = n;
    done = &p;
    const auto t0 = Clock::now();
    t.send(cli, srv, msg);
    p.get_future().wait();
    return seconds_since(t0);
  };
  (void)volley(8);  // untimed: TCP connections are dialled lazily
  const double us = median_of_reps(
      [&] { return volley(rounds) * 1e6 / (2.0 * rounds); });
  t.stop();
  return us;
}

/// arm_timer cost with `pending` timers already armed (all far in the
/// future, so none fires while measuring).
double timer_arm_us(net::Transport& t, std::size_t pending) {
  const net::NodeAddress cli = net::NodeAddress::client(0);
  t.register_node(cli, [](net::NodeAddress, net::PayloadPtr) {}, nullptr,
                  [](std::uint64_t) {});
  t.start();
  std::uint64_t token = 0;
  for (std::size_t i = 0; i < pending; ++i) t.arm_timer(cli, 1e4, ++token);
  constexpr int kArms = 400;
  const double us = median_of_reps([&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < kArms; ++i) t.arm_timer(cli, 1e4, ++token);
    return seconds_since(t0) * 1e6 / kArms;
  });
  t.stop();
  return us;
}

void code_replay(std::vector<Metric>& out) {
  const code::MdsCodec codec(5, 2);
  const std::size_t size = 16 * 1024;
  const Value v = value_of(3, size);
  std::size_t sink = 0;
  const double enc = ns_per_op(8, [&] {
    for (int i = 0; i < 8; ++i) sink += codec.encode(v.bytes()).size();
  });
  // Decode from every 2-of-5 subset in turn: readers complete from
  // whichever k fragments arrive first.
  const std::vector<std::string> frags = codec.encode(v.bytes());
  std::vector<std::vector<code::FragmentRef>> subsets;
  for (std::uint32_t i = 0; i < 5; ++i) {
    for (std::uint32_t j = i + 1; j < 5; ++j) {
      subsets.push_back({{i, frags[i]}, {j, frags[j]}});
    }
  }
  const double dec = ns_per_op(subsets.size(), [&] {
    for (const auto& s : subsets) sink += codec.decode(s, size).size();
  });
  if (sink == 0) out.push_back({"code.impossible", 0, "count"});
  out.push_back({"code.encode_us", enc / 1e3, "us"});
  out.push_back({"code.decode_us", dec / 1e3, "us"});
}

}  // namespace

std::vector<Metric> run_replays(const ReplayParams& p) {
  std::vector<Metric> out;
  out.push_back({"client.sm_ns_per_op", client_sm_ns(p), "ns"});
  const auto [w, r] = server_sm_ns(p);
  out.push_back({"server.sm_ns_per_write", w, "ns"});
  out.push_back({"server.sm_ns_per_read", r, "ns"});
  codec_replay(p.value_size, out);
  {
    net::InMemTransport t(0.005);
    out.push_back({"net.inmem_hop_us", hop_us(t, p.value_size, 1000), "us"});
  }
  {
    net::TcpTransport t(tcp_options({0}));
    out.push_back({"net.tcp_hop_us", hop_us(t, p.value_size, 500), "us"});
  }
  if (p.tcp) {
    net::TcpTransport t(tcp_options({}));
    out.push_back(
        {"net.timer_arm_us", timer_arm_us(t, p.pending_timers), "us"});
  } else {
    net::InMemTransport t(0.005);
    out.push_back(
        {"net.timer_arm_us", timer_arm_us(t, p.pending_timers), "us"});
  }
  code_replay(out);
  return out;
}

}  // namespace hts_bench
