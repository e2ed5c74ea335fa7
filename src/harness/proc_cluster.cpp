#include "harness/proc_cluster.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/clock.h"
#include "core/client.h"
#include "core/server.h"
#include "core/topology.h"
#include "harness/transport_hosts.h"

namespace hts::harness {

namespace {

/// A server process's argv: this flag, its id, the detection delay, the fd
/// of its inherited listener, then every server's port in id order.
constexpr const char* kChildFlag = "--hts-proc-server";

/// tcp_options for a process of the deployment: every server's port.
net::TcpTransport::Options proc_options(
    double detection_delay_s, const std::vector<std::uint16_t>& ports) {
  net::TcpTransport::Options o = tcp_options(detection_delay_s, ports.size());
  for (std::size_t id = 0; id < ports.size(); ++id) {
    o.listeners[net::NodeAddress::server(static_cast<ProcessId>(id))].port =
        ports[id];
  }
  return o;
}

/// The parent's copies of the servers' listeners. Closing them once every
/// server process holds its own means a dead server's port refuses dials.
struct ParentListeners {
  ParentListeners() = default;
  ParentListeners(const ParentListeners&) = delete;
  ParentListeners& operator=(const ParentListeners&) = delete;
  ~ParentListeners() {
    for (const net::TcpTransport::Listener& l : all) ::close(l.fd);
  }
  std::vector<net::TcpTransport::Listener> all;
};

/// SIGTERM → one byte down the self-pipe; the child's main thread blocks on
/// the read end (signal-handler-safe shutdown with no polling).
int g_term_pipe[2] = {-1, -1};
extern "C" void on_sigterm(int) {
  const char b = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_term_pipe[1], &b, 1);
}

}  // namespace

bool ProcCluster::serve_child(int argc, char** argv) {
  if (argc < 6 || std::strcmp(argv[1], kChildFlag) != 0) return false;
  const auto id = static_cast<ProcessId>(std::strtoul(argv[2], nullptr, 10));
  std::vector<std::uint16_t> ports;
  for (int i = 5; i < argc; ++i) {
    ports.push_back(
        static_cast<std::uint16_t>(std::strtoul(argv[i], nullptr, 10)));
  }
  if (::pipe(g_term_pipe) != 0) ::_exit(126);
  struct sigaction sa{};
  sa.sa_handler = on_sigterm;
  ::sigaction(SIGTERM, &sa, nullptr);

  // One ring, so global ids are local ids. Reconfiguration cannot cross a
  // process boundary: the host runs without a migration control plane.
  net::TcpTransport::Options o =
      proc_options(std::strtod(argv[3], nullptr), ports);
  o.listeners[net::NodeAddress::server(id)].fd = std::atoi(argv[4]);
  net::TcpTransport transport(std::move(o));
  TransportServerHost host(transport, id, ports.size(), id, 0,
                           core::ServerOptions{});
  host.register_node();
  transport.start();
  char b = 0;
  while (::read(g_term_pipe[0], &b, 1) < 0 && errno == EINTR) {
  }
  transport.stop();  // graceful: byes on every connection
  ::_exit(0);
}

// ----------------------------------------------------------------- cluster

ProcCluster::ProcCluster(ProcClusterConfig cfg) : cfg_(cfg) {}

ProcCluster::~ProcCluster() { stop(); }

void ProcCluster::start() {
  if (started_) return;
  const std::size_t n = cfg_.n_servers;
  std::vector<std::uint16_t> ports;
  {
    // Every listener exists before any process of the deployment starts.
    ParentListeners listeners;
    for (std::size_t id = 0; id < n; ++id) {
      listeners.all.push_back(net::TcpTransport::listen_ephemeral());
      ports.push_back(listeners.all.back().port);
    }
    // Every argv is built before the first fork: between fork and exec a
    // child makes async-signal-safe calls only.
    std::vector<std::vector<std::string>> words(n);
    std::vector<std::vector<const char*>> argvs(n);
    for (std::size_t id = 0; id < n; ++id) {
      words[id] = {"/proc/self/exe", kChildFlag, std::to_string(id),
                   std::to_string(cfg_.detection_delay_s),
                   std::to_string(listeners.all[id].fd)};
      for (const std::uint16_t port : ports) {
        words[id].push_back(std::to_string(port));
      }
      for (const std::string& w : words[id]) argvs[id].push_back(w.c_str());
      argvs[id].push_back(nullptr);
    }
    children_.assign(n, -1);
    for (std::size_t id = 0; id < n; ++id) {
      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("ProcCluster: fork failed");
      if (pid == 0) {
        // exec immediately: the child must not run with the parent's
        // threads' state (only fork+exec is sanitizer-safe from a threaded
        // process). Its own listener is the one fd it keeps across exec.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // no orphans if the parent dies
        ::fcntl(listeners.all[id].fd, F_SETFD, 0);
        ::execv("/proc/self/exe", const_cast<char* const*>(argvs[id].data()));
        ::_exit(127);
      }
      children_[id] = pid;
    }
  }  // Each listener now lives in its own server process only.

  transport_ = std::make_unique<net::TcpTransport>(
      proc_options(cfg_.detection_delay_s, ports));
  core::ClientOptions copts;
  copts.n_servers = n;
  copts.topology = core::Topology::single(n);
  copts.preferred_server = 0;
  copts.retry_timeout = cfg_.client_retry_timeout_s;
  copts.max_inflight = 8;
  client_ = std::make_unique<TransportClientHost>(
      *transport_, core::ClientSession(0, copts), /*history=*/nullptr);
  client_->register_node();
  transport_->start();
  started_ = true;
}

void ProcCluster::stop() {
  // No started_ gate: start() may throw after forking (the client's
  // listener failing to bind), and those children block on the term pipe
  // until killed — reap any pid in children_ regardless.
  for (pid_t& pid : children_) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(5.0);
  for (pid_t& pid : children_) {
    if (pid <= 0) continue;
    for (;;) {
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid || r < 0) break;
      if (clk::steady_now() >= deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid = -1;
  }
  if (transport_) transport_->stop();
  started_ = false;
}

void ProcCluster::put(ObjectId object, Value v) {
  (void)client_->run(/*is_read=*/false, object, std::move(v));
}

Value ProcCluster::get(ObjectId object) {
  return client_->run(/*is_read=*/true, object, Value()).value;
}

void ProcCluster::kill_server(ProcessId p) {
  const auto idx = static_cast<std::size_t>(p);
  if (idx >= children_.size() || children_[idx] <= 0) return;
  ::kill(children_[idx], SIGKILL);  // kernel closes its sockets: a raw break
  int status = 0;
  ::waitpid(children_[idx], &status, 0);
  children_[idx] = -1;
}

bool ProcCluster::server_up(ProcessId p) const {
  return transport_->is_up(net::NodeAddress::server(p));
}

bool ProcCluster::wait_server_down(ProcessId p, double timeout_s) const {
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(timeout_s);
  while (server_up(p)) {
    if (clk::steady_now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

net::Transport& ProcCluster::transport() { return *transport_; }

std::uint16_t ProcCluster::server_port(ProcessId p) const {
  return transport_->port_of(net::NodeAddress::server(p));
}

}  // namespace hts::harness
