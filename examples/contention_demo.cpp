// contention_demo: watch the pre-write mechanism prevent read inversion.
//
// Runs the deterministic simulator with one slow writer and several readers,
// tracing how a read issued mid-write parks until the commit passes, while
// a read before the pre-write reaches its server answers immediately with
// the old value — exactly the execution of the paper's Figure 2. Exits
// non-zero if server 2 parks no read, or if a read issued after write #2
// was acknowledged does not return value #2.
#include <cstdio>

#include "harness/sim_cluster.h"
#include "lincheck/checker.h"

int main() {
  using namespace hts;
  sim::Simulator sim;
  harness::SimClusterConfig cfg;
  cfg.n_servers = 5;
  harness::SimCluster cluster(sim, cfg);

  // One writer machine on server 0; reader machines on servers 2 and 4.
  const auto wm = cluster.add_client_machine();
  auto& writer = cluster.add_client(wm, 0);
  const auto rm2 = cluster.add_client_machine();
  auto& reader2 = cluster.add_client(rm2, 2);
  const auto rm4 = cluster.add_client_machine();
  auto& reader4 = cluster.add_client(rm4, 4);

  RequestId write2 = 0;
  double write2_acked_at = -1;
  int reads_checked = 0;
  int stale_reads = 0;
  auto report = [&](const char* who) {
    return [&, who](const core::OpResult& r) {
      if (r.is_read) {
        const std::uint64_t seen =
            r.value.empty() ? 0 : r.value.synthetic_seed();
        std::printf("[%8.3f ms] %s read  -> value #%llu (tag %s)\n",
                    r.completed_at * 1e3, who,
                    static_cast<unsigned long long>(seen),
                    r.tag.to_string().c_str());
        if (write2_acked_at >= 0 && r.invoked_at > write2_acked_at) {
          ++reads_checked;
          if (seen != 2) ++stale_reads;
        }
      } else {
        std::printf("[%8.3f ms] %s write #%llu acknowledged\n",
                    r.completed_at * 1e3, who,
                    static_cast<unsigned long long>(r.req));
        if (r.req == write2) write2_acked_at = r.completed_at;
      }
    };
  };
  writer.on_complete = report("writer  ");
  reader2.on_complete = report("reader@2");
  reader4.on_complete = report("reader@4");

  harness::ClientPort& wport = cluster.port(writer.id());
  harness::ClientPort& r2port = cluster.port(reader2.id());
  harness::ClientPort& r4port = cluster.port(reader4.id());

  // t=0: preload value #1 so readers have something old to see. It is
  // small, so it commits long before t=5ms and write #2 starts on time.
  sim.schedule_at(0.0, [&] {
    wport.begin_write(kDefaultObject, Value::synthetic(1, 64));
  });

  // t=5ms: write value #2 (takes ~2 ring traversals to commit).
  sim.schedule_at(0.005, [&] {
    std::printf("[   5.000 ms] writer   begins write #2 (pre-write starts "
                "circulating)\n");
    write2 = wport.begin_write(kDefaultObject, Value::synthetic(2, 8192));
  });

  // t=5.2ms: reader@4 reads — the pre-write has not reached server 4 yet,
  // so it answers immediately with the OLD value (#1). Safe: nobody can
  // have seen #2 yet.
  sim.schedule_at(0.0052, [&] {
    std::printf("[   5.200 ms] reader@4 issues read (pre-write not there "
                "yet)\n");
    r4port.begin_read(kDefaultObject);
  });

  // t=7.5ms: by now the pre-write passed server 2 — this read PARKS until
  // the commit arrives, then returns the NEW value (#2).
  sim.schedule_at(0.0075, [&] {
    std::printf("[   7.500 ms] reader@2 issues read (pre-write pending -> "
                "read parks)\n");
    r2port.begin_read(kDefaultObject);
  });

  // t=30ms: both readers read again — everyone returns #2.
  sim.schedule_at(0.030, [&] {
    r2port.begin_read(kDefaultObject);
    r4port.begin_read(kDefaultObject);
  });

  sim.run_to_quiescence();
  const std::uint64_t parked = cluster.server(2).stats().reads_parked;
  std::printf("\nserver 2 parked %llu read(s) during the write — the "
              "read-inversion guard at work.\n",
              static_cast<unsigned long long>(parked));
  int rc = 0;
  if (parked == 0) {
    std::printf("FAIL: reader@2's read did not park\n");
    rc = 1;
  }
  if (reads_checked == 0 || stale_reads != 0) {
    std::printf("FAIL: %d of %d read(s) after write #2 missed value #2\n",
                stale_reads, reads_checked);
    rc = 1;
  }
  return rc;
}
