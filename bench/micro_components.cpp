// X-MICRO — component microbenchmarks (google-benchmark): wire codec,
// event queue, fairness scheduler, pending set, linearizability checker,
// and a full simulated cluster second as the end-to-end unit.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/fairness.h"
#include "core/messages.h"
#include "core/pending_set.h"
#include "harness/experiment.h"
#include "lincheck/checker.h"
#include "sim/simulator.h"

namespace {

using namespace hts;

void BM_EncodePreWrite(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  core::PreWrite msg(Tag{42, 3}, Value::synthetic(7, size), 99, 5,
                     kDefaultObject);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode_message(msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(msg.wire_size()));
}
BENCHMARK(BM_EncodePreWrite)->Arg(256)->Arg(8192)->Arg(65536);

void BM_DecodePreWrite(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  core::PreWrite msg(Tag{42, 3}, Value::synthetic(7, size), 99, 5,
                     kDefaultObject);
  const std::string bytes = core::encode_message(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode_message(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodePreWrite)->Arg(256)->Arg(8192)->Arg(65536);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::Simulator sim;
  Rng rng(1);
  const int depth = static_cast<int>(state.range(0));
  for (int i = 0; i < depth; ++i) {
    sim.schedule(rng.unit(), [] {});
  }
  for (auto _ : state) {
    sim.schedule(rng.unit(), [] {});
    sim.step();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueChurn)->Arg(64)->Arg(4096);

void BM_FairSchedulerDecision(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::FairScheduler sched(n, 0);
  Rng rng(2);
  // Keep the queue at a steady depth across iterations.
  for (std::size_t i = 0; i < n; ++i) {
    sched.enqueue(core::ForwardItem{
        static_cast<ProcessId>(i),
        net::make_payload<core::WriteCommit>(Tag{i + 1, 0}, 1, 1,
                                             kDefaultObject)});
  }
  for (auto _ : state) {
    auto d = sched.next(true);
    if (d.forward) {
      sched.count_sent(d.forward->origin);
      sched.enqueue(std::move(*d.forward));
    }
    benchmark::DoNotOptimize(d.initiate_local);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FairSchedulerDecision)->Arg(4)->Arg(8)->Arg(32);

void BM_PendingSetInsertErase(benchmark::State& state) {
  core::PendingSet set;
  std::uint64_t ts = 0;
  for (auto _ : state) {
    ++ts;
    set.insert(core::PendingEntry{Tag{ts, 0}, Value(), 1, ts});
    if (ts > 64) set.erase(Tag{ts - 64, 0});
    benchmark::DoNotOptimize(set.max_tag());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PendingSetInsertErase);

void BM_LincheckRegister(benchmark::State& state) {
  const auto ops = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  lincheck::History h;
  double t = 0;
  std::uint64_t latest = lincheck::kInitialValueId;
  for (std::size_t i = 0; i < ops; ++i) {
    t += 1.0;
    if (rng.chance(0.3)) {
      const std::uint64_t v = i + 1;
      h.record_write(1 + i % 8, v, t, t + 0.5, kDefaultObject);
      latest = v;
    } else {
      h.record_read(1 + i % 8, latest, t, t + 0.5, kInitialTag, kDefaultObject);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lincheck::check_register(h));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ops));
}
BENCHMARK(BM_LincheckRegister)->Arg(1000)->Arg(100000);

void BM_SimClusterSecond(benchmark::State& state) {
  // Cost of simulating one second of a loaded 4-server cluster.
  for (auto _ : state) {
    harness::ExperimentParams p;
    p.n_servers = 4;
    p.reader_machines_per_server = 1;
    p.readers_per_machine = 4;
    p.writer_machines_per_server = 1;
    p.writers_per_machine = 4;
    p.warmup_s = 0.1;
    p.measure_s = 0.9;
    benchmark::DoNotOptimize(harness::run_core_experiment(p));
  }
}
BENCHMARK(BM_SimClusterSecond)->Unit(benchmark::kMillisecond);

}  // namespace
