// Observability suite (ctest -L obs): the metrics primitives, the trace
// ring, the exporters, and the two properties the design promises —
// determinism (two identical seeded sim runs export identical bytes) and
// wire silence (attaching a recorder changes nothing the protocol does).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "harness/experiment.h"
#include "harness/obs_report.h"
#include "lincheck/checker.h"
#include "lincheck/history.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/trace.h"

namespace hts {
namespace {

// ---------------------------------------------------------------- LatencyStats

TEST(LatencyStats, PercentileSingleSample) {
  LatencyStats s;
  s.record(0.25);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 0.25);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.25);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 0.25);
}

TEST(LatencyStats, PercentileEndpointsAndDuplicates) {
  LatencyStats s;
  for (double v : {3.0, 1.0, 2.0, 2.0, 2.0}) s.record(v);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);  // cached sort stays correct
}

TEST(LatencyStats, PercentileCacheInvalidatedByRecord) {
  LatencyStats s;
  s.record(5.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
  s.record(9.0);  // must invalidate the cached sorted order
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 9.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 5.0);
  s.clear();
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
}

TEST(ThroughputMeter, UnsetWindowReportsZeroRates) {
  ThroughputMeter m;
  m.record(1024);
  m.record(1024);
  EXPECT_EQ(m.ops(), 2u);
  EXPECT_EQ(m.bytes(), 2048u);
  EXPECT_DOUBLE_EQ(m.ops_per_second(), 0.0);  // no window: rate undefined
  EXPECT_DOUBLE_EQ(m.mbit_per_second(), 0.0);
  m.set_window(2.0);
  EXPECT_DOUBLE_EQ(m.ops_per_second(), 1.0);
  EXPECT_DOUBLE_EQ(m.mbit_per_second(), 2048.0 * 8.0 / 1e6 / 2.0);
}

// -------------------------------------------------------------- obs primitives

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.record(0.5);  // <= 1        -> bucket 0
  h.record(1.0);  // == bound 1  -> bucket 0 (bounds are inclusive)
  h.record(1.5);  // <= 2        -> bucket 1
  h.record(4.0);  // == bound 4  -> bucket 2
  h.record(9.0);  // above last  -> overflow bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.2);
  EXPECT_EQ(h.bucket_counts(),
            (std::vector<std::uint64_t>{2, 1, 1, 1}));
}

TEST(Histogram, EmptyMeanIsZero) {
  obs::Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{0, 0}));
}

TEST(TimeSeries, RecordsIntoFixedWidthBuckets) {
  obs::TimeSeries s(0.5);
  s.record(0.0, 10.0);
  s.record(0.49, 5.0);   // same bucket as t=0
  s.record(0.5, 1.0);    // next bucket
  s.record(2.1, 7.0);    // bucket 4; 2 and 3 materialize as zero
  EXPECT_EQ(s.buckets(), (std::vector<double>{15.0, 1.0, 0.0, 0.0, 7.0}));
}

TEST(TraceBuffer, RingWraparoundKeepsNewestAndCountsDrops) {
  obs::TraceBuffer buf(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    buf.record(obs::TraceEvent{static_cast<double>(i),
                               obs::EventKind::kClientSubmit, i, false, 1,
                               i + 1, 0, 0});
  }
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.total_recorded(), 5u);
  EXPECT_EQ(buf.dropped(), 2u);
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().req, 3u);  // oldest two were overwritten
  EXPECT_EQ(events.back().req, 5u);
  // for_op only sees what survived the wrap.
  EXPECT_TRUE(buf.for_op(1, 1).empty());
  EXPECT_EQ(buf.for_op(1, 4).size(), 1u);
}

TEST(Probes, DetachedProbesAreNoOps) {
  obs::ServerProbe sp;  // everything null
  obs::ClientProbe cp;
  EXPECT_FALSE(sp.attached());
  EXPECT_FALSE(cp.attached());
  sp.event(obs::EventKind::kWriteEnqueue, 1, 2);
  sp.record_batch_fill(3.0);
  cp.event(obs::EventKind::kClientSubmit, 2);
  cp.record_backoff(0.1);  // must not crash
}

// ------------------------------------------------------------------- exporters

TEST(Export, TraceCsvRoundTrips) {
  obs::TraceBuffer buf(8);
  buf.record(obs::TraceEvent{0.125, obs::EventKind::kClientSubmit, 4, false,
                             4, 9, 2, 0});
  buf.record(obs::TraceEvent{0.25, obs::EventKind::kBatchSeal, 1, true, 0, 0,
                             17, 3});
  const std::string csv = obs::trace_to_csv(buf);
  const auto parsed = obs::parse_trace_csv(csv);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed[0].t, 0.125);
  EXPECT_EQ(parsed[0].kind, obs::EventKind::kClientSubmit);
  EXPECT_FALSE(parsed[0].server_side);
  EXPECT_EQ(parsed[0].req, 9u);
  EXPECT_EQ(parsed[1].kind, obs::EventKind::kBatchSeal);
  EXPECT_TRUE(parsed[1].server_side);
  EXPECT_EQ(parsed[1].a, 17u);
  EXPECT_EQ(parsed[1].b, 3u);
}

TEST(Export, RegistryJsonIsIdempotentAndTagged) {
  obs::MetricsRegistry reg;
  reg.counter("a.count")->inc(7);
  reg.gauge("b.depth")->set(2.5);
  reg.histogram("c.hist", {1.0, 2.0})->record(1.5);
  reg.series("d.series", 0.5)->record(0.7, 3.0);
  const std::string one = obs::registry_to_json(reg);
  const std::string two = obs::registry_to_json(reg);
  EXPECT_EQ(one, two);
  EXPECT_NE(one.find("\"hts-metrics-v1\""), std::string::npos);
  EXPECT_NE(one.find("\"a.count\": 7"), std::string::npos);
  EXPECT_NE(one.find("\"b.depth\": 2.5"), std::string::npos);
}

TEST(Export, FormatSpanShowsRelativeTimes) {
  std::vector<obs::TraceEvent> events;
  events.push_back(obs::TraceEvent{1.0, obs::EventKind::kClientSubmit, 3,
                                   false, 3, 8, 0, 0});
  events.push_back(obs::TraceEvent{1.5, obs::EventKind::kClientReply, 3,
                                   false, 3, 8, 2, 1});
  const std::string span = obs::format_span(3, 8, events);
  EXPECT_NE(span.find("op client=3 req=8"), std::string::npos);
  EXPECT_NE(span.find("client.submit"), std::string::npos);
  EXPECT_NE(span.find("+0.5"), std::string::npos);
}

// ------------------------------------------------------- lincheck integration

TEST(WitnessSpans, FailedCheckNamesOpsAndDumpsTheirSpans) {
  // A read returning a value nobody wrote: check_register must fail and
  // name the offending op, and the dump must join it to its trace span.
  lincheck::History h;
  h.record_write(1, 11, 0.0, 1.0, kDefaultObject, kNoRing, 0, /*req=*/4);
  h.record_read(2, 99, 2.0, 3.0, kInitialTag, kDefaultObject, kNoRing, 0,
                /*req=*/7);
  const auto verdict = lincheck::check_register(h);
  ASSERT_FALSE(verdict.linearizable);
  ASSERT_FALSE(verdict.witnesses.empty());
  EXPECT_EQ(verdict.witnesses.front().client, 2u);
  EXPECT_EQ(verdict.witnesses.front().req, 7u);

  obs::TraceBuffer trace(16);
  trace.record(obs::TraceEvent{2.0, obs::EventKind::kClientSubmit, 2, false,
                               2, 7, 0, 0});
  trace.record(obs::TraceEvent{2.5, obs::EventKind::kClientReply, 2, false,
                               2, 7, 1, 1});
  const std::string dump =
      harness::dump_witness_spans(trace, verdict.witnesses);
  EXPECT_NE(dump.find("witness:"), std::string::npos);
  EXPECT_NE(dump.find("client.submit"), std::string::npos);
  EXPECT_NE(dump.find("client.reply"), std::string::npos);
}

TEST(WitnessSpans, OpWithoutTraceEventsStillDescribed) {
  lincheck::History h;
  h.record_read(5, 42, 0.0, 1.0, kInitialTag, kDefaultObject, kNoRing, 0,
                /*req=*/3);
  const auto verdict = lincheck::check_register(h);
  ASSERT_FALSE(verdict.linearizable);
  obs::TraceBuffer empty(4);
  const std::string dump =
      harness::dump_witness_spans(empty, verdict.witnesses);
  EXPECT_NE(dump.find("witness:"), std::string::npos);
  EXPECT_NE(dump.find("no trace events"), std::string::npos);
}

TEST(WitnessSpans, LinearizableHistoryHasNoWitnesses) {
  lincheck::History h;
  h.record_write(1, 11, 0.0, 1.0, kDefaultObject);
  h.record_read(2, 11, 2.0, 3.0, kInitialTag, kDefaultObject);
  const auto verdict = lincheck::check_register(h);
  EXPECT_TRUE(verdict.linearizable);
  EXPECT_TRUE(verdict.witnesses.empty());
}

// ----------------------------------------------------------- fabric end-to-end

harness::ExperimentParams small_params() {
  harness::ExperimentParams p;
  p.n_servers = 3;
  p.reader_machines_per_server = 1;
  p.readers_per_machine = 2;
  p.writer_machines_per_server = 1;
  p.writers_per_machine = 2;
  p.value_size = 512;
  p.warmup_s = 0.02;
  p.measure_s = 0.08;
  p.n_objects = 4;
  p.pipeline = 2;
  return p;
}

TEST(ObsFabric, TwoIdenticalSeededRunsExportIdenticalBytes) {
  obs::Recorder rec1, rec2;
  harness::ExperimentParams p1 = small_params();
  p1.recorder = &rec1;
  harness::ExperimentParams p2 = small_params();
  p2.recorder = &rec2;
  harness::run_core_experiment(p1);
  harness::run_core_experiment(p2);
  EXPECT_GT(rec1.trace().total_recorded(), 0u);
  EXPECT_EQ(obs::recorder_to_json(rec1), obs::recorder_to_json(rec2));
  EXPECT_EQ(obs::trace_to_csv(rec1.trace()), obs::trace_to_csv(rec2.trace()));
}

TEST(ObsFabric, RecorderIsWireSilent) {
  // Same seed, recorder on vs off: the protocol must take exactly the same
  // decisions, so every aggregate the experiment reports is bit-identical.
  harness::ExperimentParams with = small_params();
  obs::Recorder rec;
  with.recorder = &rec;
  const auto on = harness::run_core_experiment(with);
  const auto off = harness::run_core_experiment(small_params());
  EXPECT_EQ(on.writes_per_s, off.writes_per_s);
  EXPECT_EQ(on.reads_per_s, off.reads_per_s);
  EXPECT_EQ(on.write_mbps, off.write_mbps);
  EXPECT_EQ(on.read_mbps, off.read_mbps);
  EXPECT_EQ(on.write_lat_ms_mean, off.write_lat_ms_mean);
  EXPECT_EQ(on.read_lat_ms_mean, off.read_lat_ms_mean);
}

TEST(ObsFabric, BatchFillHistogramMatchesRingTraffic) {
  obs::Recorder rec;
  harness::ExperimentParams p = small_params();
  p.recorder = &rec;
  p.server_options.max_batch = 8;
  const auto r = harness::run_core_experiment(p);
  const auto& counters = rec.registry().counters();
  const auto msgs = counters.find("ring.total.ring_messages");
  const auto txs = counters.find("ring.total.transmissions");
  ASSERT_NE(msgs, counters.end());
  ASSERT_NE(txs, counters.end());
  ASSERT_GT(txs->second.value(), 0u);
  const double fill = static_cast<double>(msgs->second.value()) /
                      static_cast<double>(txs->second.value());
  EXPECT_NEAR(r.batch_fill_mean, fill, 1e-9);
  const auto& hists = rec.registry().histograms();
  const auto hist = hists.find("ring.batch_fill");
  ASSERT_NE(hist, hists.end());
  EXPECT_EQ(hist->second.count(), txs->second.value());
}

TEST(ObsFabric, ExportIncludesWorkloadSeriesAndSessionCounters) {
  obs::Recorder rec;
  harness::ExperimentParams p = small_params();
  p.recorder = &rec;
  harness::run_core_experiment(p);
  const auto& series = rec.registry().series();
  const auto ws = series.find("workload.write_bytes");
  ASSERT_NE(ws, series.end());
  double written = 0;
  for (double v : ws->second.buckets()) written += v;
  EXPECT_GT(written, 0.0);
  const auto& counters = rec.registry().counters();
  EXPECT_NE(counters.find("server.total.client_writes_in"), counters.end());
  EXPECT_NE(counters.find("client.total.retries"), counters.end());
  EXPECT_NE(counters.find("net.server.total.tx_messages"), counters.end());
  const auto& gauges = rec.registry().gauges();
  const auto rings = gauges.find("view.rings");
  ASSERT_NE(rings, gauges.end());
  EXPECT_DOUBLE_EQ(rings->second.value(), 1.0);
}

}  // namespace
}  // namespace hts
