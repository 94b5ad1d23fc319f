// Telemetry subsystem contract: sharded counters aggregate exactly under
// the deterministic execution layer, histogram bucketing honours its
// inclusive upper edges, disabled telemetry is a no-op, and the trace
// session renders well-formed Chrome trace_event JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/execution.hpp"

namespace antmd {
namespace {

TEST(Metrics, CounterAggregatesExactlyAcrossWorkerThreads) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  auto& c = reg.counter("test.parallel.count");

  constexpr size_t kTasks = 64;
  constexpr uint64_t kPerTask = 10000;
  auto exec = ExecutionContext::create({8, true});
  exec->parallel_for(kTasks, [&](size_t) {
    for (uint64_t k = 0; k < kPerTask; ++k) c.add();
  });
  EXPECT_EQ(c.value(), kTasks * kPerTask);

  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, DisabledTelemetryDropsUpdates) {
  obs::ScopedTelemetry off(false);
  obs::MetricsRegistry reg;
  auto& c = reg.counter("test.disabled.count");
  auto& h = reg.histogram("test.disabled.hist", {1.0, 2.0});
  c.add(17);
  h.observe(1.5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.snapshot().histograms.at("test.disabled.hist").count, 0u);
}

TEST(Metrics, RegistryReturnsStableReferencesByName) {
  obs::MetricsRegistry reg;
  auto& a = reg.counter("test.same.count");
  auto& b = reg.counter("test.same.count");
  EXPECT_EQ(&a, &b);
  auto& g1 = reg.gauge("test.same.gauge");
  auto& g2 = reg.gauge("test.same.gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST(Metrics, GaugeRoundTripsDoubles) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  auto& g = reg.gauge("test.gauge");
  for (double v : {0.0, -1.5, 3.14159265358979, 1e300, -2.5e-308}) {
    g.set(v);
    EXPECT_EQ(g.value(), v);
  }
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("test.hist", {1.0, 10.0, 100.0});

  h.observe(0.5);    // <= 1      -> bucket 0
  h.observe(1.0);    // == edge 0 -> bucket 0 (inclusive)
  h.observe(1.0001); // (1, 10]   -> bucket 1
  h.observe(10.0);   // == edge 1 -> bucket 1
  h.observe(99.9);   // (10, 100] -> bucket 2
  h.observe(100.5);  // > last    -> overflow bucket 3

  auto snap = reg.snapshot();
  const auto& v = snap.histograms.at("test.hist");
  ASSERT_EQ(v.edges.size(), 3u);
  ASSERT_EQ(v.buckets.size(), 4u);
  EXPECT_EQ(v.buckets[0], 2u);
  EXPECT_EQ(v.buckets[1], 2u);
  EXPECT_EQ(v.buckets[2], 1u);
  EXPECT_EQ(v.buckets[3], 1u);
  EXPECT_EQ(v.count, 6u);
  EXPECT_NEAR(v.sum, 0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.5, 1e-9);
}

TEST(Metrics, HistogramCountsSurviveConcurrentObserves) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("test.hist.par", {10.0, 20.0});
  auto exec = ExecutionContext::create({8, true});
  constexpr size_t kTasks = 32;
  constexpr int kPerTask = 500;
  exec->parallel_for(kTasks, [&](size_t t) {
    for (int k = 0; k < kPerTask; ++k) {
      h.observe(static_cast<double>(t % 3) * 10.0 + 5.0);  // 5, 15, 25
    }
  });
  auto v = reg.snapshot().histograms.at("test.hist.par");
  EXPECT_EQ(v.count, kTasks * static_cast<uint64_t>(kPerTask));
  EXPECT_EQ(v.buckets[0] + v.buckets[1] + v.buckets[2], v.count);
}

TEST(Metrics, SnapshotAndPhaseBreakdown) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  reg.counter("test.alpha.time_ns").add(3'000'000'000ull);  // 3 s
  reg.counter("test.beta.time_ns").add(1'000'000'000ull);   // 1 s
  reg.counter("test.other.count").add(5);  // not a phase

  auto shares = obs::phase_breakdown(reg.snapshot());
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_EQ(shares[0].name, "test.alpha");   // descending by time
  EXPECT_NEAR(shares[0].seconds, 3.0, 1e-12);
  EXPECT_NEAR(shares[0].fraction, 0.75, 1e-12);
  EXPECT_EQ(shares[1].name, "test.beta");
  EXPECT_NEAR(shares[1].fraction, 0.25, 1e-12);
}

TEST(Metrics, PhaseBreakdownCountsNestedTimersOnce) {
  // One 9 s step: md.kspace 4 s (of which fft 2 s and gather 1.5 s),
  // md.neighbor 2 s (tile 1 s), runtime.evaluate 3 s (node_eval 2.5 s,
  // runtime.kspace 0.5 s with its own fft 0.25 s).  Summing every timer
  // counts 17.75 s: the nested ones would claim ~97% on top of the 100%
  // their parents already hold.
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  auto set = [&](const char* name, double s) {
    reg.counter(name).add(static_cast<uint64_t>(s * 1e9));
  };
  set("md.kspace.time_ns", 4.0);
  set("md.kspace.fft.time_ns", 2.25);  // 2 s host + 0.25 s machine
  set("md.kspace.gather.time_ns", 1.5);
  set("md.neighbor.time_ns", 2.0);
  set("md.neighbor.tile.time_ns", 1.0);
  set("runtime.evaluate.time_ns", 3.0);
  set("runtime.node_eval.time_ns", 2.5);
  set("runtime.kspace.time_ns", 0.5);
  set("md.exec.busy.time_ns", 4.5);

  const auto shares = obs::phase_breakdown(reg.snapshot());
  ASSERT_EQ(shares.size(), 9u);
  double top_sum = 0.0;
  for (const auto& p : shares) {
    if (p.parent.empty()) top_sum += p.fraction;
  }
  EXPECT_NEAR(top_sum, 1.0, 1e-12);

  auto find = [&](const std::string& name) -> const obs::PhaseShare& {
    for (const auto& p : shares) {
      if (p.name == name) return p;
    }
    ADD_FAILURE() << name << " missing";
    return shares.front();
  };
  EXPECT_NEAR(find("md.kspace").fraction, 4.0 / 9.0, 1e-9);
  EXPECT_NEAR(find("runtime.evaluate").fraction, 3.0 / 9.0, 1e-9);
  EXPECT_EQ(find("md.neighbor.tile").parent, "md.neighbor");
  EXPECT_NEAR(find("md.neighbor.tile").fraction, 0.5, 1e-9);
  EXPECT_EQ(find("runtime.kspace").parent, "runtime.evaluate");
  EXPECT_NEAR(find("runtime.kspace").fraction, 0.5 / 3.0, 1e-9);
  EXPECT_EQ(find("runtime.node_eval").parent, "*");
  EXPECT_NEAR(find("runtime.node_eval").fraction, 2.5 / 9.0, 1e-9);
  // Both engines ran k-space: its sub-phases are shares of the sum.
  EXPECT_EQ(find("md.kspace.fft").parent, "md.kspace+runtime.kspace");
  EXPECT_NEAR(find("md.kspace.fft").fraction, 2.25 / 4.5, 1e-9);
  EXPECT_EQ(find("md.exec.busy").parent, "*");
  EXPECT_NEAR(find("md.exec.busy").fraction, 0.5, 1e-9);

  // Order: top level by time, then the sub-phases by time.
  std::vector<std::string> order;
  for (const auto& p : shares) order.push_back(p.name);
  EXPECT_EQ(order, (std::vector<std::string>{
                       "md.kspace", "runtime.evaluate", "md.neighbor",
                       "md.exec.busy", "runtime.node_eval", "md.kspace.fft",
                       "md.kspace.gather", "md.neighbor.tile",
                       "runtime.kspace"}));
}

TEST(Metrics, PhaseBreakdownTreatsNodeEvalAsLaneTime) {
  // A parallel evaluate runs its nodes' timers on several lanes at once,
  // so runtime.node_eval (6 s over 4 lanes) exceeds runtime.evaluate's
  // 2 s of wall time.  It is lane time, not a share of evaluate, and it
  // stays out of the total.
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  reg.counter("runtime.evaluate.time_ns").add(2'000'000'000ull);
  reg.counter("runtime.redistribute.time_ns").add(2'000'000'000ull);
  reg.counter("runtime.node_eval.time_ns").add(6'000'000'000ull);

  const auto shares = obs::phase_breakdown(reg.snapshot());
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_EQ(shares[0].name, "runtime.evaluate");
  EXPECT_NEAR(shares[0].fraction, 0.5, 1e-12);
  EXPECT_EQ(shares[2].name, "runtime.node_eval");
  EXPECT_EQ(shares[2].parent, "*");
  EXPECT_NEAR(shares[2].fraction, 1.5, 1e-12);  // of the 4 s total
}

TEST(Metrics, PhaseBreakdownNestsUnderARecordedDottedPrefix) {
  // A new sub-timer needs no table entry: its dotted prefix is a
  // recorded timer, so it is a share of that one, not summed again.
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  reg.counter("md.neighbor.time_ns").add(2'000'000'000ull);
  reg.counter("md.neighbor.sort.bins.time_ns").add(500'000'000ull);
  reg.counter("md.integrate.time_ns").add(2'000'000'000ull);
  reg.counter("test.lone.phase.time_ns").add(4'000'000'000ull);

  const auto shares = obs::phase_breakdown(reg.snapshot());
  ASSERT_EQ(shares.size(), 4u);
  EXPECT_EQ(shares[0].name, "test.lone.phase");  // no recorded prefix
  EXPECT_TRUE(shares[0].parent.empty());
  EXPECT_NEAR(shares[0].fraction, 0.5, 1e-12);
  EXPECT_EQ(shares[3].name, "md.neighbor.sort.bins");
  EXPECT_EQ(shares[3].parent, "md.neighbor");
  EXPECT_NEAR(shares[3].fraction, 0.25, 1e-12);
}

TEST(Metrics, StandardSetCoversEverySubsystem) {
  obs::MetricsRegistry reg;
  obs::register_standard_metrics(reg);
  auto snap = reg.snapshot();
  for (const char* name :
       {"md.step.count", "runtime.step.count",
        "sampling.exchange.attempt.count", "resilience.health.check.count",
        "util.fault.node_fail.count"}) {
    EXPECT_TRUE(snap.counters.count(name)) << name;
  }
  for (const char* name :
       {"machine.model.ns_per_day", "machine.torus.mean_hops",
        "runtime.alive_nodes"}) {
    EXPECT_TRUE(snap.gauges.count(name)) << name;
  }
}

TEST(Metrics, JsonDumpIsBalancedAndNamesMetrics) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  reg.counter("test.json.count").add(7);
  reg.gauge("test.json.gauge").set(2.5);
  reg.histogram("test.json.hist", {1.0}).observe(0.5);
  std::string json = reg.snapshot().to_json();

  long depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"test.json.count\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
}

TEST(Trace, ScopedTimerAccumulatesIntoCounter) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  auto& ns = reg.counter("test.timer.time_ns");
  {
    obs::ScopedTimer timer(ns);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  }
  EXPECT_GT(ns.value(), 0u);
}

TEST(Trace, SessionRendersWellFormedChromeJson) {
  obs::ScopedTelemetry on(true);
  auto& session = obs::TraceSession::global();
  session.start("");  // buffer only, no file
  session.set_track_name(1042, "node 42");
  { obs::TracePhase phase("test.span", "test"); }
  {
    obs::TracePhase phase("test.node_span", "test", nullptr,
                          /*track=*/1042, "node", 42);
  }
  session.stop();
  ASSERT_GE(session.event_count(), 2u);

  std::string json = session.to_json();
  long depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.span\""), std::string::npos);
  EXPECT_NE(json.find("\"test.node_span\""), std::string::npos);
  EXPECT_NE(json.find("node 42"), std::string::npos);  // metadata track name
  EXPECT_NE(json.find("\"X\""), std::string::npos);    // complete events
  EXPECT_NE(json.find("\"M\""), std::string::npos);    // metadata events
}

TEST(Trace, NoEventsRecordedWhenSessionStopped) {
  obs::ScopedTelemetry on(true);
  auto& session = obs::TraceSession::global();
  session.stop();
  size_t before = session.event_count();
  { obs::TracePhase phase("test.ignored", "test"); }
  EXPECT_EQ(session.event_count(), before);
}

}  // namespace
}  // namespace antmd
