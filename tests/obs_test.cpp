// csar::obs: span tracing + metrics registry.
//
// Pins the four properties the subsystem promises: (1) spans nest and keep
// their parent links across co_await boundaries, with lanes pooled per
// (pid, kind); (2) histogram percentiles match a brute-force sort under the
// documented bucket semantics; (3) the Chrome trace JSON round-trips
// through a real JSON parse and carries every layer of the request path;
// (4) observability is deterministic and non-invasive — same-seed storms
// dump byte-identical traces, and attaching a tracer leaves the storm
// fingerprint untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/storm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pvfs/io_server.hpp"
#include "raid/rig.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "test_util.hpp"

namespace csar::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser: values, objects, arrays, strings, numbers. Enough to
// round-trip the tracer's output and count events by category.
class MiniJson {
 public:
  explicit MiniJson(const std::string& s) : s_(s) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_lit();
    if (c == '-' || (c >= '0' && c <= '9')) return number();
    if (s_.compare(pos_, 4, "true") == 0) return pos_ += 4, true;
    if (s_.compare(pos_, 5, "false") == 0) return pos_ += 5, true;
    if (s_.compare(pos_, 4, "null") == 0) return pos_ += 4, true;
    return false;
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string_lit()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string_lit() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& hay, const std::string& pat) {
  std::size_t n = 0;
  for (std::size_t p = hay.find(pat); p != std::string::npos;
       p = hay.find(pat, p + pat.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Span nesting across co_await.

sim::Task<void> child_work(sim::Simulation& sim, Tracer& t, std::uint32_t pid,
                           SpanId parent) {
  Span inner = t.span(pid, 1, "inner", "test", parent);
  co_await sim.sleep(sim::ms(2));
  // `inner` closes here, 2 ms after it opened, two suspension points deep.
}

sim::Task<void> outer_work(sim::Simulation& sim, Tracer& t,
                           std::uint32_t pid) {
  Span outer = t.task_span(pid, "op", "outer", "test");
  co_await sim.sleep(sim::ms(1));
  co_await child_work(sim, t, pid, outer.id());
  co_await sim.sleep(sim::ms(1));
}

TEST(ObsTrace, SpanNestingAcrossCoAwait) {
  sim::Simulation sim;
  Tracer t;
  t.attach(sim);
  const std::uint32_t pid = t.process("node");
  sim.spawn(outer_work(sim, t, pid));
  sim.run();

  ASSERT_EQ(t.span_count(), 2u);
  const Tracer::Event* outer = nullptr;
  const Tracer::Event* inner = nullptr;
  for (const auto& e : t.events()) {
    if (std::string(e.name) == "outer") outer = &e;
    if (std::string(e.name) == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Parent link survives the co_await into the child coroutine.
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(outer->parent, 0u);
  // The child nests inside the parent in simulated time: opened 1 ms in,
  // closed 2 ms later, and the parent's 4 ms interval covers it.
  EXPECT_FALSE(outer->open);
  EXPECT_FALSE(inner->open);
  EXPECT_EQ(outer->start, 0u);
  EXPECT_EQ(outer->dur, sim::ms(4));
  EXPECT_EQ(inner->start, sim::ms(1));
  EXPECT_EQ(inner->dur, sim::ms(2));
}

sim::Task<void> one_shot(sim::Simulation& sim, Tracer& t, std::uint32_t pid,
                         sim::Duration d) {
  Span s = t.task_span(pid, "op", "shot", "test");
  co_await sim.sleep(d);
}

TEST(ObsTrace, LanePoolingMatchesPeakConcurrency) {
  sim::Simulation sim;
  Tracer t;
  t.attach(sim);
  const std::uint32_t pid = t.process("node");
  // Two overlapping tasks need two lanes; three more sequential ones reuse
  // them, so the lane count stays at the peak concurrency (2), not 5.
  sim.spawn(one_shot(sim, t, pid, sim::ms(5)));
  sim.spawn(one_shot(sim, t, pid, sim::ms(5)));
  sim.spawn([](sim::Simulation& s, Tracer& tr,
               std::uint32_t p) -> sim::Task<void> {
    co_await s.sleep(sim::ms(10));
    co_await one_shot(s, tr, p, sim::ms(1));
    co_await one_shot(s, tr, p, sim::ms(1));
    co_await one_shot(s, tr, p, sim::ms(1));
  }(sim, t, pid));
  sim.run();

  ASSERT_EQ(t.span_count(), 5u);
  std::set<std::uint32_t> tids;
  for (const auto& e : t.events()) {
    if (e.ph == 'X') tids.insert(e.tid);
  }
  EXPECT_EQ(tids.size(), 2u);
}

// ---------------------------------------------------------------------------
// Histogram percentiles vs brute force.

TEST(ObsMetrics, HistogramPercentilesMatchBruteForce) {
  const std::vector<std::uint64_t> bounds = Histogram::latency_bounds();
  Histogram h(bounds);
  Rng rng(99);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform-ish spread across the bucket range, plus outliers beyond
    // the last bound to exercise the overflow bucket.
    std::uint64_t v = 500 + rng.below(1000);
    const std::uint32_t shift = static_cast<std::uint32_t>(rng.below(22));
    v <<= shift;
    samples.push_back(v);
    h.add(v);
  }
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.min(), sorted.front());
  EXPECT_EQ(h.max(), sorted.back());

  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    // Documented semantics: p(q) is the upper bound of the bucket holding
    // the sample of rank ceil(q*count), or the recorded max for overflow.
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(sorted.size()) + 0.9999999999);
    if (rank < 1) rank = 1;
    if (rank > sorted.size()) rank = sorted.size();
    const std::uint64_t at_rank = sorted[rank - 1];
    std::uint64_t expect = sorted.back();  // overflow -> global max
    for (std::uint64_t b : bounds) {
      if (b >= at_rank) {
        expect = b;
        break;
      }
    }
    EXPECT_EQ(h.percentile(q), expect) << "q=" << q;
  }
}

TEST(ObsMetrics, RegistryDumpsAreStableAndTyped) {
  Registry reg;
  reg.counter("a.count").add(3);
  reg.gauge("b.gauge").set(1.5);
  auto& h = reg.histogram("c.hist", Histogram::size_bounds());
  h.add(4);
  h.add(700);
  // Lookup by name returns the same instrument.
  reg.counter("a.count").add(1);
  EXPECT_EQ(reg.counter("a.count").value(), 4u);

  const std::string csv = reg.to_csv();
  EXPECT_EQ(csv.find("name,kind,count,sum,min,max,p50,p95,p99"), 0u);
  // Registration order, not name order.
  EXPECT_LT(csv.find("a.count"), csv.find("b.gauge"));
  EXPECT_LT(csv.find("b.gauge"), csv.find("c.hist"));

  const std::string json = reg.to_json();
  MiniJson parsed(json);
  EXPECT_TRUE(parsed.parse());
}

// ---------------------------------------------------------------------------
// Storm-level integration: round-trip JSON, layer coverage, determinism.

fault::StormParams small_storm() {
  fault::StormParams p;
  p.rig.scheme = raid::Scheme::hybrid;
  p.rig.nservers = 4;
  p.rig.rpc.timeout = sim::ms(150);
  p.rig.rpc.max_attempts = 4;
  p.rig.rpc.backoff = sim::ms(5);
  p.health.interval = sim::ms(100);
  p.file_size = 512 * 1024;
  p.stripe_unit = 32 * 1024;
  p.io_size = 32 * 1024;
  p.ops = 80;
  p.op_gap = sim::ms(5);
  p.plan.seed = 7;
  p.plan.crashes.push_back({sim::ms(300), 1, sim::ms(900), /*wipe=*/true});
  fault::MediaFault mf;
  mf.at = sim::ms(1500);
  mf.server = 3;
  mf.file = pvfs::IoServer::data_name(1);
  mf.off = 0;
  mf.len = 256 * 1024;
  p.plan.media.push_back(mf);
  return p;
}

TEST(ObsStorm, TraceJsonRoundTripsAndCoversEveryLayer) {
  if (!kEnabled) GTEST_SKIP() << "hooks compiled out (CSAR_OBS=0)";
  Tracer tracer;
  Registry metrics;
  fault::StormParams p = small_storm();
  p.tracer = &tracer;
  p.metrics = &metrics;
  const fault::StormMetrics m = fault::run_storm(p);
  EXPECT_EQ(m.verify_mismatches, 0u);

  const std::string json = tracer.to_json();
  MiniJson parsed(json);
  EXPECT_TRUE(parsed.parse());

  // Spans from every layer of the request path...
  EXPECT_GT(count_occurrences(json, "\"cat\":\"fs\""), 0u);      // CsarFs op
  EXPECT_GT(count_occurrences(json, "\"cat\":\"rpc\""), 0u);     // client RPC
  EXPECT_GT(count_occurrences(json, "\"cat\":\"net\""), 0u);     // fabric
  EXPECT_GT(count_occurrences(json, "\"cat\":\"server\""), 0u);  // server exec
  EXPECT_GT(count_occurrences(json, "\"cat\":\"disk\""), 0u);    // cache/disk
  // ...plus instants for injected faults and rebuild phases, and spans for
  // named simulator tasks (timeline, supervisors).
  EXPECT_GT(count_occurrences(json, "\"name\":\"crash\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"name\":\"rebuild:start\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"name\":\"rebuild:admit\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"cat\":\"task\""), 0u);
  EXPECT_GT(tracer.span_count(), 100u);
  EXPECT_GT(tracer.instant_count(), 2u);

  // The live metrics recorded alongside: RPC latencies and rig aggregates.
  EXPECT_GT(metrics.histogram("client.rpc_ns").count(), 0u);
  EXPECT_EQ(metrics.counter("rig.rpc_sent").value(), m.rpc_sent);
}

TEST(ObsStorm, SameSeedTracesAreByteIdentical) {
  std::string json[2];
  std::string csv[2];
  for (int i = 0; i < 2; ++i) {
    Tracer tracer;
    Registry metrics;
    fault::StormParams p = small_storm();
    p.tracer = &tracer;
    p.metrics = &metrics;
    p.sample_window = sim::ms(20);
    const fault::StormMetrics m = fault::run_storm(p);
    json[i] = tracer.to_json();
    csv[i] = metrics.to_csv() + m.samples_csv;
    EXPECT_GT(m.samples_csv.size(), 0u);
    EXPECT_EQ(m.samples_csv.rfind("time_ms,", 0), 0u);
  }
  EXPECT_EQ(json[0], json[1]);
  EXPECT_EQ(csv[0], csv[1]);
}

TEST(ObsStorm, AttachingTracerLeavesFingerprintUntouched) {
  const fault::StormMetrics plain = fault::run_storm(small_storm());

  Tracer tracer;
  Registry metrics;
  fault::StormParams p = small_storm();
  p.tracer = &tracer;
  p.metrics = &metrics;
  const fault::StormMetrics traced = fault::run_storm(p);

  // The tracer observes; it must not perturb. Same events, same end time,
  // same fingerprint as the bare run.
  EXPECT_EQ(traced.events_executed, plain.events_executed);
  EXPECT_EQ(traced.finished_at, plain.finished_at);
  EXPECT_EQ(traced.fingerprint, plain.fingerprint);
}

// A repair client that exists before the tracer is attached still gets its
// own trace process: its RPC spans land there, never on the unmapped pid 0.
TEST(ObsRig, RepairClientCreatedBeforeSetObsIsMapped) {
  if (!kEnabled) GTEST_SKIP() << "hooks compiled out (CSAR_OBS=0)";
  Tracer tracer;  // outlives the rig, which drains its simulation on exit
  raid::RigParams p;
  p.scheme = raid::Scheme::hybrid;
  p.nservers = 3;
  raid::Rig rig(p);
  pvfs::Client& repair = rig.repair_client();
  rig.set_obs(&tracer, nullptr);

  const std::uint32_t pid = tracer.node_pid(repair.node_id());
  ASSERT_NE(pid, 0u);
  EXPECT_NE(pid, tracer.node_pid(rig.client().node_id()));

  test::run_sim_void(rig, [](pvfs::Client& c) -> sim::Task<void> {
    pvfs::Request w;
    w.op = pvfs::Op::write_data;
    w.handle = 7;
    w.su = 4096;
    w.payload = Buffer::pattern(4096, 1);
    const pvfs::Response r = co_await c.rpc(0, std::move(w));
    EXPECT_TRUE(r.ok);
  }(repair));

  std::size_t rpc_spans = 0;
  for (const auto& e : tracer.events()) {
    EXPECT_NE(e.pid, 0u) << e.name;
    if (std::string(e.cat) == "rpc") {
      EXPECT_EQ(e.pid, pid);
      ++rpc_spans;
    }
  }
  EXPECT_EQ(rpc_spans, 1u);
  rig.set_obs(nullptr, nullptr);
}

}  // namespace
}  // namespace csar::obs
