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
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "fault/storm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pvfs/io_server.hpp"
#include "raid/rig.hpp"
#include "raid/scrub.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "test_util.hpp"

namespace csar::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser: values, objects, arrays, strings, numbers. Enough to
// round-trip the tracer's output and count events by category. Strings,
// escapes, numbers and whitespace follow RFC 8259 as strictly as a
// conforming parser would.
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
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) return false;
      if (s_[pos_] == '\\') {
        ++pos_;
        const char e = peek();
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (!std::isxdigit(static_cast<unsigned char>(peek()))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    return pos_ > start;
  }
  bool number() {
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (!digits()) {
      return false;
    }
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
           peek() == '\r') {
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

bool parses(const std::string& s) { return MiniJson(s).parse(); }

TEST(ObsTrace, MiniJsonRejectsWhatJsonRejects) {
  EXPECT_TRUE(parses(R"({"a":[1,-0.5,2e3,"x\"y\u00e9",true,null]})"));
  EXPECT_FALSE(parses("{\"a\":\"tab\there\"}"));  // raw control char
  EXPECT_FALSE(parses(R"({"a":"\q"})"));          // unknown escape
  EXPECT_FALSE(parses(R"({"a":"\u12"})"));        // short \u escape
  EXPECT_FALSE(parses(R"({"a":01})"));             // leading zero
  EXPECT_FALSE(parses(R"({"a":1-2})"));
  EXPECT_FALSE(parses(R"({"a":1.})"));
  EXPECT_FALSE(parses(R"({"a":1,})"));
  EXPECT_FALSE(parses("{\"a\":1}\v"));  // not JSON whitespace
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

  // ...and fault instants under their own category.
  EXPECT_GT(count_occurrences(json, "\"cat\":\"fault\""), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);

  // The live metrics recorded alongside: RPC latencies and the exported
  // per-node counters.
  EXPECT_GT(metrics.histogram("client.rpc_ns").count(), 0u);
  EXPECT_EQ(metrics.counter("client0.rpc.sent").value(), m.rpc.sent);
}

TEST(ObsStorm, SameSeedTracesAreByteIdentical) {
  std::string json[2];
  std::string csv[2];
  for (int i = 0; i < 2; ++i) {
    Tracer tracer;
    Registry metrics;
    fault::StormParams p = small_storm();
    // A lossy client link too, so drops and retries are in both dumps.
    {
      raid::Rig probe(p.rig);
      fault::LinkFault lf;
      lf.a = probe.client().node_id();
      lf.b = probe.server(2).node_id();
      lf.start = sim::ms(100);
      lf.end = sim::ms(600);
      lf.drop_p = 0.3;
      p.plan.links.push_back(lf);
    }
    p.tracer = &tracer;
    p.metrics = &metrics;
    p.sample_window = sim::ms(20);
    const fault::StormMetrics m = fault::run_storm(p);
    json[i] = tracer.to_json();
    csv[i] = metrics.to_csv() + m.samples_csv;
    EXPECT_GT(m.faults.msgs_dropped, 0u);
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

// ---------------------------------------------------------------------------
// Export: Rig::export_metrics is a per-node view of the Stats structs.

/// Counter rows of a registry CSV dump: name -> the value of each row.
std::map<std::string, std::vector<std::uint64_t>> counter_rows(
    const std::string& csv) {
  std::map<std::string, std::vector<std::uint64_t>> rows;
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::vector<std::string> col;
    std::istringstream cells(line);
    for (std::string c; std::getline(cells, c, ',');) col.push_back(c);
    if (col.size() < 4 || col[1] != "counter") continue;
    rows[col[0]].push_back(std::stoull(col[3]));
  }
  return rows;
}

/// A small storm with a repair client: three clients race partial writes
/// into one RAID5 stripe (parity-lock waits) over a lossy link (retries),
/// then the repair client scrubs the file.
sim::Task<void> contended_storm(raid::Rig& rig) {
  constexpr std::uint32_t kSu = 4096;
  auto f = co_await rig.client_fs(0).create("f", rig.layout(kSu));
  CO_ASSERT_TRUE(f.ok());
  for (std::uint64_t round = 0; round < 4; ++round) {
    sim::WaitGroup wg(rig.sim);
    wg.add(3);
    for (std::uint32_t c = 0; c < 3; ++c) {
      rig.sim.spawn([](raid::Rig& r, pvfs::OpenFile file, std::uint32_t cl,
                       std::uint64_t seed,
                       sim::WaitGroup* done) -> sim::Task<void> {
        co_await r.client_fs(cl).write(file, std::uint64_t{cl} * kSu,
                                       Buffer::pattern(kSu, seed));
        done->done();
      }(rig, *f, c, round * 3 + c, &wg));
    }
    co_await wg.wait();
  }
  raid::Scrubber scrub(rig.repair_client(), rig.policy());
  EXPECT_TRUE((co_await scrub.repair(*f, 3 * kSu)).ok());
}

/// Run the storm on a fresh rig, export, check the export against the
/// structs when `check` is set, and return the registry's CSV dump.
std::string export_after_storm(bool check) {
  raid::RigParams p;
  p.scheme = raid::Scheme::raid5;
  p.nservers = 4;
  p.nclients = 3;
  p.rpc.timeout = sim::ms(150);
  p.rpc.max_attempts = 4;
  Registry reg;  // outlives the rig, whose drain may still record
  raid::Rig rig(p);
  rig.set_obs(nullptr, &reg);
  fault::FaultPlan plan;
  plan.seed = 11;
  fault::LinkFault lf;
  lf.a = rig.client(1).node_id();
  lf.b = rig.server(3).node_id();
  lf.end = sim::sec(1);
  lf.drop_p = 0.3;
  plan.links.push_back(lf);
  std::vector<pvfs::IoServer*> servers;
  for (auto& s : rig.servers) servers.push_back(s.get());
  fault::FaultInjector inj(rig.cluster, rig.fabric, servers, plan);
  inj.start();
  test::run_sim_void(rig, contended_storm(rig));
  rig.export_metrics(reg);
  const std::string csv = reg.to_csv();
  if (!check) return csv;

  // Every field of every struct is one row under its node's prefix, equal
  // to the struct, and nothing else is exported as a counter.
  const auto rows = counter_rows(csv);
  std::size_t fields = 0;
  const auto expect_view = [&](const std::string& prefix, const auto& stats) {
    stats.for_each([&](const char* field, std::uint64_t v) {
      ++fields;
      const auto it = rows.find(prefix + field);
      ASSERT_NE(it, rows.end()) << prefix + field;
      ASSERT_EQ(it->second.size(), 1u) << prefix + field;
      EXPECT_EQ(it->second[0], v) << prefix + field;
    });
  };
  for (std::uint32_t s = 0; s < p.nservers; ++s) {
    const std::string node = "server" + std::to_string(s) + ".";
    hw::Node& n = rig.cluster.node(rig.server(s).node_id());
    expect_view(node + "lock.", rig.server(s).lock_stats());
    expect_view(node + "batch.", rig.server(s).batch_stats());
    expect_view(node + "cache.", n.cache()->stats());
    expect_view(node + "disk.", n.disk()->stats());
  }
  for (std::uint32_t c = 0; c < p.nclients; ++c) {
    const std::string node = "client" + std::to_string(c) + ".";
    expect_view(node + "rpc.", rig.client(c).rpc_stats());
    expect_view(node + "failover.", rig.client_fs(c).failover_stats());
  }
  expect_view("repair.rpc.", rig.repair_client().rpc_stats());
  expect_view("manager.", rig.manager->stats());
  expect_view("manager.journal.", rig.manager->journal_stats());
  expect_view("policy.", rig.policy().stats());
  expect_view("ec.", rig.policy().ec_stats());
  EXPECT_EQ(rows.size(), fields);

  // No aggregate or live duplicate survives beside the per-node rows.
  for (const auto& [name, values] : rows) {
    EXPECT_NE(name.rfind("client.", 0), 0u) << name;
    EXPECT_NE(name.rfind("rig.", 0), 0u) << name;
  }

  // The per-server rows add up to the structs' total, which is not zero:
  // the writers really contended, and the repair client really ran.
  std::uint64_t row_waits = 0;
  std::uint64_t struct_waits = 0;
  for (std::uint32_t s = 0; s < p.nservers; ++s) {
    row_waits += rows.at("server" + std::to_string(s) + ".lock.waits")[0];
    struct_waits += rig.server(s).lock_stats().waits;
  }
  EXPECT_EQ(row_waits, struct_waits);
  EXPECT_GT(struct_waits, 0u);
  EXPECT_GT(rows.at("repair.rpc.sent")[0], 0u);
  EXPECT_GT(rows.at("client1.rpc.retries")[0], 0u);
  return csv;
}

TEST(ObsRig, ExportIsOnePerNodeViewOfTheStructs) {
  const std::string first = export_after_storm(/*check=*/true);
  EXPECT_EQ(first, export_after_storm(/*check=*/false));
}

// The storm's registry also carries the rebuild coordinator's and the
// migrator's Stats, one counter per field (`rebuild.*`, `migrate.*`,
// durations in ns), equal to the structs the storm returns. Exporting them
// leaves the fingerprint as the bare run's.
TEST(ObsStorm, RebuildAndMigrateExportAsTheirStructs) {
  fault::StormParams p = small_storm();
  p.nfiles = 2;
  p.migrate_file = 1;
  p.migrate_to = raid::Scheme::raid1;
  p.migrate_at = sim::ms(100);
  const fault::StormMetrics plain = fault::run_storm(p);

  Registry reg;
  p.metrics = &reg;
  const fault::StormMetrics m = fault::run_storm(p);
  EXPECT_EQ(m.fingerprint, plain.fingerprint);
  EXPECT_EQ(m.verify_mismatches, 0u);

  const auto rows = counter_rows(reg.to_csv());
  std::size_t fields = 0;
  const auto expect_view = [&](const std::string& prefix, const auto& stats) {
    stats.for_each([&](const char* field, std::uint64_t v) {
      ++fields;
      const auto it = rows.find(prefix + field);
      ASSERT_NE(it, rows.end()) << prefix + field;
      ASSERT_EQ(it->second.size(), 1u) << prefix + field;
      EXPECT_EQ(it->second[0], v) << prefix + field;
    });
  };
  expect_view("rebuild.", m.rebuild);
  expect_view("migrate.", m.migrate);
  EXPECT_EQ(fields, 27u);
  // The storm really rebuilt and migrated, so the rows are not all zero.
  EXPECT_GE(rows.at("rebuild.rebuilds_completed")[0], 1u);
  EXPECT_EQ(rows.at("rebuild.last_rebuild_time_ns")[0],
            m.rebuild.last_rebuild_time);
  EXPECT_GT(m.rebuild.last_rebuild_time, 0u);
  EXPECT_EQ(rows.at("migrate.migrations_completed")[0], 1u);
  EXPECT_EQ(rows.at("migrate.ok")[0], 1u);
}

}  // namespace
}  // namespace csar::obs
