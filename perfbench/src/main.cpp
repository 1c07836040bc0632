// csar_perfbench: run one benchmark workload for a host-time budget.
//
//   csar_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 repeats the workload's iteration (fresh rig, setup, measured
// phase, verification) until S seconds have passed, at least three times,
// and reports the end-to-end metrics: host throughput with each segment of
// the measured phase at its fastest over the iterations, setup time as the
// median over the iterations, peak RSS, and the simulated-clock metrics,
// which every iteration must reproduce exactly. --trace 1 runs the host
// probes, then alternates untraced and traced iterations and reports the
// per-layer metrics, checking that tracing changed no simulated result.
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when
// every correctness gate held, 1 when one failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "perfbench.hpp"

namespace {

using perfbench::Clock;
using perfbench::IterResult;
using perfbench::median;
using perfbench::percentile;
using perfbench::seconds_since;

constexpr std::size_t kMinIterations = 3;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Every per-layer metric with its unit; a traced run must report all.
const std::vector<std::pair<const char*, const char*>>& layer_units() {
  static const std::vector<std::pair<const char*, const char*>> u = {
      {"sim.sleep_event_ns", "ns"},
      {"sim.channel_hop_ns", "ns"},
      {"sim.events_per_op", "events/op"},
      {"sim.events_per_s", "events/s"},
      {"sim.frames_per_op", "frames/op"},
      {"sim.slab_fallback", "count"},
      {"common.buffer_slice_ns", "ns"},
      {"common.interval_map_insert_ns", "ns"},
      {"common.xor_gbps", "GB/s"},
      {"common.gf_muladd_gbps", "GB/s"},
      {"hw.page_cache_write_ns", "ns"},
      {"hw.page_cache_read_hit_ns", "ns"},
      {"hw.cache_hit_ratio", "ratio"},
      {"hw.dirty_evictions", "count"},
      {"hw.prereads_per_op", "reads/op"},
      {"hw.disk_ios_per_op", "ios/op"},
      {"hw.disk_busy_frac", "ratio"},
      {"localfs.write_ns", "ns"},
      {"localfs.read_ns", "ns"},
      {"localfs.write_real_mib_s", "MiB/s"},
      {"net.transfer_ns", "ns"},
      {"net.msgs_per_op", "msgs/op"},
      {"net.wire_bytes_per_user_byte", "B/B"},
      {"pvfs.rpc_round_trip_ns", "ns"},
      {"pvfs.meta_create_ns", "ns"},
      {"pvfs.rpcs_per_op", "rpcs/op"},
      {"pvfs.retries_per_op", "retries/op"},
      {"pvfs.batch_subs_per_batch", "subs/batch"},
      {"pvfs.lock_waits_per_op", "waits/op"},
      {"pvfs.lock_wait_ms_per_op", "ms/op"},
      {"pvfs.journal_records", "count"},
      {"raid.write_ns.hybrid_16k", "ns"},
      {"raid.write_ns.raid5_16k", "ns"},
      {"raid.write_ns.rs42_16k", "ns"},
      {"raid.write_ns.rs42_full", "ns"},
      {"raid.degraded_read_ns.rs42", "ns"},
      {"raid.ec_encode_mib", "MiB"},
      {"raid.ec_decode_mib", "MiB"},
      {"raid.fragments_per_decode", "frags/decode"},
      {"raid.degraded_reads", "count"},
      {"raid.rebuild_mib", "MiB"},
      {"raid.rebuild_passes", "count"},
      {"raid.recopy_passes", "count"},
      {"span.client_ms_per_op", "ms/op"},
      {"span.wire_ms_per_op", "ms/op"},
      {"span.queue_ms_per_op", "ms/op"},
      {"span.lock_wait_ms_per_op", "ms/op"},
      {"span.cache_ms_per_op", "ms/op"},
      {"span.disk_ms_per_op", "ms/op"},
      {"trace.overhead_frac", "ratio"},
  };
  return u;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Every simulated-clock output of an iteration, printed exactly; two
/// iterations with the same seed must produce the same string.
std::string sim_signature(const IterResult& r) {
  std::string s;
  char buf[64];
  const auto add = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g ", v);
    s += buf;
  };
  for (std::uint64_t v : {r.attempted, r.completed, r.failed, r.shed, r.mismatched,
                          r.user_bytes, r.fingerprint, r.events, r.rebuild_bytes,
                          r.rebuild_passes, r.recopy_passes}) {
    add(static_cast<double>(v));
  }
  add(r.fg_sim_s);
  add(r.storage_ratio);
  add(r.rebuild_s);
  for (const auto* v : {&r.write_ms, &r.read_ms, &r.degraded_ms}) {
    for (double x : *v) add(x);
    s += "| ";
  }
  return s;
}

/// Host time of the measured phase with every segment at its fastest over
/// the iterations. Each segment does the same work in every iteration, so a
/// slower copy of it measures interference from the shared host (which only
/// ever slows work down); short segments let quiet moments anywhere in the
/// run count. 0 if the iterations were cut differently.
double fastest_measured_s(const std::vector<IterResult>& its) {
  std::vector<double> best = its.front().host_segments_s;
  for (const IterResult& it : its) {
    if (it.host_segments_s.size() != best.size()) return 0;
    for (std::size_t k = 0; k < best.size(); ++k) {
      best[k] = std::min(best[k], it.host_segments_s[k]);
    }
  }
  double s = 0;
  for (double x : best) s += x;
  return s;
}

std::vector<Metric> end_to_end(const std::vector<IterResult>& its, double rss_mib) {
  const IterResult& r = its.front();
  std::vector<double> setup;
  for (const IterResult& it : its) setup.push_back(it.host_setup_s);
  return {
      {"host_ops_per_s", static_cast<double>(r.measured_ops) / fastest_measured_s(its),
       "ops/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mib", rss_mib, "MiB"},
      {"sim_write_p50_ms", percentile(r.write_ms, 0.50), "ms"},
      {"sim_write_p99_ms", percentile(r.write_ms, 0.99), "ms"},
      {"sim_read_p50_ms", percentile(r.read_ms, 0.50), "ms"},
      {"sim_read_p99_ms", percentile(r.read_ms, 0.99), "ms"},
      {"sim_goodput_mib_s", static_cast<double>(r.user_bytes) / (1024.0 * 1024.0) / r.fg_sim_s,
       "MiB/s"},
      {"storage_ratio", r.storage_ratio, "B/B"},
      {"sim_rebuild_s", r.rebuild_s, "s"},
      {"sim_degraded_p99_ms", percentile(r.degraded_ms, 0.99), "ms"},
  };
}

std::vector<Metric> per_layer(const perfbench::LayerMetrics& probes,
                              const std::vector<IterResult>& untraced,
                              const std::vector<IterResult>& traced) {
  perfbench::LayerMetrics m = probes;
  const IterResult& t = traced.front();
  for (const auto& [k, v] : t.layer) m[k] = v;
  std::vector<double> host_u, host_t;
  for (const IterResult& it : untraced) host_u.push_back(it.host_measured_s);
  for (const IterResult& it : traced) host_t.push_back(it.host_measured_s);
  m["sim.events_per_s"] = static_cast<double>(t.events) / median(host_u);
  m["raid.rebuild_mib"] = static_cast<double>(t.rebuild_bytes) / (1024.0 * 1024.0);
  m["raid.rebuild_passes"] = static_cast<double>(t.rebuild_passes);
  m["raid.recopy_passes"] = static_cast<double>(t.recopy_passes);
  m["trace.overhead_frac"] = median(host_t) / median(host_u) - 1.0;
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_units()) {
    auto it = m.find(name);
    out.push_back({name, it == m.end() ? std::nan("") : it->second, unit});
  }
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:",
               argv0);
  for (const auto& w : perfbench::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    char* end = nullptr;
    if (flag == "--workload") {
      name = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(argv[i + 1], &end);
    } else if (flag == "--trace") {
      trace = std::atoi(argv[i + 1]);
    } else {
      return usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') return usage(argv[0]);
  }
  const perfbench::Workload* wl = nullptr;
  for (const auto& w : perfbench::workloads()) {
    if (name == w.name) wl = &w;
  }
  if (wl == nullptr || seconds < 0 || (trace != 0 && trace != 1) || argc != 9) {
    return usage(argv[0]);
  }

  const auto t_start = Clock::now();
  std::vector<IterResult> untraced, traced;
  perfbench::LayerMetrics probes;
  if (trace == 1) perfbench::run_probes(probes);
  // Peak RSS as of the first iteration, so it does not depend on how many
  // iterations the time budget allowed.
  double rss_mib = 0;
  do {
    untraced.push_back(wl->run(seed, false));
    if (untraced.size() == 1) rss_mib = peak_rss_mib();
    if (trace == 1) traced.push_back(wl->run(seed, true));
  } while (seconds_since(t_start) < seconds ||
           (trace == 0 && untraced.size() < kMinIterations));

  // Correctness: every gate of every iteration, and one simulated outcome
  // for the seed whether traced or not.
  std::vector<std::string> errors;
  const std::string sig = sim_signature(untraced.front());
  std::uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&untraced, &traced}) {
    for (const IterResult& it : *set) {
      for (const std::string& e : it.errors) errors.push_back(e);
      if (sim_signature(it) != sig) {
        errors.push_back(set == &traced ? "tracing changed a simulated result"
                                        : "same-seed iterations disagree");
      }
      attempted += it.attempted;
      failed += it.failed + it.shed + it.mismatched;
    }
  }
  const IterResult& r = untraced.front();
  std::vector<Metric> metrics =
      trace == 0 ? end_to_end(untraced, rss_mib) : per_layer(probes, untraced, traced);
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) errors.push_back("metric " + m.name + " is not finite");
  }

  std::printf("workload %s seed %" PRIu64 ": %zu untraced + %zu traced iterations\n",
              wl->name, seed, untraced.size(), traced.size());
  std::printf("sim: fingerprint=0x%016" PRIx64 " ops=%" PRIu64 " failed=%" PRIu64
              " shed=%" PRIu64 " mismatched=%" PRIu64 " fail_frac=%.6g\n",
              r.fingerprint, r.attempted, r.failed, r.shed, r.mismatched,
              static_cast<double>(r.failed + r.shed + r.mismatched) /
                  static_cast<double>(r.attempted));
  std::printf("sim: samples writes=%zu reads=%zu degraded=%zu events=%" PRIu64
              " fg_sim_s=%.6g\n",
              r.write_ms.size(), r.read_ms.size(), r.degraded_ms.size(), r.events,
              r.fg_sim_s);
  std::printf("host: untraced ops/s by iteration:");
  for (const IterResult& it : untraced) {
    std::printf(" %.0f", static_cast<double>(it.measured_ops) / it.host_measured_s);
  }
  std::printf("\nhost: %zu segments per iteration, fastest of each: %.6g ops/s\n",
              r.host_segments_s.size(),
              static_cast<double>(r.measured_ops) / fastest_measured_s(untraced));
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& e : errors) std::printf("FAIL: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return errors.empty() ? 0 : 1;
}
