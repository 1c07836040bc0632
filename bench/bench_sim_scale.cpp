// Simulator-scaling macro-bench: open-loop traffic over growing deployments.
//
// This is the one bench that measures the *simulator*, not the simulated
// system: events/sec through the DES core, wall-clock per simulated second
// and peak RSS while sweeping {servers} x {tenants}. Simulated results
// (event counts, fingerprints) are deterministic and printed so a
// run-twice diff catches nondeterminism; wall-clock numbers go to the
// perf-trajectory JSON (BENCH_sim_throughput.json).
//
// The PERF line also counts heap allocations (every global operator new,
// through bench/alloc_counter.cpp) per completed request, setup and
// teardown of the first run included. Unlike a rate, that count is the
// same on every host built with the same toolchain, so CI gates it
// against the committed "quick" row (scripts/check_perf_smoke.py). It is
// meant for the default build: with CSAR_SIM_SLAB=OFF coroutine frames
// are counted too.
//
// Usage:
//   bench_sim_scale [--quick] [--reps=N] [--out=FILE.json]
// --quick runs the single pinned small config the CI perf-smoke job uses.
// --reps=N (default 1) runs each config N times: the simulated results must
// be identical every time, and the row reports the median and the minimum
// events/sec over the N runs ("events_per_sec" is the median). A full
// sweep rewrites the output's "rows" and keeps its committed "quick" row
// and "trajectory".
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "workloads/open_loop.hpp"

namespace {

struct Config {
  std::uint32_t nservers;
  std::uint32_t ntenants;
  double sim_seconds;  ///< arrival-window length
};

long peak_rss_kib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

struct Row {
  Config cfg;
  std::uint64_t events = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t fingerprint = 0;
  double sim_elapsed_s = 0;
  double wall_s = 0;  ///< median over the reps
  double min_events_per_sec = 0;
  std::uint32_t reps = 1;
  long rss_kib = 0;
  std::uint64_t heap_allocs = 0;  ///< operator new calls (first run)

  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0; }
  double allocs_per_op() const {
    return completed > 0 ? static_cast<double>(heap_allocs) / completed : 0;
  }
  double wall_per_sim_sec() const {
    return sim_elapsed_s > 0 ? wall_s / sim_elapsed_s : 0;
  }
  bool same_sim(const Row& o) const {
    return events == o.events && arrivals == o.arrivals &&
           completed == o.completed && shed == o.shed &&
           fingerprint == o.fingerprint && sim_elapsed_s == o.sim_elapsed_s;
  }
};

Row run_config(const Config& cfg) {
  using csar::raid::Scheme;
  Row row{cfg};

  csar::raid::RigParams rp;
  rp.scheme = Scheme::hybrid;
  rp.nservers = cfg.nservers;
  // Tenants share client endpoints round-robin; client nodes are the
  // expensive part of the rig, tenants are cheap coroutines.
  rp.nclients = std::min<std::uint32_t>(cfg.ntenants, 16);

  csar::wl::OpenLoopParams olp;
  olp.ntenants = cfg.ntenants;
  olp.total_rate = 100.0 * cfg.ntenants;  // fixed per-tenant offered load
  olp.duration = static_cast<csar::sim::Duration>(cfg.sim_seconds * 1e9);
  olp.max_outstanding = 4;
  olp.request_bytes = 16 * 1024;
  olp.file_extent = 1ull << 20;
  olp.seed = 0xC5A20123ULL + cfg.nservers;

  const std::uint64_t a0 = csar::bench::heap_allocs();
  const auto w0 = std::chrono::steady_clock::now();
  {
    csar::bench::Rig rig(rp);
    const auto stats = csar::wl::run_on(rig, run_open_loop(rig, olp));
    row.events = rig.sim.events_executed();
    row.arrivals = stats.arrivals;
    row.completed = stats.completed;
    row.shed = stats.shed;
    row.fingerprint = stats.fingerprint;
    row.sim_elapsed_s = csar::sim::to_seconds(stats.elapsed);
  }
  const auto w1 = std::chrono::steady_clock::now();
  row.heap_allocs = csar::bench::heap_allocs() - a0;
  row.wall_s = std::chrono::duration<double>(w1 - w0).count();
  row.rss_kib = peak_rss_kib();
  return row;
}

/// run_config `reps` times. The simulated fields and the allocation count
/// come from the first run (every run must match the former; later runs
/// reuse warmed slab chunks, so only the first count is comparable); wall
/// time is the median over the runs.
/// Returns false if a run simulated something different.
bool run_reps(const Config& cfg, std::uint32_t reps, Row* out) {
  std::vector<Row> runs;
  for (std::uint32_t i = 0; i < reps; ++i) {
    runs.push_back(run_config(cfg));
    if (!runs.back().same_sim(runs.front())) return false;
  }
  std::vector<double> walls;
  for (const Row& r : runs) walls.push_back(r.wall_s);
  std::sort(walls.begin(), walls.end());
  const std::size_t mid = walls.size() / 2;
  *out = runs.front();
  out->reps = reps;
  out->wall_s = walls.size() % 2 ? walls[mid]
                                 : (walls[mid - 1] + walls[mid]) / 2;
  out->min_events_per_sec = walls.back() > 0 ? out->events / walls.back() : 0;
  out->rss_kib = peak_rss_kib();
  return true;
}

void print_row(const Row& r) {
  // Deterministic line first (run-twice diffs key on "SIM " lines only:
  // nothing wall-clock-dependent may appear on them).
  std::printf("SIM  servers=%3u tenants=%4u events=%llu arrivals=%llu "
              "completed=%llu shed=%llu fingerprint=0x%016llx\n",
              r.cfg.nservers, r.cfg.ntenants,
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.arrivals),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.fingerprint));
  std::printf("PERF servers=%3u tenants=%4u events/sec=%.3e "
              "wall_per_sim_sec=%.3f peak_rss_mib=%.1f allocs/op=%.2f",
              r.cfg.nservers, r.cfg.ntenants, r.events_per_sec(),
              r.wall_per_sim_sec(), r.rss_kib / 1024.0, r.allocs_per_op());
  if (r.reps > 1) {
    std::printf(" reps=%u events/sec_min=%.3e", r.reps, r.min_events_per_sec);
  }
  std::printf("\n");
}

/// The raw JSON text of top-level member `key` of `doc`, or "" when absent.
/// Top-level members sit at two-space indentation, as write_json lays them
/// out; the value runs to its matching close bracket (strings skipped).
std::string json_member(const std::string& doc, const std::string& key) {
  const std::size_t at = doc.find("\n  \"" + key + "\": ");
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size() + 7;
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = begin; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
    } else if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      return doc.substr(begin, i + 1 - begin);
    }
  }
  return "";
}

std::string read_file(const std::string& path) {
  std::string text;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
      text.append(buf, n);
    }
    std::fclose(f);
  }
  return text;
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                bool quick) {
  // A full sweep replaces the rows but keeps the file's committed "quick"
  // baseline row and its "trajectory", which it does not measure.
  std::vector<std::pair<std::string, std::string>> kept;
  if (!quick) {
    const std::string old = read_file(path);
    for (const char* key : {"quick", "trajectory"}) {
      std::string v = json_member(old, key);
      if (!v.empty()) kept.emplace_back(key, std::move(v));
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("bench_sim_scale: fopen");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"sim_throughput\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"servers\": %u, \"tenants\": %u, \"events_executed\": %llu, "
        "\"events_per_sec\": %.1f, \"wall_seconds\": %.4f, "
        "\"sim_seconds\": %.4f, \"wall_per_sim_sec\": %.4f, "
        "\"peak_rss_kib\": %ld, \"fingerprint\": \"0x%016llx\", "
        "\"reps\": %u, \"events_per_sec_min\": %.1f, "
        "\"heap_allocs\": %llu, \"allocs_per_op\": %.3f}%s\n",
        r.cfg.nservers, r.cfg.ntenants,
        static_cast<unsigned long long>(r.events), r.events_per_sec(),
        r.wall_s, r.sim_elapsed_s, r.wall_per_sim_sec(), r.rss_kib,
        static_cast<unsigned long long>(r.fingerprint), r.reps,
        r.min_events_per_sec,
        static_cast<unsigned long long>(r.heap_allocs), r.allocs_per_op(),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
  for (const auto& [key, value] : kept) {
    std::fprintf(f, ",\n  \"%s\": %s", key.c_str(), value.c_str());
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint32_t reps = 1;
  std::string out = "BENCH_sim_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0 &&
               std::atoi(argv[i] + 7) > 0) {
      reps = static_cast<std::uint32_t>(std::atoi(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--reps=N] [--out=FILE.json]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<Config> configs;
  if (quick) {
    // Pinned perf-smoke config: small enough for a debug/CI runner but
    // large enough that the event queue sees all three wheel levels.
    configs.push_back({8, 64, 4.0});
  } else {
    configs = {
        {8, 16, 2.0},    {16, 64, 2.0},    {32, 256, 1.0},
        {64, 1024, 0.5}, {128, 2048, 0.5},
    };
  }

  std::printf("bench_sim_scale: open-loop DES throughput sweep (%s)\n",
              quick ? "quick" : "full");
  std::vector<Row> rows;
  for (const Config& cfg : configs) {
    Row row;
    if (!run_reps(cfg, reps, &row)) {
      std::fprintf(stderr,
                   "bench_sim_scale: servers=%u tenants=%u simulated "
                   "differently across reps (nondeterminism)\n",
                   cfg.nservers, cfg.ntenants);
      return 1;
    }
    rows.push_back(row);
    print_row(rows.back());
  }
  write_json(out, rows, quick);
  return 0;
}
