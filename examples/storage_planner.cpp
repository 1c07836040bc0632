// storage_planner: "which redundancy scheme and stripe unit should my
// workload use?" — the practical question the paper's evaluation answers
// case by case, automated.
//
// Describe a workload (total volume, clients, small-request fraction), and
// the planner replays a synthesized trace of it against every scheme and a
// sweep of stripe units, then reports write bandwidth, storage footprint
// and fault tolerance side by side.
//
//   usage: storage_planner [total_MB] [clients] [small_fraction]
//   e.g.:  storage_planner 128 8 0.4
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "raid/rig.hpp"
#include "workloads/harness.hpp"
#include "workloads/trace.hpp"

using namespace csar;

namespace {

struct Cell {
  double write_mbps = 0;
  double storage_ratio = 0;  // stored bytes / logical bytes
};

Cell evaluate(raid::Scheme scheme, std::uint32_t su, const wl::Trace& trace,
              std::uint32_t nclients) {
  raid::RigParams params;
  params.nservers = 6;
  params.nclients = nclients;
  params.scheme = scheme;
  raid::Rig rig(params);
  const auto res = wl::run_on(rig, wl::replay(rig, trace, su));
  pvfs::StorageInfo sum;
  for (std::uint32_t s = 0; s < params.nservers; ++s) {
    const auto info = rig.server(s).total_storage();
    sum.data_bytes += info.data_bytes;
    sum.red_bytes += info.red_bytes;
    sum.overflow_bytes += info.overflow_bytes;
  }
  Cell c;
  c.write_mbps = res.write_bw() / 1e6;
  c.storage_ratio =
      static_cast<double>(sum.data_bytes + sum.red_bytes +
                          sum.overflow_bytes) /
      static_cast<double>(trace.extent());
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t total_mb = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                          : 64;
  const std::uint32_t clients =
      argc > 2 ? static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10))
               : 4;
  const double small_fraction = argc > 3 ? std::strtod(argv[3], nullptr)
                                         : 0.4;
  std::printf("workload: %llu MB over %u clients, %.0f%% small requests\n\n",
              static_cast<unsigned long long>(total_mb), clients,
              small_fraction * 100);

  const wl::Trace trace = wl::synthesize_flash_trace(
      clients, total_mb * MB, small_fraction, /*seed=*/42);
  std::printf("synthesized trace: %zu requests, %.0f%% below 2 KiB, "
              "%s written\n\n",
              trace.size(), trace.fraction_below(2048) * 100,
              format_bytes(trace.bytes_written()).c_str());

  const std::vector<raid::Scheme> schemes = {
      raid::Scheme::raid0, raid::Scheme::raid1, raid::Scheme::raid5,
      raid::Scheme::hybrid};
  const std::vector<std::uint32_t> sus = {16 * KiB, 64 * KiB};

  TextTable t({"scheme", "su", "write MB/s", "storage x",
               "survives a disk failure"});
  std::map<std::pair<raid::Scheme, std::uint32_t>, Cell> cells;
  for (raid::Scheme s : schemes) {
    for (std::uint32_t su : sus) {
      const Cell c = evaluate(s, su, trace, clients);
      cells[{s, su}] = c;
      t.add_row({raid::scheme_name(s), format_bytes(su),
                 TextTable::num(c.write_mbps, 1),
                 TextTable::num(c.storage_ratio, 2),
                 s == raid::Scheme::raid0 ? "NO" : "yes"});
    }
  }
  t.print();

  // Recommendation: fastest fault-tolerant option; note the storage cost.
  raid::Scheme best_scheme = raid::Scheme::raid1;
  std::uint32_t best_su = sus.front();
  double best_bw = 0;
  for (raid::Scheme s : schemes) {
    if (s == raid::Scheme::raid0) continue;
    for (std::uint32_t su : sus) {
      if (cells[{s, su}].write_mbps > best_bw) {
        best_bw = cells[{s, su}].write_mbps;
        best_scheme = s;
        best_su = su;
      }
    }
  }
  std::printf(
      "\nrecommendation: %s with a %s stripe unit (%.1f MB/s, %.2fx "
      "storage).\n",
      raid::scheme_name(best_scheme).c_str(), format_bytes(best_su).c_str(),
      best_bw,
      cells[{best_scheme, best_su}].storage_ratio);
  if (best_scheme == raid::Scheme::hybrid &&
      cells[{best_scheme, best_su}].storage_ratio > 2.0) {
    std::printf(
        "note: overflow fragmentation pushes storage above RAID1's 2.0x; "
        "schedule the background cleaner (CsarFs::compact) or use a smaller "
        "stripe unit (see §6.7 of the paper).\n");
  }
  return 0;
}
