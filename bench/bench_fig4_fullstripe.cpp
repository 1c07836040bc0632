// Figure 4(a): bandwidth of large (integral-stripe) writes from a single
// client, versus the number of I/O servers, for RAID0/RAID1/RAID5/
// RAID5-npc/Hybrid.
#include "bench_common.hpp"

using namespace csar;

int main() {
  const std::uint32_t kSu = 64 * KiB;
  const auto profile = hw::profile_experimental2003();
  report::banner(
      "F4a", "Performance of large (full-stripe) writes — Figure 4(a)",
      bench::setup_line(7, 1, "experimental-2003", kSu) +
          ", single client writing 4-stripe chunks, 128 MiB total");
  report::expectations({
      "RAID1 plateaus by ~4 servers (2x bytes saturate the client link)",
      "RAID5 and Hybrid are indistinguishable (full stripes take the same path)",
      "RAID5 trails RAID0 by roughly the parity fraction 1/(N-1)",
      "RAID5-npc is ~8% above RAID5 (cost of computing parity)",
  });

  const std::vector<raid::Scheme> schemes = {
      raid::Scheme::raid0, raid::Scheme::raid1, raid::Scheme::raid5,
      raid::Scheme::raid5_npc, raid::Scheme::hybrid};
  TextTable t({"ioservers", "RAID0", "RAID1", "RAID5", "RAID5-npc",
               "Hybrid"});
  std::map<std::pair<std::uint32_t, raid::Scheme>, double> bw;
  for (std::uint32_t n = 1; n <= 7; ++n) {
    std::vector<std::string> row = {TextTable::num(std::uint64_t{n})};
    for (raid::Scheme s : schemes) {
      if (raid::uses_group_coding(s) && n < 2) {
        row.push_back("-");
        continue;
      }
      bench::Rig rig(bench::make_rig(s, n, 1, profile));
      wl::MicroParams p;
      p.stripe_unit = kSu;
      p.total_bytes = 128 * MiB;
      p.stripes_per_write = 4;
      const auto res = wl::run_on(rig, wl::full_stripe_write(rig, p));
      bw[{n, s}] = res.write_bw();
      row.push_back(report::mbps(res.write_bw()));
    }
    t.add_row(std::move(row));
  }
  report::table("single-client full-stripe write bandwidth (MB/s)", t);

  report::check("RAID1 gains <10% from 4 to 7 servers",
                bw[{7, raid::Scheme::raid1}] <
                    1.10 * bw[{4, raid::Scheme::raid1}]);
  report::check("RAID0 still rising at 7 servers",
                bw[{7, raid::Scheme::raid0}] >
                    1.15 * bw[{4, raid::Scheme::raid0}]);
  report::check("Hybrid == RAID5 at 7 servers (±2%)",
                std::abs(bw[{7, raid::Scheme::hybrid}] -
                         bw[{7, raid::Scheme::raid5}]) <
                    0.02 * bw[{7, raid::Scheme::raid5}]);
  const double npc_gain = bw[{7, raid::Scheme::raid5_npc}] /
                          bw[{7, raid::Scheme::raid5}] - 1.0;
  report::check("parity compute overhead in [2%, 15%] (paper: ~8%)",
                npc_gain > 0.02 && npc_gain < 0.15);
  std::printf("parity compute overhead at 7 servers: %.1f%%\n",
              npc_gain * 100.0);
  return report::exit_code();
}
