// concurrent_writers: many clients writing disjoint regions of one shared
// file — the canonical PVFS access pattern — and what the parity-lock
// protocol (§5.1) does for, and costs, each scheme.
//
// Part 1 shows correctness: with RAID5, concurrent partial-stripe writers
// on the same stripe keep parity consistent only because of the locks (the
// NO-LOCK ablation corrupts it). Part 2 shows the price: the same run timed
// across schemes.
#include <cstdio>

#include "common/units.hpp"
#include "pvfs/io_server.hpp"
#include "raid/rig.hpp"
#include "sim/sync.hpp"
#include "workloads/harness.hpp"

using namespace csar;

namespace {

constexpr std::uint32_t kServers = 6;
constexpr std::uint32_t kWriters = 5;  // one per data block of a stripe
constexpr std::uint32_t kSu = 64 * KiB;

struct RunResult {
  bool parity_consistent;
  double secs;
  std::uint64_t lock_waits;
};

RunResult run(raid::Scheme scheme) {
  raid::RigParams params;
  params.nservers = kServers;
  params.nclients = kWriters;
  params.scheme = scheme;
  raid::Rig rig(params);

  return wl::run_on(rig, [](raid::Rig& r) -> sim::Task<RunResult> {
    RunResult out{};
    auto file = co_await r.client_fs(0).create("shared.dat",
                                               r.layout(kSu));
    assert(file.ok());
    const sim::Time t0 = r.sim.now();

    // Each writer owns one block of the same stripe and rewrites it with
    // real (materialized) content, 20 rounds.
    sim::WaitGroup wg(r.sim);
    wg.add(kWriters);
    for (std::uint32_t c = 0; c < kWriters; ++c) {
      r.sim.spawn([](raid::Rig& rr, pvfs::OpenFile f, std::uint32_t client,
                     sim::WaitGroup* done) -> sim::Task<void> {
        for (int round = 0; round < 20; ++round) {
          Buffer block = Buffer::pattern(
              kSu, client * 1000 + static_cast<std::uint64_t>(round));
          auto wr = co_await rr.client_fs(client).write(
              f, static_cast<std::uint64_t>(client) * kSu, std::move(block));
          assert(wr.ok());
          (void)wr;
        }
        done->done();
      }(r, *file, c, &wg));
    }
    co_await wg.wait();
    out.secs = sim::to_seconds(r.sim.now() - t0);

    for (std::uint32_t s = 0; s < kServers; ++s) {
      out.lock_waits += r.server(s).lock_stats().waits;
    }

    // White-box parity audit: XOR the stripe's data units straight out of
    // the server file systems and compare with the stored parity unit.
    out.parity_consistent = true;
    if (raid::uses_group_coding(r.p.scheme)) {
      const auto& layout = file->layout;
      const std::uint32_t k = layout.n() - 1;  // parity: rs(N-1,1)
      Buffer parity = co_await r.server(layout.coding_server(0, k, 0))
                          .fs()
                          .peek(pvfs::IoServer::red_name(file->handle),
                                layout.coding_off(0, k, 1, 0), kSu);
      Buffer expect = Buffer::real(kSu);
      for (std::uint64_t u = 0; u < kServers - 1; ++u) {
        Buffer unit = co_await r.server(layout.server_of_unit(u))
                          .fs()
                          .peek(pvfs::IoServer::data_name(file->handle),
                                layout.local_unit(u) * kSu, kSu);
        expect.xor_with(unit);
      }
      out.parity_consistent = parity == expect;
    }
    co_return out;
  }(rig));
}

}  // namespace

int main() {
  std::printf("%u writers rewriting the %u blocks of one stripe, 20 rounds\n\n",
              kWriters, kWriters);
  std::printf("%-11s %10s %12s %18s\n", "scheme", "time", "lock waits",
              "parity consistent");
  for (raid::Scheme s :
       {raid::Scheme::raid0, raid::Scheme::raid1, raid::Scheme::raid5,
        raid::Scheme::raid5_nolock, raid::Scheme::hybrid}) {
    const RunResult r = run(s);
    std::printf("%-11s %8.3f s %12llu %18s\n", raid::scheme_name(s).c_str(), r.secs,
                static_cast<unsigned long long>(r.lock_waits),
                !raid::uses_group_coding(s)  ? "n/a"
                : r.parity_consistent ? "yes"
                                      : "NO (corrupted!)");
  }
  std::printf(
      "\nRAID5 pays lock waits to keep the parity block consistent; the\n"
      "NO-LOCK ablation is faster and silently corrupts it. The Hybrid\n"
      "scheme sidesteps the problem entirely: partial-stripe writes go to\n"
      "mirrored overflow regions and need no parity lock at all (§5.1).\n");
  return 0;
}
