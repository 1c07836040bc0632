// failure_recovery: losing an I/O server and getting the data back — the
// reason the redundancy schemes exist (§1's "tolerant of single disk
// failures").
//
// The example writes a file with the Hybrid scheme (including partial-stripe
// writes that live only in overflow regions), kills a server, serves
// degraded reads, replaces the disk, rebuilds the server, and verifies the
// file — then shows that RAID0 would simply have lost the data.
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "raid/recovery.hpp"
#include "raid/rig.hpp"
#include "workloads/harness.hpp"

using namespace csar;

namespace {

bool demo(raid::Scheme scheme) {
  raid::RigParams params;
  params.nservers = 5;
  params.nclients = 1;
  params.scheme = scheme;
  raid::Rig rig(params);

  return wl::run_on(rig, [](raid::Rig& r) -> sim::Task<bool> {
    auto& fs = r.client_fs();
    auto file = co_await fs.create("precious.dat", r.layout(16 * KiB));
    assert(file.ok());

    // A realistic mix: bulk data plus small in-place updates, so the Hybrid
    // scheme has both parity-protected stripes and mirrored overflow.
    Rng rng(7);
    std::vector<std::byte> reference(2 * MiB, std::byte{0});
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t off = rng.below(reference.size() - 64 * KiB);
      const std::uint64_t len = 1 + rng.below(256 * KiB);
      const std::uint64_t n =
          std::min<std::uint64_t>(len, reference.size() - off);
      Buffer data = Buffer::pattern(n, rng.next());
      auto src = data.bytes();
      std::copy(src.begin(), src.end(),
                reference.begin() + static_cast<std::ptrdiff_t>(off));
      auto wr = co_await fs.write(*file, off, std::move(data));
      assert(wr.ok());
      (void)wr;
    }
    const Buffer expect = Buffer::from_bytes(reference);

    // --- disaster strikes server 2 ---
    std::printf("  [t=%7.3fs] server 2 fails\n",
                sim::to_seconds(r.sim.now()));
    r.server(2).fail();

    auto rec = r.recovery();
    auto degraded = co_await rec.degraded_read(*file, 0, expect.size(), 2);
    if (!degraded.ok()) {
      std::printf("  degraded read: FAILED (%s)\n",
                  degraded.error().to_string().c_str());
      co_return false;
    }
    std::printf("  degraded read while down: %s\n",
                (*degraded == expect) ? "contents intact" : "CORRUPTED");

    // --- replace the disk and rebuild ---
    r.server(2).wipe();     // blank replacement disk
    r.server(2).recover();  // back online
    const sim::Time t0 = r.sim.now();
    auto rebuilt = co_await rec.rebuild_server(*file, 2, expect.size());
    assert(rebuilt.ok());
    (void)rebuilt;
    std::printf("  rebuild of server 2 took %.3f simulated seconds\n",
                sim::to_seconds(r.sim.now() - t0));

    auto verify = co_await fs.read(*file, 0, expect.size());
    const bool ok = verify.ok() && *verify == expect;
    std::printf("  post-rebuild verification: %s\n",
                ok ? "contents intact" : "CORRUPTED");

    // The rebuilt redundancy must survive the *next* failure too.
    r.server(4).fail();
    auto second = co_await rec.degraded_read(*file, 0, expect.size(), 4);
    const bool ok2 = second.ok() && *second == expect;
    std::printf("  tolerates a subsequent failure of server 4: %s\n",
                ok2 ? "yes" : "NO");
    r.server(4).recover();
    co_return ok && ok2;
  }(rig));
}

}  // namespace

int main() {
  for (raid::Scheme s :
       {raid::Scheme::raid1, raid::Scheme::raid5, raid::Scheme::hybrid}) {
    std::printf("%s:\n", raid::scheme_name(s).c_str());
    const bool ok = demo(s);
    std::printf("  => %s\n\n", ok ? "recovered" : "DATA LOSS");
  }

  // And the cautionary tale: plain PVFS striping.
  std::printf("RAID0 (plain PVFS):\n");
  raid::RigParams params;
  params.nservers = 5;
  params.scheme = raid::Scheme::raid0;
  raid::Rig rig(params);
  const bool lost = wl::run_on(rig, [](raid::Rig& r) -> sim::Task<bool> {
    auto file = co_await r.client_fs().create("doomed.dat",
                                              r.layout(16 * KiB));
    assert(file.ok());
    auto wr = co_await r.client_fs().write(*file, 0,
                                           Buffer::pattern(1 * MiB, 1));
    assert(wr.ok());
    (void)wr;
    r.server(2).fail();
    auto rec = r.recovery();
    auto rd = co_await rec.degraded_read(*file, 0, 1 * MiB, 2);
    co_return !rd.ok();
  }(rig));
  std::printf("  server 2 fails -> %s\n",
              lost ? "data is unrecoverable (as the paper warns, §1)"
                   : "unexpectedly recovered?!");
  return 0;
}
