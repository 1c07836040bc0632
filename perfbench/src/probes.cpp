// Host-time probes: each times one public function of one layer, called in
// isolation on the request shape the workloads use, and reports the median
// over several timed batches.
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/codec.hpp"
#include "common/interval_map.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/node.hpp"
#include "hw/page_cache.hpp"
#include "localfs/local_fs.hpp"
#include "net/fabric.hpp"
#include "perfbench.hpp"
#include "raid/rig.hpp"
#include "sim/channel.hpp"
#include "sim/simulation.hpp"

namespace perfbench {
namespace {

using csar::Buffer;
using csar::KiB;
using csar::MiB;
using csar::Rng;
namespace hw = csar::hw;
namespace pvfs = csar::pvfs;
namespace raid = csar::raid;
namespace sim = csar::sim;

constexpr int kReps = 5;

/// Median over kReps runs of `batch`, which returns one measurement.
template <class F>
double median_of(F&& batch) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) v.push_back(batch());
  return median(std::move(v));
}

/// Keeps a computed value alive so the optimizer cannot drop its work.
volatile std::uint64_t g_sink = 0;

// --- sim ---

sim::Task<void> sleeper(sim::Simulation* s, Rng rng, int n) {
  for (int i = 0; i < n; ++i) co_await s->sleep(1 + rng.below(sim::ms(1)));
}

/// Nanoseconds per timer event with 1024 timers standing in the queue.
double sleep_event_ns() {
  sim::Simulation s;
  Rng root(7);
  for (int k = 0; k < 1024; ++k) s.spawn(sleeper(&s, root.split(), 64));
  const auto t0 = Clock::now();
  s.run();
  return seconds_since(t0) * 1e9 / static_cast<double>(s.events_executed());
}

sim::Task<void> pinger(sim::Channel<int>* a, sim::Channel<int>* b, int n) {
  for (int i = 0; i < n; ++i) {
    a->send(i);
    g_sink = g_sink + static_cast<std::uint64_t>(co_await b->recv());
  }
}

sim::Task<void> ponger(sim::Channel<int>* a, sim::Channel<int>* b, int n) {
  for (int i = 0; i < n; ++i) b->send(co_await a->recv());
}

/// Nanoseconds per Channel::send -> recv hand-off between two coroutines.
double channel_hop_ns() {
  constexpr int kN = 50000;
  sim::Simulation s;
  sim::Channel<int> a(s), b(s);
  const auto t0 = Clock::now();
  s.spawn(ponger(&a, &b, kN));
  s.spawn(pinger(&a, &b, kN));
  s.run();
  return seconds_since(t0) * 1e9 / (2.0 * kN);
}

// --- common ---

double buffer_slice_ns() {
  constexpr int kN = 200000;
  const Buffer big = Buffer::pattern(1 * MiB, 1);
  const auto t0 = Clock::now();
  std::uint64_t acc = 0;
  for (int i = 0; i < kN; ++i) {
    const Buffer s = big.slice((static_cast<std::uint64_t>(i) * 4 * KiB) % (MiB - 16 * KiB),
                               16 * KiB);
    acc += s.size();
  }
  g_sink = acc;
  return seconds_since(t0) * 1e9 / kN;
}

struct BufferSlicer {
  Buffer operator()(const Buffer& b, std::uint64_t off, std::uint64_t len) const {
    return b.slice(off, len);
  }
};

/// IntervalMap insert of 16 KiB phantom extents at 8 KiB granularity over a
/// 1 MiB local file (LocalFs content maps under the open-loop workload).
double interval_map_insert_ns() {
  constexpr int kN = 50000;
  csar::IntervalMap<Buffer, BufferSlicer> m;
  Rng rng(3);
  const auto t0 = Clock::now();
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t off = rng.below(127) * 8 * KiB;
    m.insert(off, off + 16 * KiB, Buffer::phantom(16 * KiB));
  }
  return seconds_since(t0) * 1e9 / kN;
}

/// GB/s (= bytes per ns) of `kernel` over 64 KiB regions.
template <class K>
double region_gbps(K kernel) {
  constexpr int kN = 2000;
  std::vector<std::byte> dst(64 * KiB), src(64 * KiB);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::byte>(i * 131);
  const auto t0 = Clock::now();
  for (int i = 0; i < kN; ++i) kernel(std::span<std::byte>(dst), std::span<const std::byte>(src));
  const double ns = seconds_since(t0) * 1e9;
  g_sink = static_cast<std::uint64_t>(dst[17]);
  return static_cast<double>(kN) * 64.0 * KiB / ns;
}

// --- hw / localfs / net ---

/// A server node's storage stack, standalone: disk, copy engine, page cache
/// (default 768 MiB, so the probes' 1 MiB working set always fits).
struct Storage {
  sim::Simulation s;
  hw::Disk disk{s, hw::DiskParams{}};
  sim::BandwidthServer mem{s, 300e6};
  hw::PageCache cache{s, disk, mem, hw::CacheParams{}};
  csar::localfs::LocalFs fs{s, cache, csar::localfs::LocalFsParams{}};
};

constexpr int kStorageOps = 20000;
constexpr std::uint64_t kSlots = 64;  ///< 16 KiB slots in a 1 MiB file

sim::Task<void> cache_ops(hw::PageCache* c, bool write) {
  const auto has = hw::PageCache::dense(1 * MiB);
  for (int i = 0; i < kStorageOps; ++i) {
    const std::uint64_t off = (static_cast<std::uint64_t>(i) % kSlots) * 16 * KiB;
    if (write) {
      co_await c->write(1, off, 16 * KiB, has);
    } else {
      co_await c->read(1, off, 16 * KiB, has);
    }
  }
}

double page_cache_ns(bool write) {
  Storage st;
  if (!write) {  // warm every slot so each timed read hits
    st.s.spawn(cache_ops(&st.cache, true));
    st.s.run();
  }
  const auto t0 = Clock::now();
  st.s.spawn(cache_ops(&st.cache, write));
  st.s.run();
  return seconds_since(t0) * 1e9 / kStorageOps;
}

sim::Task<void> localfs_ops(csar::localfs::LocalFs* fs, bool write) {
  for (int i = 0; i < kStorageOps; ++i) {
    const std::uint64_t off = (static_cast<std::uint64_t>(i) % kSlots) * 16 * KiB;
    if (write) {
      co_await fs->write("h1.data", off, Buffer::phantom(16 * KiB));
    } else {
      g_sink = (co_await fs->read("h1.data", off, 16 * KiB)).size();
    }
  }
}

double localfs_ns(bool write) {
  Storage st;
  if (!write) {
    st.s.spawn(localfs_ops(&st.fs, true));
    st.s.run();
  }
  const auto t0 = Clock::now();
  st.s.spawn(localfs_ops(&st.fs, write));
  st.s.run();
  return seconds_since(t0) * 1e9 / kStorageOps;
}

sim::Task<void> localfs_real_writes(csar::localfs::LocalFs* fs, Buffer chunk, int n) {
  for (int i = 0; i < n; ++i) {
    co_await fs->write("h1.data", (static_cast<std::uint64_t>(i) % 8) * MiB, chunk);
  }
}

/// MiB/s of 1 MiB LocalFs::write calls carrying real bytes.
double localfs_write_real_mib_s() {
  constexpr int kN = 400;
  Storage st;
  const Buffer chunk = Buffer::pattern(1 * MiB, 5);
  const auto t0 = Clock::now();
  st.s.spawn(localfs_real_writes(&st.fs, chunk, kN));
  st.s.run();
  return kN / seconds_since(t0);
}

sim::Task<void> transfers(csar::net::Fabric* fab, hw::NodeId a, hw::NodeId b, int n) {
  for (int i = 0; i < n; ++i) co_await fab->transfer(a, b, 16 * KiB);
}

double fabric_transfer_ns() {
  constexpr int kN = 20000;
  sim::Simulation s;
  hw::Cluster cl(s, hw::profile_experimental2003());
  const hw::NodeId a = cl.add_client();
  const hw::NodeId b = cl.add_server();
  csar::net::Fabric fab(cl);
  const auto t0 = Clock::now();
  s.spawn(transfers(&fab, a, b, kN));
  s.run();
  return seconds_since(t0) * 1e9 / kN;
}

// --- pvfs / raid: probes on a full rig ---

/// Host seconds to run `t` to completion on the rig; NaN if it deadlocks.
double timed(raid::Rig& rig, sim::Task<void> t) {
  const auto t0 = Clock::now();
  return run_sim(rig, std::move(t)) ? seconds_since(t0)
                                    : std::numeric_limits<double>::quiet_NaN();
}

raid::RigParams probe_rig(std::uint32_t nservers, raid::Scheme scheme) {
  raid::RigParams rp;
  rp.nservers = nservers;
  rp.scheme = scheme;
  return rp;
}

sim::Task<void> create_and_fill(raid::Rig* rig, std::uint32_t su, Buffer fill,
                                pvfs::OpenFile* out) {
  auto f = co_await rig->client_fs().create("probe", rig->layout(su));
  if (!f.ok()) co_return;
  *out = *f;
  auto w = co_await rig->client_fs().write(*f, 0, std::move(fill));
  (void)w;
}

sim::Task<void> rpc_reads(raid::Rig* rig, pvfs::OpenFile f, int n) {
  for (int i = 0; i < n; ++i) {
    pvfs::Request r;
    r.op = pvfs::Op::read_data;
    r.handle = f.handle;
    r.off = 0;
    r.len = 16 * KiB;
    r.su = f.layout.stripe_unit;
    g_sink = (co_await rig->client().rpc(0, std::move(r))).data.size();
  }
}

sim::Task<void> creates(raid::Rig* rig, int base, int n) {
  for (int i = 0; i < n; ++i) {
    auto f = co_await rig->client().create("m" + std::to_string(base + i),
                                           rig->layout(64 * KiB));
    g_sink = f.ok();
  }
}

/// Nanoseconds per Client::rpc (16 KiB read_data against one IoServer) and
/// per metadata create, on a two-server RAID0 rig.
void pvfs_probes(LayerMetrics& out) {
  raid::Rig rig(probe_rig(2, raid::Scheme::raid0));
  pvfs::OpenFile f;
  timed(rig, create_and_fill(&rig, 64 * KiB, Buffer::phantom(128 * KiB), &f));
  constexpr int kRpcs = 4000, kCreates = 1000;
  out["pvfs.rpc_round_trip_ns"] =
      median_of([&] { return timed(rig, rpc_reads(&rig, f, kRpcs)) * 1e9 / kRpcs; });
  int base = 0;
  out["pvfs.meta_create_ns"] = median_of([&] {
    base += kCreates;
    return timed(rig, creates(&rig, base, kCreates)) * 1e9 / kCreates;
  });
}

enum class Shape { phantom_aligned, real_unaligned, real_full };

sim::Task<void> raid_writes(raid::Rig* rig, pvfs::OpenFile f, Buffer data,
                            std::uint64_t extent, Shape shape, Rng* rng, int n) {
  for (int i = 0; i < n; ++i) {
    std::uint64_t off;
    if (shape == Shape::real_unaligned) {
      off = rng->below(extent - data.size());
    } else {
      off = rng->below(extent / data.size()) * data.size();
    }
    g_sink = (co_await rig->client_fs().write(f, off, data)).ok();
  }
}

/// Nanoseconds per CsarFs::write of `req` bytes on a file of `extent`
/// bytes, prefilled, under `scheme` with `nservers` servers.
double raid_write_ns(std::uint32_t nservers, raid::Scheme scheme, std::uint32_t su,
                     std::uint64_t extent, std::uint64_t req, Shape shape, int n) {
  raid::Rig rig(probe_rig(nservers, scheme));
  const bool real = shape != Shape::phantom_aligned;
  pvfs::OpenFile f;
  timed(rig, create_and_fill(&rig, su,
                             real ? Buffer::pattern(extent, 11) : Buffer::phantom(extent),
                             &f));
  const Buffer data = real ? Buffer::pattern(req, 12) : Buffer::phantom(req);
  Rng rng(13);
  return median_of([&] {
    return timed(rig, raid_writes(&rig, f, data, extent, shape, &rng, n)) * 1e9 / n;
  });
}

sim::Task<void> resilient_reads(raid::Rig* rig, pvfs::OpenFile f, std::uint64_t extent,
                                Rng* rng, int n) {
  for (int i = 0; i < n; ++i) {
    const std::uint64_t off = rng->below(extent - 16 * KiB);
    g_sink = (co_await rig->client_fs().read_resilient(f, off, 16 * KiB)).ok();
  }
}

/// Nanoseconds per CsarFs::read_resilient of 16 KiB on an rs(4,2) file with
/// one of its six servers failed.
double rs_degraded_read_ns() {
  constexpr std::uint64_t kExtent = 8 * MiB;
  constexpr int kN = 300;
  raid::Rig rig(probe_rig(6, raid::Scheme::rs(4, 2)));
  pvfs::OpenFile f;
  timed(rig, create_and_fill(&rig, 64 * KiB, Buffer::pattern(kExtent, 21), &f));
  rig.server(1).fail();
  Rng rng(22);
  return median_of([&] {
    return timed(rig, resilient_reads(&rig, f, kExtent, &rng, kN)) * 1e9 / kN;
  });
}

}  // namespace

void run_probes(LayerMetrics& out) {
  out["sim.sleep_event_ns"] = median_of(sleep_event_ns);
  out["sim.channel_hop_ns"] = median_of(channel_hop_ns);
  out["common.buffer_slice_ns"] = median_of(buffer_slice_ns);
  out["common.interval_map_insert_ns"] = median_of(interval_map_insert_ns);
  out["common.xor_gbps"] = median_of([] {
    return region_gbps([](std::span<std::byte> d, std::span<const std::byte> s) {
      csar::xor_words(d, s);
    });
  });
  out["common.gf_muladd_gbps"] = median_of([] {
    return region_gbps([](std::span<std::byte> d, std::span<const std::byte> s) {
      csar::gf_muladd_region(d, s, 0x53);
    });
  });
  out["hw.page_cache_write_ns"] = median_of([] { return page_cache_ns(true); });
  out["hw.page_cache_read_hit_ns"] = median_of([] { return page_cache_ns(false); });
  out["localfs.write_ns"] = median_of([] { return localfs_ns(true); });
  out["localfs.read_ns"] = median_of([] { return localfs_ns(false); });
  out["localfs.write_real_mib_s"] = median_of(localfs_write_real_mib_s);
  out["net.transfer_ns"] = median_of(fabric_transfer_ns);
  pvfs_probes(out);
  out["raid.write_ns.hybrid_16k"] = raid_write_ns(
      8, raid::Scheme::hybrid, 64 * KiB, 1 * MiB, 16 * KiB, Shape::phantom_aligned, 1000);
  out["raid.write_ns.raid5_16k"] = raid_write_ns(
      6, raid::Scheme::raid5, 64 * KiB, 8 * MiB, 16 * KiB, Shape::real_unaligned, 300);
  out["raid.write_ns.rs42_16k"] = raid_write_ns(
      6, raid::Scheme::rs(4, 2), 64 * KiB, 8 * MiB, 16 * KiB, Shape::real_unaligned, 300);
  out["raid.write_ns.rs42_full"] = raid_write_ns(
      6, raid::Scheme::rs(4, 2), 16 * KiB, 16 * 1920 * KiB, 1920 * KiB, Shape::real_full, 20);
  out["raid.degraded_read_ns.rs42"] = rs_degraded_read_ns();
}

}  // namespace perfbench
