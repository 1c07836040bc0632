#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "hw/disk.hpp"
#include "hw/node.hpp"
#include "hw/page_cache.hpp"
#include "sim/simulation.hpp"
#include "sim/slab.hpp"

namespace csar::hw {
namespace {

TEST(Disk, SequentialAccessSkipsSeek) {
  sim::Simulation sim;
  DiskParams p;
  p.bytes_per_sec = 100e6;
  p.seek = sim::ms(10);
  p.per_op = 0;
  Disk disk(sim, p);
  sim.spawn([](Disk& d) -> sim::Task<void> {
    co_await d.write(0, 1'000'000);        // seek + 10ms transfer
    co_await d.write(1'000'000, 1'000'000);  // sequential: 10ms only
  }(disk));
  sim.run();
  EXPECT_EQ(sim.now(), sim::ms(10) + sim::ms(10) + sim::ms(10));
  EXPECT_EQ(disk.stats().seeks, 1u);
  EXPECT_EQ(disk.stats().writes, 2u);
  EXPECT_EQ(disk.stats().bytes_written, 2'000'000u);
}

TEST(Disk, RandomAccessSeeksEveryTime) {
  sim::Simulation sim;
  DiskParams p;
  p.bytes_per_sec = 100e6;
  p.seek = sim::ms(10);
  p.per_op = 0;
  Disk disk(sim, p);
  sim.spawn([](Disk& d) -> sim::Task<void> {
    co_await d.read(0, 4096);
    co_await d.read(1'000'000, 4096);
    co_await d.read(0, 4096);
  }(disk));
  sim.run();
  EXPECT_EQ(disk.stats().seeks, 3u);
}

TEST(Disk, ConcurrentRequestsSerializeFifo) {
  sim::Simulation sim;
  DiskParams p;
  p.bytes_per_sec = 100e6;
  p.seek = 0;
  p.per_op = 0;
  Disk disk(sim, p);
  std::vector<sim::Time> done;
  auto io = [](Disk& d, std::vector<sim::Time>& v,
               sim::Simulation& s) -> sim::Task<void> {
    co_await d.write(0, 1'000'000);  // 10 ms each (no seek from 0? -> first
                                     // seeks cost 0 here)
    v.push_back(s.now());
  };
  sim.spawn(io(disk, done, sim));
  sim.spawn(io(disk, done, sim));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], sim::ms(10));
  EXPECT_EQ(done[1], sim::ms(20));
}

TEST(Disk, ServiceFactorRoundTripAndSlowBusyTime) {
  sim::Simulation sim;
  DiskParams p;
  p.bytes_per_sec = 100e6;
  p.seek = sim::ms(10);
  p.per_op = 0;
  Disk disk(sim, p);
  // Round-trip: the setter stores exactly, clamping negatives to 0.
  EXPECT_EQ(disk.service_factor(), 1.0);
  disk.set_service_factor(3.5);
  EXPECT_EQ(disk.service_factor(), 3.5);
  disk.set_service_factor(-2.0);
  EXPECT_EQ(disk.service_factor(), 0.0);
  disk.set_service_factor(1.0);
  EXPECT_EQ(disk.service_factor(), 1.0);

  sim.spawn([](Disk& d) -> sim::Task<void> {
    co_await d.write(0, 1'000'000);  // seek 10ms + 10ms transfer, healthy
    d.set_service_factor(2.0);
    co_await d.write(1'000'000, 1'000'000);  // sequential 10ms -> 20ms
    d.set_service_factor(1.0);
    co_await d.write(2'000'000, 1'000'000);  // healthy again
  }(disk));
  sim.run();
  const auto st = disk.stats();
  EXPECT_EQ(st.busy_time, sim::ms(20) + sim::ms(20) + sim::ms(10));
  // Only the inflated op's actual-minus-nominal share is attributed: a
  // loaded healthy disk keeps slow_busy_time at zero.
  EXPECT_EQ(st.slow_busy_time, sim::ms(10));
}

TEST(Aging, BathtubClassBoundaries) {
  AgingParams a;  // defaults: infancy ends 0.5y, wearout begins 4.0y
  a.age_years = 0.0;
  EXPECT_EQ(a.afr_class(0.0), AfrClass::infancy);
  EXPECT_EQ(a.afr_class(0.49), AfrClass::infancy);
  EXPECT_EQ(a.afr_class(0.5), AfrClass::useful_life);
  EXPECT_EQ(a.afr_class(3.99), AfrClass::useful_life);
  EXPECT_EQ(a.afr_class(4.0), AfrClass::wearout);
  EXPECT_EQ(a.afr(0.0), a.afr_infancy);
  EXPECT_EQ(a.afr(1.0), a.afr_useful);
  EXPECT_EQ(a.afr(5.0), a.afr_wearout);
  EXPECT_DOUBLE_EQ(a.years_to_next_class(0.1), 0.4);
  EXPECT_DOUBLE_EQ(a.years_to_next_class(1.0), 3.0);
  EXPECT_GT(a.years_to_next_class(5.0), 1e8);  // terminal segment
  // A disk that starts mid-life skips infancy entirely.
  a.age_years = 2.0;
  EXPECT_EQ(a.afr_class(0.0), AfrClass::useful_life);
  EXPECT_EQ(a.afr_class(2.0), AfrClass::wearout);
}

TEST(Aging, ProfileDeterministicPerSeedAndIndex) {
  const AgingParams a = aging_profile(42, 7, 2.0);
  const AgingParams b = aging_profile(42, 7, 2.0);
  EXPECT_EQ(a.age_years, b.age_years);
  EXPECT_EQ(a.infancy_years, b.infancy_years);
  EXPECT_EQ(a.wearout_years, b.wearout_years);
  EXPECT_EQ(a.afr_infancy, b.afr_infancy);
  EXPECT_EQ(a.afr_useful, b.afr_useful);
  EXPECT_EQ(a.afr_wearout, b.afr_wearout);
  // Different disks from the same seed are heterogeneous.
  const AgingParams c = aging_profile(42, 8, 2.0);
  EXPECT_NE(a.afr_useful, c.afr_useful);
  // Sanity: jitter keeps the curve well-formed and age non-negative.
  EXPECT_GE(a.age_years, 0.0);
  EXPECT_GT(a.wearout_years, a.infancy_years);
  EXPECT_GT(a.afr_infancy, 0.0);
  EXPECT_GT(a.afr_wearout, a.afr_useful);
  // A zero batch age never jitters negative (clamped).
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_GE(aging_profile(42, i, 0.0).age_years, 0.0) << i;
  }
}

struct CacheFixture {
  sim::Simulation sim;
  Disk disk;
  sim::BandwidthServer mem;
  PageCache cache;

  explicit CacheFixture(CacheParams cp, DiskParams dp = fast_disk())
      : disk(sim, dp), mem(sim, 1e12), cache(sim, disk, mem, cp) {}

  static DiskParams fast_disk() {
    DiskParams p;
    p.bytes_per_sec = 100e6;
    p.seek = sim::ms(10);
    p.per_op = 0;
    return p;
  }
};

TEST(PageCache, WriteMissThenReadHit) {
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 4096, PageCache::dense(0));  // new content: no pre-read
    co_await fx.cache.read(1, 0, 4096, PageCache::dense(4096));  // hit
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.stats().prereads, 0u);
  EXPECT_EQ(f.cache.stats().hits, 1u);
  EXPECT_EQ(f.disk.stats().reads, 0u);
}

TEST(PageCache, PartialWriteToUncachedPreexistingPagePrereads) {
  // The §5.2 behaviour: sub-page write + old content on disk + cold cache
  // => read-modify-write.
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 8192, PageCache::dense(0));  // create two pages
    co_await fx.cache.flush_all();
    fx.cache.drop_all();                     // cold cache
    co_await fx.cache.write(1, 100, 200, PageCache::dense(8192));  // partial, preexisting
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.stats().prereads, 1u);
  EXPECT_EQ(f.disk.stats().reads, 1u);
}

TEST(PageCache, FullPageWriteNeverPrereads) {
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 4096, PageCache::dense(0));
    co_await fx.cache.flush_all();
    fx.cache.drop_all();
    co_await fx.cache.write(1, 0, 4096, PageCache::dense(4096));  // full overwrite
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.stats().prereads, 0u);
}

TEST(PageCache, PadPartialSuppressesPreread) {
  // §6.5 padding experiment: treating partial writes as full blocks removes
  // the pre-read.
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 8192, PageCache::dense(0));
    co_await fx.cache.flush_all();
    fx.cache.drop_all();
    co_await fx.cache.write(1, 100, 200, PageCache::dense(8192), /*pad_partial=*/true);
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.stats().prereads, 0u);
}

TEST(PageCache, HoleWritesNeedNoPreread) {
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    // Partial write far beyond existing content: page is a hole.
    co_await fx.cache.write(1, 1 << 20, 100, PageCache::dense(4096));
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.stats().prereads, 0u);
}

TEST(PageCache, EvictionWritesDirtyPages) {
  CacheParams cp;
  cp.capacity_bytes = 16 * 4096;  // 16 pages
  cp.page_size = 4096;
  cp.evict_batch = 4;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 64 * 4096, PageCache::dense(0));  // 4x capacity
  }(f));
  f.sim.run();
  EXPECT_GT(f.cache.stats().dirty_evictions, 0u);
  EXPECT_GT(f.disk.stats().bytes_written, 0u);
  EXPECT_LE(f.cache.resident_bytes(), 16u * 4096);
}

TEST(PageCache, CacheAbsorbsUntilFullThenDiskBound) {
  // Below capacity the disk is untouched (write-behind absorbs); beyond it
  // the writer stalls on evictions — the Class C effect.
  CacheParams cp;
  cp.capacity_bytes = 256 * 4096;
  cp.page_size = 4096;
  CacheFixture small(cp);
  small.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 128 * 4096, PageCache::dense(0));  // half capacity
  }(small));
  small.sim.run();
  EXPECT_EQ(small.disk.stats().writes, 0u);
  const sim::Time t_small = small.sim.now();

  CacheFixture big(cp);
  big.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 1024 * 4096, PageCache::dense(0));  // 4x capacity
  }(big));
  big.sim.run();
  EXPECT_GT(big.disk.stats().writes, 0u);
  // 8x the data but much more than 8x the time (disk-bound region).
  EXPECT_GT(big.sim.now(), 8 * t_small);
}

TEST(PageCache, FlushAllCleansEverything) {
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 32 * 4096, PageCache::dense(0));
    co_await fx.cache.flush_all();
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.dirty_pages(), 0u);
  EXPECT_EQ(f.disk.stats().bytes_written, 32u * 4096);
  // Sequential flush: one coalesced write.
  EXPECT_EQ(f.disk.stats().writes, 1u);
}

TEST(PageCache, ReadMissBatchesContiguousRuns) {
  CacheParams cp;
  cp.capacity_bytes = 1 << 22;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 64 * 4096, PageCache::dense(0));
    co_await fx.cache.flush_all();
    fx.cache.drop_all();
    co_await fx.cache.read(1, 0, 64 * 4096, PageCache::dense(64 * 4096));
  }(f));
  f.sim.run();
  EXPECT_EQ(f.disk.stats().reads, 1u);  // one coalesced disk read
  // The 64 write-path insertions read nothing: only the 64 read-path
  // misses after the drop count as misses.
  EXPECT_EQ(f.cache.stats().write_allocs, 64u);
  EXPECT_EQ(f.cache.stats().misses, 64u);
}

// ---------------------------------------------------------------------------
// PageCache against a reference model.

/// A plain restatement of PageCache's policy: std::map residency, a
/// std::list LRU, the same miss-run batching, pre-read and batched
/// address-sorted write-back rules, plus a model of the Disk (head position,
/// counters, latent bad pages). Each operation predicts the cache's stats,
/// read status and every disk I/O it issues, so a slot-index bug in the
/// flat page index shows up as a divergence.
class CacheModel {
 public:
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (fid, page)

  explicit CacheModel(const CacheParams& p) : p_(p) {}

  IoStatus read(std::uint64_t fid, std::uint64_t off, std::uint64_t len,
                const PageCache::ContentPred& has_content) {
    if (len == 0) return IoStatus::ok;
    const std::uint64_t ps = p_.page_size;
    IoStatus status = IoStatus::ok;
    std::uint64_t run_start = 0;
    std::uint64_t run_len = 0;
    auto flush_run = [&] {
      ++stats.miss_runs;
      if (!disk_read(PageCache::page_addr(fid, run_start, ps),
                     run_len * ps)) {
        status = IoStatus::media_error;
        run_len = 0;
        return;
      }
      for (std::uint64_t k = 0; k < run_len; ++k) {
        insert({fid, run_start + k}, /*dirty=*/false);
      }
      run_len = 0;
      ensure_room();
    };
    for (std::uint64_t pg = off / ps; pg <= (off + len - 1) / ps; ++pg) {
      const bool is_hole = !has_content(pg * ps, (pg + 1) * ps);
      if (is_hole || pages_.contains({fid, pg})) {
        if (!is_hole) {
          ++stats.hits;
          insert({fid, pg}, /*dirty=*/false);  // LRU touch only
        }
        if (run_len != 0) flush_run();
        continue;
      }
      ++stats.misses;
      if (run_len == 0) run_start = pg;
      ++run_len;
    }
    if (run_len != 0) flush_run();
    return status;
  }

  void write(std::uint64_t fid, std::uint64_t off, std::uint64_t len,
             const PageCache::ContentPred& has_content, bool pad_partial) {
    if (len == 0) return;
    const std::uint64_t ps = p_.page_size;
    for (std::uint64_t pg = off / ps; pg <= (off + len - 1) / ps; ++pg) {
      const bool full =
          pad_partial || (off <= pg * ps && off + len >= (pg + 1) * ps);
      if (pages_.contains({fid, pg})) {
        ++stats.hits;
        insert({fid, pg}, /*dirty=*/true);
        continue;
      }
      if (!full && has_content(pg * ps, (pg + 1) * ps)) {
        ++stats.prereads;
        (void)disk_read(PageCache::page_addr(fid, pg, ps), ps);
      } else {
        ++stats.write_allocs;
      }
      insert({fid, pg}, /*dirty=*/true);
      ensure_room();
    }
  }

  void flush_all() {
    std::vector<std::uint64_t> addrs;
    for (auto& [key, dirty] : pages_) {
      if (dirty) addrs.push_back(PageCache::page_addr(key.first, key.second,
                                                      p_.page_size));
      dirty = false;
    }
    write_back(std::move(addrs));
  }

  void drop_all() {
    pages_.clear();
    lru_.clear();
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> dirty_ranges(
      std::uint64_t fid) const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (const auto& [key, dirty] : pages_) {  // map order: sorted by page
      if (key.first != fid || !dirty) continue;
      const std::uint64_t lo = key.second * p_.page_size;
      if (!out.empty() && out.back().second == lo) {
        out.back().second = lo + p_.page_size;
      } else {
        out.emplace_back(lo, lo + p_.page_size);
      }
    }
    return out;
  }

  void plant_bad_page(std::uint64_t addr) { bad_.insert(addr); }

  std::uint64_t resident_bytes() const {
    return pages_.size() * p_.page_size;
  }
  std::uint64_t dirty_pages() const {
    return static_cast<std::uint64_t>(std::count_if(
        pages_.begin(), pages_.end(), [](const auto& e) { return e.second; }));
  }
  std::uint64_t bad_bytes() const { return bad_.size() * p_.page_size; }
  bool resident(std::uint64_t fid, std::uint64_t page) const {
    return pages_.contains(Key{fid, page});
  }

  PageCache::Stats stats;
  Disk::Stats disk;

 private:
  /// Insert or touch (fid, page) as most recently used.
  void insert(const Key& key, bool dirty) {
    auto [it, fresh] = pages_.try_emplace(key, dirty);
    if (!fresh) {
      it->second = it->second || dirty;
      lru_.remove(key);
    }
    lru_.push_back(key);
  }

  void ensure_room() {
    if (resident_bytes() <= p_.capacity_bytes) return;
    const std::uint64_t batch =
        static_cast<std::uint64_t>(p_.evict_batch) * p_.page_size;
    const std::uint64_t target =
        p_.capacity_bytes > batch ? p_.capacity_bytes - batch : 0;
    std::vector<std::uint64_t> addrs;
    while (resident_bytes() > target && !lru_.empty()) {
      const Key victim = lru_.front();
      lru_.pop_front();
      if (pages_.at(victim)) {
        addrs.push_back(
            PageCache::page_addr(victim.first, victim.second, p_.page_size));
        ++stats.dirty_evictions;
      } else {
        ++stats.clean_evictions;
      }
      pages_.erase(victim);
    }
    write_back(std::move(addrs));
  }

  /// Sorted, address-coalesced disk writes of whole pages.
  void write_back(std::vector<std::uint64_t> addrs) {
    std::sort(addrs.begin(), addrs.end());
    for (std::size_t i = 0; i < addrs.size();) {
      std::size_t j = i + 1;
      while (j < addrs.size() && addrs[j] == addrs[j - 1] + p_.page_size) ++j;
      const std::uint64_t len = (j - i) * p_.page_size;
      disk_io(addrs[i], len);
      ++disk.writes;
      disk.bytes_written += len;
      for (std::uint64_t a = addrs[i]; a < addrs[i] + len; a += p_.page_size) {
        bad_.erase(a);
      }
      i = j;
    }
  }

  /// False when the range covers a bad page.
  bool disk_read(std::uint64_t addr, std::uint64_t len) {
    disk_io(addr, len);
    ++disk.reads;
    disk.bytes_read += len;
    auto it = bad_.lower_bound(addr);
    if (it != bad_.end() && *it < addr + len) {
      ++disk.media_errors;
      return false;
    }
    return true;
  }

  void disk_io(std::uint64_t addr, std::uint64_t len) {
    if (addr != head_) ++disk.seeks;
    head_ = addr + len;
  }

  CacheParams p_;
  std::map<Key, bool> pages_;  // key -> dirty
  std::list<Key> lru_;         // front = least recently used
  std::set<std::uint64_t> bad_;
  std::uint64_t head_ = ~0ULL;
};

void expect_same_state(const CacheFixture& f, const CacheModel& m, int op) {
  const PageCache::Stats& s = f.cache.stats();
  EXPECT_EQ(s.hits, m.stats.hits) << "op " << op;
  EXPECT_EQ(s.misses, m.stats.misses) << "op " << op;
  EXPECT_EQ(s.write_allocs, m.stats.write_allocs) << "op " << op;
  EXPECT_EQ(s.miss_runs, m.stats.miss_runs) << "op " << op;
  EXPECT_EQ(s.prereads, m.stats.prereads) << "op " << op;
  EXPECT_EQ(s.dirty_evictions, m.stats.dirty_evictions) << "op " << op;
  EXPECT_EQ(s.clean_evictions, m.stats.clean_evictions) << "op " << op;
  EXPECT_EQ(f.cache.resident_bytes(), m.resident_bytes()) << "op " << op;
  EXPECT_EQ(f.cache.dirty_pages(), m.dirty_pages()) << "op " << op;
  const Disk::Stats d = f.disk.stats();
  EXPECT_EQ(d.reads, m.disk.reads) << "op " << op;
  EXPECT_EQ(d.writes, m.disk.writes) << "op " << op;
  EXPECT_EQ(d.bytes_read, m.disk.bytes_read) << "op " << op;
  EXPECT_EQ(d.bytes_written, m.disk.bytes_written) << "op " << op;
  EXPECT_EQ(d.seeks, m.disk.seeks) << "op " << op;
  EXPECT_EQ(d.media_errors, m.disk.media_errors) << "op " << op;
  // Every bad page a write-back covers is repaired, so the surviving bad
  // bytes pin the addresses written, not just their count.
  EXPECT_EQ(f.disk.bad_bytes(), m.bad_bytes()) << "op " << op;
}

/// Drive `ops` random reads, writes, flushes and drops over `keys` (pages
/// plus their neighbours) through both the cache and the model. Files 1, 2
/// and 3 have dense content, no content (all holes) and content below page
/// 2000 respectively; a quarter of the key pages start out bad on disk.
sim::Task<void> drive_equivalence(CacheFixture& f, CacheModel& m,
                                  const std::vector<CacheModel::Key>& keys,
                                  int ops, std::uint64_t seed) {
  const std::uint64_t ps = f.cache.params().page_size;
  const std::vector<PageCache::ContentPred> content = {
      PageCache::dense(0), PageCache::dense(~0ULL), PageCache::dense(0),
      PageCache::dense(2000 * ps)};
  Rng rng(seed);
  for (const auto& [fid, page] : keys) {
    if (rng.below(4) == 0) {
      f.disk.plant_media_error(PageCache::page_addr(fid, page, ps), ps);
      m.plant_bad_page(PageCache::page_addr(fid, page, ps));
    }
  }
  for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
    const auto [fid, page] = keys[rng.below(keys.size())];
    const std::uint64_t off = page * ps + (rng.chance(0.3) ? rng.below(ps) : 0);
    const std::uint64_t len = rng.chance(0.02)  ? 0
                              : rng.chance(0.5) ? ps
                                                : 1 + rng.below(3 * ps);
    const std::uint64_t dice = rng.below(100);
    if (dice < 45) {
      const bool pad = rng.chance(0.1);
      m.write(fid, off, len, content[fid], pad);
      co_await f.cache.write(fid, off, len, content[fid], pad);
    } else if (dice < 93) {
      const IoStatus want = m.read(fid, off, len, content[fid]);
      const IoStatus got = co_await f.cache.read(fid, off, len, content[fid]);
      EXPECT_EQ(got, want) << "op " << op;
    } else if (dice < 99) {
      m.flush_all();
      co_await f.cache.flush_all();
    } else {
      m.drop_all();
      f.cache.drop_all();
    }
    expect_same_state(f, m, op);
    if (op % 64 == 0 || op + 1 == ops) {
      for (std::uint64_t fl = 1; fl <= 3; ++fl) {
        EXPECT_EQ(f.cache.dirty_ranges(fl), m.dirty_ranges(fl))
            << "op " << op << " fid " << fl;
      }
    }
  }
}

void run_equivalence(const CacheParams& cp,
                     const std::vector<CacheModel::Key>& keys, int ops,
                     std::uint64_t seed) {
  CacheFixture f(cp);
  CacheModel m(cp);
  f.sim.spawn(drive_equivalence(f, m, keys, ops, seed));
  f.sim.run();
  EXPECT_EQ(f.sim.live_processes(), 0u);
}

TEST(PageCache, MatchesModelOnCollidingKeysUnderEvictionChurn) {
  // Keys whose home buckets are the last two and first two of the initial
  // 2048-bucket index (this mirrors the index's Fibonacci hash), so probe
  // chains wrap around the table end and every eviction back-shifts a
  // crowded chain. A hash change leaves the test valid, just less pointed.
  std::vector<CacheModel::Key> keys;
  std::map<std::uint64_t, int> per_bucket;
  for (std::uint64_t page = 0; keys.size() < 32; ++page) {
    for (std::uint64_t fid = 1; fid <= 3; ++fid) {
      const std::uint64_t bucket =
          ((fid << 32 ^ page) * 0x9E3779B97F4A7C15ULL) >> 53;
      if ((bucket >= 2046 || bucket <= 1) && per_bucket[bucket]++ < 8) {
        keys.emplace_back(fid, page);
      }
    }
  }
  CacheParams cp;
  cp.capacity_bytes = 8 * 4096;  // tiny: constant eviction
  cp.page_size = 4096;
  cp.evict_batch = 2;
  run_equivalence(cp, keys, 20000, 11);
}

TEST(PageCache, MatchesModelAcrossIndexGrowth) {
  // Up to 1500 resident pages: the index doubles past 1024 and runs near
  // its load limit, with natural collisions, batched evictions and drops.
  std::vector<CacheModel::Key> keys;
  for (std::uint64_t fid = 1; fid <= 3; ++fid) {
    for (std::uint64_t page = 0; page < 1000; ++page) {
      keys.emplace_back(fid, page * 3);
    }
  }
  CacheParams cp;
  cp.capacity_bytes = 1500 * 4096;
  cp.page_size = 4096;
  cp.evict_batch = 16;
  run_equivalence(cp, keys, 6000, 12);
}

/// Like drive_equivalence, but every op covers a run of up to 48
/// consecutive pages (often 8-page aligned, sometimes not) of one of three
/// files: the access shape of multi-page requests, whose pages a write
/// finds or inserts with one probe each.
sim::Task<void> drive_runs(CacheFixture& f, CacheModel& m, int ops,
                           std::uint64_t seed) {
  const std::uint64_t ps = f.cache.params().page_size;
  const std::vector<PageCache::ContentPred> content = {
      PageCache::dense(0), PageCache::dense(~0ULL), PageCache::dense(0),
      PageCache::dense(700 * ps)};
  Rng rng(seed);
  for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
    const std::uint64_t fid = 1 + rng.below(3);
    const std::uint64_t first = rng.chance(0.5) ? rng.below(160) * 8
                                                : rng.below(1280);
    const std::uint64_t off = first * ps + (rng.chance(0.2) ? rng.below(ps) : 0);
    const std::uint64_t len = (1 + rng.below(48)) * ps -
                              (rng.chance(0.2) ? rng.below(ps) : 0);
    const std::uint64_t dice = rng.below(100);
    if (dice < 50) {
      m.write(fid, off, len, content[fid], false);
      co_await f.cache.write(fid, off, len, content[fid]);
    } else if (dice < 97) {
      const IoStatus want = m.read(fid, off, len, content[fid]);
      const IoStatus got = co_await f.cache.read(fid, off, len, content[fid]);
      EXPECT_EQ(got, want) << "op " << op;
    } else if (dice < 99) {
      m.flush_all();
      co_await f.cache.flush_all();
    } else {
      m.drop_all();
      f.cache.drop_all();
    }
    expect_same_state(f, m, op);
    // Every page of the run must be findable exactly when the model holds
    // it (a page misplaced in the index would read as absent).
    for (std::uint64_t pg = off / ps; len > 0 && pg <= (off + len - 1) / ps;
         ++pg) {
      EXPECT_EQ(f.cache.resident(fid, pg), m.resident(fid, pg))
          << "op " << op << " page " << pg;
    }
    if (op % 32 == 0 || op + 1 == ops) {
      for (std::uint64_t fl = 1; fl <= 3; ++fl) {
        EXPECT_EQ(f.cache.dirty_ranges(fl), m.dirty_ranges(fl))
            << "op " << op << " fid " << fl;
      }
    }
  }
}

TEST(PageCache, MatchesModelOnConsecutiveRunsAcrossGrowthAndChurn) {
  // Up to 3000 resident pages: the index doubles twice past its initial
  // 2048 buckets (a write's probe must be redone after growth), while
  // batched evictions back-shift probe chains and drop_all empties the
  // table in place.
  CacheParams cp;
  cp.capacity_bytes = 3000 * 4096;
  cp.page_size = 4096;
  cp.evict_batch = 48;
  CacheFixture f(cp);
  CacheModel m(cp);
  f.sim.spawn(drive_runs(f, m, 4000, 14));
  f.sim.run();
  EXPECT_EQ(f.sim.live_processes(), 0u);
}

// Frame-count guards: steps that never suspend must not allocate coroutine
// frames (each costs a slab allocation and a resume on every request).
TEST(FrameGuard, CacheHitReadAllocatesOnlyItsOwnFrame) {
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  std::uint64_t allocs = 0;
  f.sim.spawn([](CacheFixture& fx, std::uint64_t& n) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 4 * 4096, PageCache::dense(0));
    const std::uint64_t before = sim::slab::stats().allocs;
    co_await fx.cache.read(1, 0, 4 * 4096, PageCache::dense(4 * 4096));
    n = sim::slab::stats().allocs - before;
  }(f, allocs));
  f.sim.run();
  EXPECT_EQ(f.cache.stats().hits, 4u);
  EXPECT_EQ(allocs, 1u);  // read()'s own frame; the memcpy charge has none
}

TEST(FrameGuard, BandwidthServerBookingAllocatesNoFrame) {
  sim::Simulation sim;
  sim::BandwidthServer link(sim, 1e9);
  std::uint64_t allocs = 0;
  sim.spawn([](sim::BandwidthServer& l, std::uint64_t& n) -> sim::Task<void> {
    const std::uint64_t before = sim::slab::stats().allocs;
    co_await l.transfer(1'000'000);
    co_await l.occupy(sim::ms(1));
    n = sim::slab::stats().allocs - before;
  }(link, allocs));
  sim.run();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sim.now(), sim::ms(2));
}

TEST(Node,ServerHasDiskAndCacheClientDoesNot) {
  sim::Simulation sim;
  Cluster cluster(sim, profile_experimental2003());
  const NodeId s = cluster.add_server();
  const NodeId c = cluster.add_client();
  EXPECT_NE(cluster.node(s).disk(), nullptr);
  EXPECT_NE(cluster.node(s).cache(), nullptr);
  EXPECT_EQ(cluster.node(c).disk(), nullptr);
  EXPECT_EQ(cluster.node(c).cache(), nullptr);
}

TEST(Profiles, SaneParameters) {
  const auto exp = profile_experimental2003();
  EXPECT_GT(exp.server.link_bytes_per_sec, 100e6);
  EXPECT_TRUE(exp.server.disk.has_value());
  EXPECT_GT(exp.server.cache->capacity_bytes, 100ull << 20);
  const auto osc = profile_osc2003();
  EXPECT_LT(osc.server.disk->bytes_per_sec, exp.server.disk->bytes_per_sec);
  EXPECT_GT(osc.server.cache->capacity_bytes,
            exp.server.cache->capacity_bytes);
}

}  // namespace
}  // namespace csar::hw
