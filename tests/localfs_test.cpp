#include "localfs/local_fs.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hw/disk.hpp"
#include "hw/page_cache.hpp"
#include "sim/simulation.hpp"

namespace csar::localfs {
namespace {

struct Fixture {
  sim::Simulation sim;
  hw::Disk disk;
  sim::BandwidthServer mem;
  hw::PageCache cache;
  LocalFs fs;

  explicit Fixture(LocalFsParams p = {}, std::uint64_t cache_bytes = 8 << 20)
      : disk(sim, disk_params()),
        mem(sim, 1e12),
        cache(sim, disk, mem, cache_params(cache_bytes)),
        fs(sim, cache, p) {}

  static hw::DiskParams disk_params() {
    hw::DiskParams d;
    d.bytes_per_sec = 50e6;
    d.seek = sim::ms(8);
    d.per_op = 0;
    return d;
  }
  static hw::CacheParams cache_params(std::uint64_t bytes) {
    hw::CacheParams c;
    c.capacity_bytes = bytes;
    c.page_size = 4096;
    return c;
  }

  void run(sim::Task<void> t) {
    bool done = false;
    sim.spawn([](sim::Task<void> task, bool* d) -> sim::Task<void> {
      co_await std::move(task);
      *d = true;
    }(std::move(t), &done));
    sim.run();
    ASSERT_TRUE(done);
  }
};

TEST(LocalFs, WriteReadRoundTrip) {
  Fixture f;
  f.run([](LocalFs& fs) -> sim::Task<void> {
    Buffer data = Buffer::pattern(10000, 1);
    co_await fs.write("a", 0, data.slice(0, 10000));
    Buffer got = co_await fs.read("a", 0, 10000);
    EXPECT_EQ(got, data);
  }(f.fs));
}

TEST(LocalFs, HolesReadAsZeros) {
  Fixture f;
  f.run([](LocalFs& fs) -> sim::Task<void> {
    co_await fs.write("a", 8192, Buffer::pattern(100, 2));
    Buffer got = co_await fs.read("a", 0, 100);
    EXPECT_EQ(got, Buffer::real(100));  // zeros
  }(f.fs));
}

TEST(LocalFs, AbsentFileReadsZeros) {
  Fixture f;
  f.run([](LocalFs& fs) -> sim::Task<void> {
    Buffer got = co_await fs.read("nope", 0, 64);
    EXPECT_EQ(got, Buffer::real(64));
  }(f.fs));
}

TEST(LocalFs, OverwriteLatestWins) {
  Fixture f;
  f.run([](LocalFs& fs) -> sim::Task<void> {
    co_await fs.write("a", 0, Buffer::pattern(1000, 1));
    Buffer newer = Buffer::pattern(400, 2);
    co_await fs.write("a", 300, newer.slice(0, 400));
    Buffer got = co_await fs.read("a", 300, 400);
    EXPECT_EQ(got, newer);
    // Edges keep old content.
    Buffer head = co_await fs.read("a", 0, 300);
    EXPECT_EQ(head, Buffer::pattern(1000, 1).slice(0, 300));
  }(f.fs));
}

TEST(LocalFs, SizeTracksUpperBound) {
  Fixture f;
  f.run([](LocalFs& fs) -> sim::Task<void> {
    EXPECT_EQ(fs.size("a"), 0u);
    co_await fs.write("a", 1000, Buffer::pattern(500, 1));
    EXPECT_EQ(fs.size("a"), 1500u);
    co_await fs.write("a", 100, Buffer::pattern(50, 2));
    EXPECT_EQ(fs.size("a"), 1500u);
  }(f.fs));
}

TEST(LocalFs, StreamWithoutBufferingPrereadsOnOverwrite) {
  // §5.2: overwriting an uncached preexisting file with chunk-granular
  // writes forces nearly one pre-read per block.
  LocalFsParams p;
  p.write_buffering = false;
  Fixture f(p);
  f.run([](Fixture& fx) -> sim::Task<void> {
    const std::uint64_t len = 64 * 4096;
    co_await fx.fs.write_stream("a", 0, Buffer::pattern(len, 1), 8800);
    const auto fresh_prereads = fx.cache.stats().prereads;
    EXPECT_EQ(fresh_prereads, 0u);  // new file: nothing to pre-read
    co_await fx.fs.flush();
    fx.fs.drop_caches();
    co_await fx.fs.write_stream("a", 0, Buffer::pattern(len, 2), 8800);
    // Unaligned 8800-byte chunks straddle a 4K block boundary roughly once
    // per chunk: ~64*4096/8800 = 29 pre-reads for this request.
    EXPECT_GT(fx.cache.stats().prereads, 20u);
  }(f));
}

TEST(LocalFs, StreamWithBufferingAvoidsInteriorPrereads) {
  LocalFsParams p;
  p.write_buffering = true;
  p.write_buffer_bytes = 64 * 1024;
  Fixture f(p);
  f.run([](Fixture& fx) -> sim::Task<void> {
    const std::uint64_t len = 64 * 4096;
    co_await fx.fs.write_stream("a", 0, Buffer::pattern(len, 1), 8800);
    co_await fx.fs.flush();
    fx.fs.drop_caches();
    co_await fx.fs.write_stream("a", 0, Buffer::pattern(len, 2), 8800);
    // Aligned request: buffering eliminates every pre-read.
    EXPECT_EQ(fx.cache.stats().prereads, 0u);
  }(f));
}

TEST(LocalFs, BufferedUnalignedRequestPrereadsOnlyEdges) {
  LocalFsParams p;
  p.write_buffering = true;
  Fixture f(p);
  f.run([](Fixture& fx) -> sim::Task<void> {
    const std::uint64_t len = 64 * 4096;
    co_await fx.fs.write_stream("a", 0, Buffer::pattern(len, 1), 8800);
    co_await fx.fs.flush();
    fx.fs.drop_caches();
    // Unaligned overwrite: only the first and last blocks are partial.
    co_await fx.fs.write_stream("a", 100, Buffer::pattern(len - 4096, 2),
                                8800);
    EXPECT_LE(fx.cache.stats().prereads, 2u);
    EXPECT_GT(fx.cache.stats().prereads, 0u);
  }(f));
}

TEST(LocalFs, PadPartialBlocksSuppressesAllPrereads) {
  LocalFsParams p;
  p.write_buffering = true;
  p.pad_partial_blocks = true;
  Fixture f(p);
  f.run([](Fixture& fx) -> sim::Task<void> {
    const std::uint64_t len = 64 * 4096;
    co_await fx.fs.write_stream("a", 0, Buffer::pattern(len, 1), 8800);
    co_await fx.fs.flush();
    fx.fs.drop_caches();
    co_await fx.fs.write_stream("a", 100, Buffer::pattern(len - 4096, 2),
                                8800);
    EXPECT_EQ(fx.cache.stats().prereads, 0u);
  }(f));
}

TEST(LocalFs, StreamContentIdenticalWithAndWithoutBuffering) {
  // Buffering changes timing, never content.
  for (bool buffering : {false, true}) {
    LocalFsParams p;
    p.write_buffering = buffering;
    Fixture f(p);
    f.run([](LocalFs& fs) -> sim::Task<void> {
      Buffer data = Buffer::pattern(100000, 7);
      co_await fs.write_stream("a", 1234, data.slice(0, 100000), 8800);
      Buffer got = co_await fs.read("a", 1234, 100000);
      EXPECT_EQ(got, data);
    }(f.fs));
  }
}

TEST(LocalFs, WipeRemovesEverything) {
  Fixture f;
  f.run([](Fixture& fx) -> sim::Task<void> {
    co_await fx.fs.write("a", 0, Buffer::pattern(1000, 1));
    co_await fx.fs.write("b", 0, Buffer::pattern(1000, 2));
    fx.fs.wipe();
    EXPECT_FALSE(fx.fs.exists("a"));
    EXPECT_EQ(fx.fs.total_content_bytes(), 0u);
    Buffer got = co_await fx.fs.read("a", 0, 100);
    EXPECT_EQ(got, Buffer::real(100));
  }(f));
}

TEST(LocalFs, TotalContentBytes) {
  Fixture f;
  f.run([](LocalFs& fs) -> sim::Task<void> {
    co_await fs.write("a", 0, Buffer::pattern(1000, 1));
    co_await fs.write("b", 500, Buffer::pattern(1000, 2));
    EXPECT_EQ(fs.total_content_bytes(), 1000u + 1500u);
  }(f.fs));
}

TEST(LocalFs, PhantomWritesTrackSizesOnly) {
  Fixture f;
  f.run([](LocalFs& fs) -> sim::Task<void> {
    co_await fs.write("a", 0, Buffer::phantom(1 << 20));
    EXPECT_EQ(fs.size("a"), 1u << 20);
    Buffer got = co_await fs.read("a", 0, 4096);
    EXPECT_FALSE(got.materialized());
    EXPECT_EQ(got.size(), 4096u);
  }(f.fs));
}

TEST(LocalFs, RandomizedContentProperty) {
  // Arbitrary interleavings of write/write_stream must equal a flat
  // reference model byte-for-byte.
  Fixture f;
  f.run([](LocalFs& fs) -> sim::Task<void> {
    Rng rng(2003);
    constexpr std::uint64_t kSpan = 200000;
    std::vector<std::byte> ref(kSpan, std::byte{0});
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t off = rng.below(kSpan - 1);
      const std::uint64_t len = 1 + rng.below(std::min<std::uint64_t>(
                                        kSpan - off - 1, 30000));
      Buffer data = Buffer::pattern(len, rng.next());
      auto src = data.bytes();
      std::copy(src.begin(), src.end(),
                ref.begin() + static_cast<std::ptrdiff_t>(off));
      if (rng.chance(0.5)) {
        co_await fs.write("f", off, std::move(data));
      } else {
        co_await fs.write_stream("f", off, std::move(data), 8800);
      }
    }
    Buffer got = co_await fs.read("f", 0, kSpan);
    Buffer expect = Buffer::from_bytes(std::move(ref));
    EXPECT_EQ(got, expect);
  }(f.fs));
}

// Lifetime rule: an operation parked on the page cache keeps its file, and
// remove()/wipe() only unlink it. Under ASan (with CSAR_SIM_SLAB=OFF) an
// operation that dereferenced a removed file would be a heap-use-after-free.

TEST(LocalFs, WriteStreamRacingRemoveLandsInUnlinkedFile) {
  Fixture f;
  f.run([](Fixture& fx) -> sim::Task<void> {
    const std::string name = "a";
    // The write parks on the page cache at once; the removal lands while
    // it is parked, in the same simulated instant.
    auto writer = fx.sim.spawn(
        fx.fs.write_stream(name, 0, Buffer::pattern(64 * 1024, 1), 8800));
    fx.fs.remove(name);
    co_await writer.join();
    EXPECT_FALSE(fx.fs.exists(name));
    EXPECT_EQ(fx.fs.total_content_bytes(), 0u);
    const Buffer got = co_await fx.fs.read(name, 0, 4096);
    EXPECT_EQ(got, Buffer::real(4096));
  }(f));
}

sim::Task<void> read_into(LocalFs& fs, std::string name, Buffer* out) {
  *out = (co_await fs.read_checked(name, 0, 20000)).data;
}

TEST(LocalFs, ReadCheckedRacingRemoveFinishesOnItsContent) {
  Fixture f;
  f.run([](Fixture& fx) -> sim::Task<void> {
    co_await fx.fs.write("a", 0, Buffer::pattern(20000, 3));
    Buffer got;
    auto reader = fx.sim.spawn(read_into(fx.fs, "a", &got));
    fx.fs.remove("a");
    co_await reader.join();
    EXPECT_EQ(got, Buffer::pattern(20000, 3));
    EXPECT_FALSE(fx.fs.exists("a"));
  }(f));
}

TEST(LocalFs, ReadCheckedRacingWipeFinishesOnItsContent) {
  Fixture f;
  f.run([](Fixture& fx) -> sim::Task<void> {
    co_await fx.fs.write("a", 0, Buffer::pattern(20000, 4));
    co_await fx.fs.flush();
    fx.fs.drop_caches();  // cold: the read parks on the disk
    Buffer got;
    auto reader = fx.sim.spawn(read_into(fx.fs, "a", &got));
    fx.fs.wipe();
    co_await reader.join();
    EXPECT_EQ(got, Buffer::pattern(20000, 4));
    EXPECT_EQ(fx.fs.total_content_bytes(), 0u);
  }(f));
}

TEST(LocalFs, RecreatedFileIsFresh) {
  // A reference taken before remove() keeps the old file; the name then
  // resolves to a new, empty file with a new page-cache id.
  Fixture f;
  f.run([](Fixture& fx) -> sim::Task<void> {
    co_await fx.fs.write("a", 0, Buffer::pattern(8192, 5));
    LocalFs::FileRef old = fx.fs.lookup("a");
    const std::uint64_t old_fid = fx.fs.fid_of("a");
    fx.fs.remove("a");
    EXPECT_FALSE(old->linked);
    EXPECT_EQ(fx.fs.lookup("a"), nullptr);
    co_await fx.fs.write("a", 0, Buffer::pattern(100, 6));
    EXPECT_NE(fx.fs.fid_of("a"), old_fid);
    EXPECT_EQ(fx.fs.size("a"), 100u);
    EXPECT_EQ(old->content.upper_bound(), 8192u);
    const auto kept = co_await fx.fs.read_checked(old, 0, 8192);
    EXPECT_EQ(kept.data, Buffer::pattern(8192, 5));
  }(f));
}

}  // namespace
}  // namespace csar::localfs
