// Stored content pins only the bytes it serves: a BufferMap residue that
// covers less than half of the backing it views is copied into its own
// backing, so overwritten payloads are freed (BufferSlicer,
// Buffer::shrink_to_fit). Releases are observed through this binary's own
// global operator new/delete, which track the bytes the heap holds live.
#include <malloc.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "common/buffer_map.hpp"
#include "common/codec.hpp"
#include "common/units.hpp"
#include "hw/disk.hpp"
#include "hw/page_cache.hpp"
#include "localfs/local_fs.hpp"
#include "sim/simulation.hpp"

#ifndef CSAR_OBS
#define CSAR_OBS 1
#endif

namespace {

std::int64_t g_live = 0;  ///< bytes operator new handed out, not yet freed

void* tracked(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}

void untracked(void* p) noexcept {
  if (p == nullptr) return;
  g_live -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return tracked(n); }
void* operator new[](std::size_t n) { return tracked(n); }
void operator delete(void* p) noexcept { untracked(p); }
void operator delete[](void* p) noexcept { untracked(p); }
void operator delete(void* p, std::size_t) noexcept { untracked(p); }
void operator delete[](void* p, std::size_t) noexcept { untracked(p); }

namespace csar {
namespace {

/// Heap bytes live now, relative to `base`.
std::int64_t live_since(std::int64_t base) { return g_live - base; }

/// By value: bytes() would flatten a segmented argument in place.
std::vector<std::byte> to_vec(Buffer b) {
  const auto s = b.bytes();
  return {s.begin(), s.end()};
}

/// The stored entry covering byte `at` of `m`.
const Buffer& entry_at(const BufferMap& m, std::uint64_t at) {
  return *m.query(at, at + 1)[0].value;
}

/// Expect that buffer_copy_bytes() moved by exactly these amounts since
/// `before` (both stay zero when the hooks are compiled out).
void expect_copies(const BufferCopyBytes& before, std::uint64_t copied,
                   std::uint64_t residue) {
  const BufferCopyBytes now = buffer_copy_bytes();
  if constexpr (CSAR_OBS != 0) {
    EXPECT_EQ(now.copied - before.copied, copied);
    EXPECT_EQ(now.residue - before.residue, residue);
  } else {
    EXPECT_EQ(now.copied, 0u);
    EXPECT_EQ(now.residue, 0u);
  }
}

TEST(BufferMapResidue, OverwritingAllButFourKiBReleasesThePayload) {
  constexpr std::uint64_t kKeep = 4 * KiB;
  const Buffer over = Buffer::pattern(MiB - kKeep, 2);
  std::vector<std::byte> want;
  BufferMap m;
  const std::int64_t base = g_live;
  {
    const Buffer payload = Buffer::pattern(MiB, 1);
    want = to_vec(payload);
    m.insert(0, MiB, payload);
  }
  const std::int64_t stored = live_since(base);
  EXPECT_GE(stored, static_cast<std::int64_t>(MiB + MiB));  // payload + want

  const BufferCopyBytes before = buffer_copy_bytes();
  m.insert(0, MiB - kKeep, over);
  expect_copies(before, 0, kKeep);
  // The 1 MiB payload is gone; its last 4 KiB live on in their own backing.
  EXPECT_LT(live_since(base), stored - static_cast<std::int64_t>(MiB) +
                                  static_cast<std::int64_t>(16 * KiB));
  EXPECT_EQ(entry_at(m, MiB - 1).pinned_bytes(), kKeep);

  std::copy_n(to_vec(over).begin(), MiB - kKeep, want.begin());
  EXPECT_EQ(to_vec(read_range(m, 0, MiB)), want);
}

TEST(BufferMapResidue, FreshInsertsHalfResiduesPhantomsAndRecipesCopyNothing) {
  const BufferCopyBytes before = buffer_copy_bytes();
  BufferMap m;
  // A fresh insert stores the payload itself.
  const Buffer payload = Buffer::pattern(MiB, 3);
  m.insert(0, MiB, payload);
  EXPECT_EQ(entry_at(m, 0).pinned_bytes(), MiB);
  // Residues of at least half their backing stay views: 3/4, then exactly
  // 1/2 of the payload.
  m.insert(0, MiB / 4, Buffer::pattern(MiB / 4, 4));
  m.insert(MiB / 4, MiB / 2, Buffer::pattern(MiB / 4, 5));
  const Buffer& tail = entry_at(m, MiB - 1);
  EXPECT_EQ(tail.size(), MiB / 2);
  EXPECT_EQ(tail.pinned_bytes(), MiB);  // still a view of the payload
  EXPECT_EQ(tail, payload.slice(MiB / 2, MiB / 2));

  // A phantom residue carries no bytes to copy.
  BufferMap ph;
  ph.insert(0, MiB, Buffer::phantom(MiB));
  ph.insert(0, MiB - 4 * KiB, Buffer::phantom(MiB - 4 * KiB));
  EXPECT_FALSE(entry_at(ph, MiB - 1).materialized());
  EXPECT_EQ(entry_at(ph, MiB - 1).size(), 4 * KiB);

  // An unsettled deferred residue stays a view of its recipe: copying it
  // would compute the whole combine.
  const Buffer a = Buffer::pattern(MiB, 6);
  const Buffer b = Buffer::pattern(MiB, 7);
  const std::vector<Buffer> srcs = {a, b};
  const std::vector<std::uint8_t> coeffs = {1, 2};
  const Buffer::CombinePart part{srcs, coeffs};
  const CodecBytes codec0 = codec_bytes();
  BufferMap rec;
  rec.insert(0, MiB, Buffer::deferred_combine({&part, 1}));
  rec.insert(0, MiB - 4 * KiB, Buffer::pattern(MiB - 4 * KiB, 8));
  EXPECT_EQ(codec_bytes().gf_bytes, codec0.gf_bytes) << "not computed";
  EXPECT_EQ(codec_bytes().xor_bytes, codec0.xor_bytes) << "not computed";
  expect_copies(before, 0, 0);

  const Buffer eager = gf_combine(srcs, coeffs);
  EXPECT_EQ(entry_at(rec, MiB - 1), eager.slice(MiB - 4 * KiB, 4 * KiB));
}

TEST(BufferMapResidue, SegmentedResidueOverTwoBackingsIsCopiedOnce) {
  BufferMap m;
  std::vector<std::byte> want;
  const std::int64_t base = g_live;
  {
    // The last 8 KiB of one 1 MiB payload and the first 8 KiB of another,
    // stored as one two-run entry.
    const Buffer a = Buffer::pattern(MiB, 9);
    const Buffer b = Buffer::pattern(MiB, 10);
    const Buffer pieces[] = {a.slice(MiB - 8 * KiB, 8 * KiB),
                             b.slice(0, 8 * KiB)};
    const Buffer seg = Buffer::concat(pieces);
    EXPECT_EQ(seg.pinned_bytes(), 2 * MiB);
    want = to_vec(seg);
    m.insert(0, 16 * KiB, seg);
  }
  EXPECT_GE(live_since(base), static_cast<std::int64_t>(2 * MiB));

  // The tail residue [2 KiB, 16 KiB) spans both runs.
  const BufferCopyBytes before = buffer_copy_bytes();
  const Buffer head = Buffer::pattern(2 * KiB, 11);
  m.insert(0, 2 * KiB, head);
  expect_copies(before, 0, 14 * KiB);
  EXPECT_EQ(entry_at(m, 2 * KiB).pinned_bytes(), 14 * KiB);
  EXPECT_LT(live_since(base), static_cast<std::int64_t>(256 * KiB));
  std::copy_n(to_vec(head).begin(), 2 * KiB, want.begin());
  EXPECT_EQ(to_vec(read_range(m, 0, 16 * KiB)), want);

  // Runs over small backings that the residue mostly covers stay runs.
  const Buffer small[] = {Buffer::pattern(8 * KiB, 12),
                          Buffer::pattern(8 * KiB, 13)};
  BufferMap n;
  n.insert(0, 16 * KiB, Buffer::concat(small));
  const BufferCopyBytes kept = buffer_copy_bytes();
  n.insert(0, 2 * KiB, Buffer::pattern(2 * KiB, 14));
  expect_copies(kept, 0, 0);
  EXPECT_EQ(entry_at(n, 2 * KiB).pinned_bytes(), 16 * KiB);
  EXPECT_EQ(entry_at(n, 2 * KiB),
            Buffer::concat(small).slice(2 * KiB, 14 * KiB));
}

TEST(BufferMapResidue, LocalFsOverwriteDropsThePrefillItPins) {
  constexpr std::uint64_t kFile = 4 * MiB;
  sim::Simulation sim;
  hw::DiskParams dp;
  dp.bytes_per_sec = 50e6;
  hw::Disk disk(sim, dp);
  sim::BandwidthServer mem(sim, 1e12);
  hw::CacheParams cp;
  cp.capacity_bytes = 64 * MiB;
  cp.page_size = 4096;
  hw::PageCache cache(sim, disk, mem, cp);
  localfs::LocalFs fs(sim, cache, {});

  std::int64_t base = 0, prefilled = 0, overwritten = 0;
  std::vector<std::byte> want;
  const Buffer over = Buffer::pattern(kFile - 8 * KiB, 21);
  sim.spawn([](localfs::LocalFs& fs, const Buffer& over,
               std::vector<std::byte>& want, std::int64_t& base,
               std::int64_t& prefilled,
               std::int64_t& overwritten) -> sim::Task<void> {
    // Warm the cache's page pool and the simulator on another file, so
    // that what follows measures only the content.
    co_await fs.write("warm", 0, Buffer::pattern(kFile, 19));
    co_await fs.write("warm", 0, Buffer::pattern(kFile, 19));
    base = g_live;
    {
      Buffer prefill = Buffer::pattern(kFile, 20);
      want = to_vec(prefill);
      co_await fs.write("f", 0, std::move(prefill));
    }
    prefilled = live_since(base);
    // Overwrite all but 4 KiB at each end.
    co_await fs.write("f", 4 * KiB, over);
    overwritten = live_since(base);
    const Buffer got = co_await fs.read("f", 0, kFile);
    std::copy_n(to_vec(over).begin(), over.size(), want.begin() + 4 * KiB);
    EXPECT_EQ(to_vec(got), want);
  }(fs, over, want, base, prefilled, overwritten));
  sim.run();
  ASSERT_FALSE(want.empty());
  // The prefill (and the reference copy of it) were live; the overwrite
  // freed the prefill, keeping 8 KiB of it.
  EXPECT_GE(prefilled, static_cast<std::int64_t>(2 * kFile));
  EXPECT_LT(overwritten, prefilled - static_cast<std::int64_t>(kFile) +
                             static_cast<std::int64_t>(MiB));
}

}  // namespace
}  // namespace csar
