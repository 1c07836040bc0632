#include "common/buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/buffer_map.hpp"
#include "common/codec.hpp"
#include "common/rng.hpp"
#include "pvfs/client.hpp"

namespace csar {
namespace {

TEST(Buffer, RealZeroFilled) {
  Buffer b = Buffer::real(16);
  EXPECT_EQ(b.size(), 16u);
  EXPECT_TRUE(b.materialized());
  for (auto byte : b.bytes()) EXPECT_EQ(byte, std::byte{0});
}

TEST(Buffer, PhantomCarriesOnlySize) {
  Buffer b = Buffer::phantom(1ull << 40);  // 1 TiB costs nothing
  EXPECT_EQ(b.size(), 1ull << 40);
  EXPECT_FALSE(b.materialized());
}

TEST(Buffer, PatternDeterministic) {
  Buffer a = Buffer::pattern(64, 42);
  Buffer b = Buffer::pattern(64, 42);
  Buffer c = Buffer::pattern(64, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a == c, true);
}

TEST(Buffer, SliceCopiesRange) {
  Buffer a = Buffer::pattern(64, 7);
  Buffer s = a.slice(8, 16);
  EXPECT_EQ(s.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(s.bytes()[i], a.bytes()[i + 8]);
  }
}

TEST(Buffer, PhantomSliceStaysPhantom) {
  Buffer p = Buffer::phantom(100);
  Buffer s = p.slice(10, 20);
  EXPECT_FALSE(s.materialized());
  EXPECT_EQ(s.size(), 20u);
}

TEST(Buffer, WriteAtSplices) {
  Buffer dst = Buffer::real(32);
  Buffer src = Buffer::pattern(8, 3);
  dst.write_at(12, src);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(dst.bytes()[12 + i], src.bytes()[i]);
  }
  EXPECT_EQ(dst.bytes()[11], std::byte{0});
  EXPECT_EQ(dst.bytes()[20], std::byte{0});
}

TEST(Buffer, XorSelfGivesZero) {
  Buffer a = Buffer::pattern(128, 9);
  Buffer b = Buffer::pattern(128, 9);
  a.xor_with(b);
  for (auto byte : a.bytes()) EXPECT_EQ(byte, std::byte{0});
}

TEST(Buffer, XorRoundTrip) {
  Buffer a = Buffer::pattern(100, 1);
  const Buffer orig = a.slice(0, 100);
  Buffer k = Buffer::pattern(100, 2);
  a.xor_with(k);
  EXPECT_FALSE(a == orig);
  a.xor_with(k);
  EXPECT_EQ(a, orig);
}

TEST(Buffer, ResizeZeroExtends) {
  Buffer a = Buffer::pattern(8, 5);
  a.resize(16);
  EXPECT_EQ(a.size(), 16u);
  for (std::size_t i = 8; i < 16; ++i) EXPECT_EQ(a.bytes()[i], std::byte{0});
}

TEST(Buffer, EqualityBySizeForPhantom) {
  EXPECT_TRUE(Buffer::phantom(5) == Buffer::phantom(5));
  EXPECT_FALSE(Buffer::phantom(5) == Buffer::phantom(6));
  EXPECT_FALSE(Buffer::phantom(5) == Buffer::real(5));
}


TEST(Buffer, XorAtOffsetColumns) {
  // The RAID5 delta path XORs a delta into parity at a column offset.
  Buffer parity = Buffer::pattern(100, 1);
  Buffer delta = Buffer::pattern(30, 2);
  Buffer expect = parity.slice(0, 100);
  for (std::size_t i = 0; i < 30; ++i) {
    expect.mutable_bytes()[40 + i] =
        expect.bytes()[40 + i] ^ delta.bytes()[i];
  }
  parity.xor_at(40, delta);
  EXPECT_EQ(parity, expect);
}

TEST(Buffer, XorAtPhantomNoOp) {
  Buffer a = Buffer::phantom(100);
  Buffer b = Buffer::phantom(40);
  a.xor_at(10, b);  // must not crash and must stay phantom
  EXPECT_FALSE(a.materialized());
  EXPECT_EQ(a.size(), 100u);
}

TEST(Buffer, XorAtEmptySource) {
  Buffer a = Buffer::pattern(10, 1);
  const Buffer orig = a.slice(0, 10);
  a.xor_at(5, Buffer::real(0));
  EXPECT_EQ(a, orig);
}

TEST(Buffer, MoveLeavesSourceEmptyVector) {
  Buffer a = Buffer::pattern(64, 1);
  const void* data = a.bytes().data();
  Buffer b = std::move(a);
  EXPECT_EQ(b.bytes().data(), data);  // ownership transferred, no copy
  EXPECT_EQ(b.size(), 64u);
}

TEST(Buffer, SliceAtEnd) {
  Buffer a = Buffer::pattern(10, 1);
  Buffer s = a.slice(10, 0);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(Buffer, PatternZeroLength) {
  Buffer a = Buffer::pattern(0, 77);
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a.materialized());
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The pattern byte stream is a contract: storm shadows, scrub checksums and
// run fingerprints are built from it. These FNV-1a hashes were taken from
// the original scalar generator; Buffer::pattern and every pattern kernel
// the CPU supports must reproduce them.
TEST(Buffer, PatternBytesArePinned) {
  constexpr std::uint64_t kSizes[] = {0,  1,  7,   8,    31,     63,
                                      64, 65, 511, 4099, 1966080};
  struct Golden {
    std::uint64_t seed;
    std::uint64_t fnv[std::size(kSizes)];
  };
  constexpr Golden kGolden[] = {
      {0,
       {0xcbf29ce484222325ULL, 0xaf63db4c8601ead9ULL, 0x67102fbe45efe746ULL,
        0x10688150d6a629d3ULL, 0x3fa3d78965960088ULL, 0xcd32ff513fae88d9ULL,
        0x5c30060f359167ddULL, 0x370243d80613aa68ULL, 0x16c03ab021ce8b6cULL,
        0x1b1e88f6bcfe85e0ULL, 0xd491b1d88f1e6df9ULL}},
      {1,
       {0xcbf29ce484222325ULL, 0xaf64354c860283c7ULL, 0x29298b388ce65586ULL,
        0xd7ecc6176b62c90fULL, 0xd52e41a0413d9cabULL, 0xe46901eef5dddea2ULL,
        0xfc4d0a0bc80181f3ULL, 0xb86a0d04da8fdd81ULL, 0xa1ef70150f763807ULL,
        0x2e1c27838450f270ULL, 0xcc44275db9110f11ULL}},
      {42,
       {0xcbf29ce484222325ULL, 0xaf647c4c8602fc6cULL, 0x39e802271b514e69ULL,
        0xb68a0e736b283752ULL, 0x1e57dcbf8b261ce8ULL, 0x704c600c52723b54ULL,
        0x4402b5f0181b1c33ULL, 0xabb792f8f6114b84ULL, 0x8c9a4c37cce1ceb6ULL,
        0x6d11c5abe7799f41ULL, 0xc0e0e36479882c5aULL}},
      {0xDEADBEEFCAFEF00DULL,
       {0xcbf29ce484222325ULL, 0xaf64334c86028061ULL, 0x589151f4576e4723ULL,
        0xed35b33090636503ULL, 0x381d839919824998ULL, 0xb28fc3177b744d53ULL,
        0xde95cbe6c69f5671ULL, 0xd7e01b2380c03546ULL, 0xe79d2ed92b52f7e1ULL,
        0xbb3ab2e625304f32ULL, 0x59996d206bfb92acULL}},
  };
  std::vector<std::byte> out;
  for (const Golden& g : kGolden) {
    // Buffer::pattern's seed mix, so each kernel sees the same state.
    const std::uint64_t x0 = g.seed * 0x9E3779B97F4A7C15ULL +
                             0xD1B54A32D192ED03ULL;
    for (std::size_t s = 0; s < std::size(kSizes); ++s) {
      const std::uint64_t n = kSizes[s];
      const Buffer b = Buffer::pattern(n, g.seed);
      EXPECT_EQ(fnv1a(b.bytes()), g.fnv[s])
          << "Buffer::pattern size " << n << " seed " << g.seed;
      for (const auto& k : codec_detail::pattern_kernels()) {
        out.assign(n, std::byte{0});
        k.fill(out.data(), n, x0);
        EXPECT_EQ(fnv1a(out), g.fnv[s])
            << k.name << " size " << n << " seed " << g.seed;
      }
    }
  }
}

// Every pattern kernel the CPU supports against the scalar one, at every
// length through several 64-lane blocks and every output misalignment
// within a cache line, with guard bytes on both sides of the output.
TEST(Buffer, PatternKernelsMatchScalarAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 1100;
  constexpr std::size_t kMaxMis = 63;
  constexpr std::size_t kGuard = 64;
  constexpr auto kFill = std::byte{0xA5};
  const auto kernels = codec_detail::pattern_kernels();
  ASSERT_FALSE(kernels.empty());
  ASSERT_STREQ(kernels.front().name, "scalar");
  std::vector<std::byte> want(kMaxLen);
  std::vector<std::byte> got(kGuard + kMaxMis + kMaxLen + kGuard);
  for (std::size_t n = 0; n <= kMaxLen; ++n) {
    const std::uint64_t x0 = 0x9E3779B97F4A7C15ULL * (n + 1);
    codec_detail::pattern_fill_scalar(want.data(), n, x0);
    for (const auto& k : kernels.subspan(1)) {
      for (std::size_t mis = 0; mis <= kMaxMis; ++mis) {
        std::fill(got.begin(), got.end(), kFill);
        std::byte* out = got.data() + kGuard + mis;
        k.fill(out, n, x0);
        ASSERT_EQ(std::memcmp(out, want.data(), n), 0)
            << k.name << " len " << n << " misalign " << mis;
        ASSERT_TRUE(std::all_of(got.data(), out,
                                [&](std::byte b) { return b == kFill; }))
            << k.name << " wrote before the output, len " << n;
        ASSERT_TRUE(std::all_of(out + n, got.data() + got.size(),
                                [&](std::byte b) { return b == kFill; }))
            << k.name << " wrote past the output, len " << n;
      }
    }
  }
}

std::vector<std::byte> to_vec(const Buffer& b) {
  return {b.bytes().begin(), b.bytes().end()};
}

TEST(BufferConcat, EmptyListGivesEmptyBuffer) {
  const Buffer b = Buffer::concat({});
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.materialized());
}

TEST(BufferConcat, SinglePieceSharesBackingAndStaysIsolated) {
  Buffer src = Buffer::pattern(64, 3);
  const Buffer ref = Buffer::pattern(64, 3);
  const std::vector<Buffer> one{src.slice(8, 32)};
  Buffer joined = Buffer::concat(one);
  EXPECT_EQ(joined.size(), 32u);
  EXPECT_EQ(joined.bytes().data(), src.bytes().data() + 8);  // a view
  // Copy-on-write: mutating the result leaves the source alone ...
  joined.xor_at(0, Buffer::pattern(32, 9));
  EXPECT_EQ(src, ref);
  EXPECT_FALSE(joined == ref.slice(8, 32));
  // ... and mutating the source leaves another view alone.
  Buffer view = Buffer::concat(one);
  src.xor_at(8, Buffer::pattern(32, 10));
  EXPECT_EQ(view, ref.slice(8, 32));
}

TEST(BufferConcat, SeveralPiecesJoinInOrder) {
  const Buffer a = Buffer::pattern(10, 1);
  const Buffer b = Buffer::pattern(0, 2);
  const Buffer c = Buffer::pattern(33, 3);
  const Buffer d = Buffer::real(5);
  const Buffer joined = Buffer::concat(std::vector<Buffer>{a, b, c, d});
  std::vector<std::byte> want = to_vec(a);
  for (const Buffer* p : {&b, &c, &d}) {
    want.insert(want.end(), p->bytes().begin(), p->bytes().end());
  }
  EXPECT_EQ(to_vec(joined), want);
}

TEST(BufferConcat, PhantomPiecesSumToPhantom) {
  const Buffer joined = Buffer::concat(std::vector<Buffer>{
      Buffer::phantom(7), Buffer::phantom(0), Buffer::phantom(1u << 30)});
  EXPECT_FALSE(joined.materialized());
  EXPECT_EQ(joined.size(), 7u + (1u << 30));
}

TEST(BufferConcat, SlicesOfOneBackingInAnyOrder) {
  const Buffer a = Buffer::pattern(100, 4);
  const Buffer joined = Buffer::concat(
      std::vector<Buffer>{a.slice(50, 50), a.slice(0, 50), a.slice(25, 10)});
  const auto all = to_vec(a);
  std::vector<std::byte> want(all.begin() + 50, all.end());
  want.insert(want.end(), all.begin(), all.begin() + 50);
  want.insert(want.end(), all.begin() + 25, all.begin() + 35);
  EXPECT_EQ(to_vec(joined), want);
  EXPECT_EQ(a, Buffer::pattern(100, 4));
}

// --- Segmented buffers: run lists over shared backings ---

Buffer cat(std::vector<Buffer> pieces) { return Buffer::concat(pieces); }

/// The buffer's runs as (pointer, length) pairs, in order.
std::vector<std::pair<const std::byte*, std::size_t>> runs_of(const Buffer& b) {
  std::vector<std::pair<const std::byte*, std::size_t>> out;
  std::uint64_t expect_pos = 0;
  b.for_each_run([&](std::uint64_t pos, std::span<const std::byte> s) {
    EXPECT_EQ(pos, expect_pos);
    expect_pos += s.size();
    out.emplace_back(s.data(), s.size());
  });
  EXPECT_EQ(expect_pos, b.size());
  return out;
}

/// Bytes of `parts` (slices of one reference vector) joined.
std::vector<std::byte> join(const std::vector<std::byte>& ref,
                            std::initializer_list<std::pair<int, int>> parts) {
  std::vector<std::byte> out;
  for (auto [off, len] : parts) {
    out.insert(out.end(), ref.begin() + off, ref.begin() + off + len);
  }
  return out;
}

TEST(BufferSegmented, SizeIsUnchanged) {
  // size, tag, offset and one shared pointer: five words on 64-bit hosts.
  EXPECT_EQ(sizeof(Buffer), 3 * sizeof(std::uint64_t) + 2 * sizeof(void*));
}

TEST(BufferSegmented, ConcatSharesPiecesWithoutCopying) {
  const Buffer a = Buffer::pattern(100, 1);
  const Buffer b = Buffer::pattern(50, 2);
  const Buffer joined = cat({a.slice(10, 20), b, a.slice(80, 5)});
  const auto runs = runs_of(joined);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].first, a.bytes().data() + 10);
  EXPECT_EQ(runs[1].first, b.bytes().data());
  EXPECT_EQ(runs[2].first, a.bytes().data() + 80);
  std::vector<std::byte> want = join(to_vec(a), {{10, 20}});
  const auto bv = to_vec(b);
  want.insert(want.end(), bv.begin(), bv.end());
  const auto tail = join(to_vec(a), {{80, 5}});
  want.insert(want.end(), tail.begin(), tail.end());
  EXPECT_EQ(joined.size(), want.size());
  EXPECT_EQ(joined, Buffer::from_bytes(want));
}

TEST(BufferSegmented, NestedConcatFlattensRunLists) {
  const Buffer a = Buffer::pattern(64, 3);
  const Buffer b = Buffer::pattern(64, 4);
  const Buffer ab = cat({a.slice(0, 8), b.slice(0, 8)});
  const Buffer ba = cat({b.slice(32, 8), a.slice(32, 8)});
  const Buffer all = cat({ab, ba, ab});
  // Runs never nest: six leaf runs, each pointing at a flat backing.
  const auto runs = runs_of(all);
  ASSERT_EQ(runs.size(), 6u);
  EXPECT_EQ(runs[2].first, b.bytes().data() + 32);
  const auto av = to_vec(a);
  const auto bv = to_vec(b);
  const auto ab_bytes = join(av, {{0, 8}});
  std::vector<std::byte> want = ab_bytes;
  for (const auto& v : {join(bv, {{0, 8}}), join(bv, {{32, 8}}),
                        join(av, {{32, 8}}), ab_bytes, join(bv, {{0, 8}})}) {
    want.insert(want.end(), v.begin(), v.end());
  }
  EXPECT_EQ(to_vec(Buffer(all)), want);
}

TEST(BufferSegmented, AdjacentRunsOfOneBackingMerge) {
  const Buffer a = Buffer::pattern(100, 5);
  // Consecutive slices of one backing collapse into one plain view.
  const Buffer whole = cat({a.slice(0, 30), a.slice(30, 40), a.slice(70, 30)});
  const auto runs = runs_of(whole);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].first, a.bytes().data());
  EXPECT_EQ(whole, a);
  // A gap or a different backing keeps runs apart; the merge also applies
  // across a nested segmented piece's boundary.
  const Buffer b = Buffer::pattern(10, 6);
  const Buffer left = cat({b, a.slice(0, 10)});
  const Buffer merged = cat({left, a.slice(10, 10), a.slice(25, 5)});
  EXPECT_EQ(runs_of(merged).size(), 3u);  // b | a[0,20) | a[25,30)
  EXPECT_EQ(runs_of(merged)[1].second, 20u);
}

TEST(BufferSegmented, SliceAcrossRunsAndInsideOne) {
  const Buffer a = Buffer::pattern(100, 7);
  const Buffer b = Buffer::pattern(100, 8);
  const Buffer c = Buffer::pattern(100, 9);
  const Buffer seg = cat({a.slice(0, 40), b.slice(50, 30), c.slice(10, 50)});
  std::vector<std::byte> ref = join(to_vec(a), {{0, 40}});
  for (auto v : {join(to_vec(b), {{50, 30}}), join(to_vec(c), {{10, 50}})}) {
    ref.insert(ref.end(), v.begin(), v.end());
  }
  // Every (off, len) over the 120 bytes matches the reference.
  for (std::size_t off = 0; off <= ref.size(); off += 7) {
    for (std::size_t len = 0; off + len <= ref.size(); len += 11) {
      const Buffer s = seg.slice(off, len);
      EXPECT_EQ(to_vec(Buffer(s)),
                std::vector<std::byte>(ref.begin() + off,
                                       ref.begin() + off + len))
          << off << "+" << len;
    }
  }
  // Crossing a boundary keeps only the covered runs, trimmed.
  const auto cross = runs_of(seg.slice(30, 50));
  ASSERT_EQ(cross.size(), 3u);
  EXPECT_EQ(cross[0].first, a.bytes().data() + 30);
  EXPECT_EQ(cross[0].second, 10u);
  EXPECT_EQ(cross[2].first, c.bytes().data() + 10);
  EXPECT_EQ(cross[2].second, 10u);
  // Inside one run: a plain view of the backing, no run list.
  const Buffer inside = seg.slice(45, 20);
  const auto one = runs_of(inside);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].first, b.bytes().data() + 55);
  EXPECT_EQ(inside.bytes().data(), b.bytes().data() + 55);  // no flatten copy
}

TEST(BufferSegmented, EqualityAcrossRepresentations) {
  const Buffer a = Buffer::pattern(64, 10);
  const Buffer flat = a.slice(0, 64);
  const Buffer a2 = Buffer::pattern(64, 10);  // same bytes, another backing
  const Buffer seg = cat({a.slice(0, 10), a2.slice(10, 54)});
  const Buffer seg2 = cat({a2.slice(0, 33), a.slice(33, 31)});
  const Buffer ph = Buffer::phantom(64);
  ASSERT_EQ(runs_of(seg).size(), 2u);
  EXPECT_TRUE(flat == seg);
  EXPECT_TRUE(seg == flat);
  EXPECT_TRUE(seg == seg2);
  EXPECT_TRUE(seg == seg);
  EXPECT_TRUE(ph == Buffer::phantom(64));
  EXPECT_FALSE(ph == flat);
  EXPECT_FALSE(flat == ph);
  EXPECT_FALSE(ph == seg);
  EXPECT_FALSE(seg == ph);
  // One differing byte, in either run, on either side.
  for (std::uint64_t at : {3u, 40u}) {
    Buffer other = seg2;
    other.xor_at(at, Buffer::from_bytes({std::byte{1}}));
    EXPECT_FALSE(seg == other) << at;
    EXPECT_FALSE(other == flat) << at;
  }
  EXPECT_FALSE(seg == seg.slice(0, 63));
}

TEST(BufferSegmented, RepeatedBytesReturnsSameSpan) {
  const Buffer seg = cat({Buffer::pattern(100, 11), Buffer::pattern(100, 12)});
  ASSERT_EQ(runs_of(seg).size(), 2u);
  const auto first = seg.bytes();
  const auto second = seg.bytes();
  EXPECT_EQ(first.data(), second.data());
  EXPECT_EQ(first.size(), 200u);
  EXPECT_EQ(runs_of(seg).size(), 1u);  // the flat copy replaced the runs
  const Buffer copy = seg;
  EXPECT_EQ(copy.bytes().data(), first.data());
}

/// Each mutation applied to a segmented or shared target, with a segmented
/// or flat source, must match a byte-wise reference and leave every other
/// holder of the old bytes untouched.
TEST(BufferSegmented, MutationsAreCopyOnWrite) {
  const Buffer a = Buffer::pattern(80, 13);
  const Buffer b = Buffer::pattern(80, 14);
  const auto av = to_vec(a);
  const auto bv = to_vec(b);
  const Buffer seg_src = cat({b.slice(0, 7), a.slice(60, 13)});
  const Buffer flat_src = b.slice(20, 20);
  for (const Buffer* src : {&seg_src, &flat_src}) {
    const auto sv = to_vec(Buffer(*src));
    for (bool segmented_target : {true, false}) {
      const Buffer base = segmented_target
                              ? cat({a.slice(0, 30), b.slice(30, 50)})
                              : a.slice(0, 80);
      const auto ref = to_vec(Buffer(base));
      for (int op = 0; op < 4; ++op) {
        Buffer t = base;  // shares the backing (and run list) with base
        std::vector<std::byte> want = ref;
        switch (op) {
          case 0:
            t.write_at(25, *src);
            for (std::size_t i = 0; i < sv.size(); ++i) want[25 + i] = sv[i];
            break;
          case 1:
            t.xor_at(25, *src);
            for (std::size_t i = 0; i < sv.size(); ++i) want[25 + i] ^= sv[i];
            break;
          case 2:
            t.xor_with(*src);
            for (std::size_t i = 0; i < sv.size(); ++i) want[i] ^= sv[i];
            break;
          case 3:
            t.resize(100);
            want.resize(100, std::byte{0});
            break;
        }
        EXPECT_EQ(to_vec(t), want) << "op " << op;
        EXPECT_EQ(to_vec(Buffer(base)), ref) << "op " << op;
        EXPECT_EQ(to_vec(a), av);
        EXPECT_EQ(to_vec(b), bv);
        // A second mutation on the now-owned bytes stays private too.
        t.xor_at(0, Buffer::pattern(5, 15));
        EXPECT_EQ(to_vec(Buffer(base)), ref);
      }
    }
  }
  // Shrinking a segmented buffer keeps its runs (op 3 above grows one).
  Buffer seg = cat({a.slice(0, 30), b.slice(0, 30)});
  seg.resize(35);
  EXPECT_EQ(runs_of(seg).size(), 2u);
  std::vector<std::byte> shrunk = join(av, {{0, 30}});
  for (std::size_t i = 0; i < 5; ++i) shrunk.push_back(bv[i]);
  EXPECT_EQ(to_vec(seg), shrunk);
  // A buffer writing or XORing itself (the only legal overlap).
  Buffer self = cat({a.slice(0, 40), b.slice(0, 40)});
  self.xor_with(self);
  EXPECT_EQ(self, Buffer::real(80));
  Buffer flat_self = Buffer::pattern(40, 16);
  flat_self.write_at(0, flat_self);
  EXPECT_EQ(flat_self, Buffer::pattern(40, 16));
}

TEST(BufferSegmented, GfRegionsReadRunByRun) {
  const Buffer a = Buffer::pattern(300, 17);
  const Buffer seg =
      cat({a.slice(0, 100), Buffer::pattern(37, 18), a.slice(150, 150)});
  const auto flat = to_vec(Buffer(seg));
  ASSERT_EQ(runs_of(seg).size(), 3u);
  for (std::uint8_t c : {0, 1, 2, 0x53}) {
    std::vector<std::byte> want(flat.size());
    std::vector<std::byte> got(flat.size());
    gf_mul_region(want, flat, c);
    gf_mul_region(got, seg, c);
    EXPECT_EQ(got, want);
    gf_muladd_region(want, flat, 0x1d);
    gf_muladd_region(got, seg, 0x1d);
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(runs_of(seg).size(), 3u);  // never flattened
}

TEST(BufferSegmented, GatherSharesTheUserBuffer) {
  const pvfs::StripeLayout layout{4096, 3};
  const Buffer user = Buffer::pattern(50000, 19);
  const std::byte* lo = user.bytes().data();
  const std::byte* hi = lo + user.size();
  for (std::uint32_t s = 0; s < layout.n(); ++s) {
    const Buffer g = pvfs::Client::gather_for_server(layout, 100, user, s);
    const auto runs = runs_of(g);
    EXPECT_GT(runs.size(), 1u);
    for (const auto& [p, n] : runs) {
      EXPECT_TRUE(p >= lo && p + n <= hi) << "run outside the user buffer";
    }
  }
}

// --- Deferred combines: encode on first read ---

/// sum_r coeffs[r] * srcs[r], byte by byte with the scalar field multiply.
std::vector<std::byte> combine_ref(const std::vector<Buffer>& srcs,
                                   const std::vector<std::uint8_t>& coeffs) {
  std::vector<std::byte> out(srcs[0].size());
  for (std::size_t r = 0; r < srcs.size(); ++r) {
    const auto v = to_vec(srcs[r]);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] ^= std::byte{gf_mul(coeffs[r], static_cast<std::uint8_t>(v[i]))};
    }
  }
  return out;
}

/// `len` pattern bytes, flat or as a run list over two backings.
Buffer source(Rng& rng, std::uint64_t len) {
  const Buffer a = Buffer::pattern(len, rng.next());
  if (len < 2 || rng.below(2) == 0) return a;
  const std::uint64_t cut = 1 + rng.below(len - 1);
  return cat({a.slice(0, cut), Buffer::pattern(len, rng.next()).slice(
                                   cut, len - cut)});
}

/// A generator row of k coefficients with 0s, 1s and other values mixed.
std::vector<std::uint8_t> row_of(Rng& rng, std::uint32_t k) {
  std::vector<std::uint8_t> row(k);
  for (auto& c : row) {
    const std::uint64_t kind = rng.below(4);
    c = kind == 0 ? 0 : kind == 1 ? 1 : static_cast<std::uint8_t>(
                                            2 + rng.below(254));
  }
  return row;
}

/// A deferred recipe of random parts, with the bytes it must produce.
struct RandomRecipe {
  std::vector<std::vector<Buffer>> srcs;
  std::vector<std::vector<std::uint8_t>> rows;
  std::vector<std::byte> want;

  Buffer build() const {
    std::vector<Buffer::CombinePart> parts;
    for (std::size_t p = 0; p < srcs.size(); ++p) {
      parts.push_back({srcs[p], rows[p]});
    }
    return Buffer::deferred_combine(parts);
  }
};

RandomRecipe random_recipe(Rng& rng, std::size_t nparts) {
  RandomRecipe r;
  for (std::size_t p = 0; p < nparts; ++p) {
    const auto k = static_cast<std::uint32_t>(1 + rng.below(8));
    const std::uint64_t len = 1 + rng.below(3000);
    r.srcs.emplace_back();
    for (std::uint32_t i = 0; i < k; ++i) {
      r.srcs.back().push_back(source(rng, len));
    }
    r.rows.push_back(row_of(rng, k));
    const auto part = combine_ref(r.srcs.back(), r.rows.back());
    r.want.insert(r.want.end(), part.begin(), part.end());
  }
  return r;
}

TEST(BufferDeferred, OnePartMatchesEagerCombine) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const RandomRecipe r = random_recipe(rng, 1);
    const CodecBytes before = codec_bytes();
    const Buffer d = r.build();
    const CodecBytes built = codec_bytes();
    EXPECT_EQ(built.xor_bytes, before.xor_bytes) << "built, not computed";
    EXPECT_EQ(built.gf_bytes, before.gf_bytes) << "built, not computed";
    EXPECT_TRUE(d.materialized());
    EXPECT_EQ(d.size(), r.want.size());
    const Buffer eager = gf_combine(r.srcs[0], r.rows[0]);
    EXPECT_EQ(to_vec(eager), r.want) << "trial " << trial;
    EXPECT_TRUE(d == eager) << "trial " << trial;
    EXPECT_EQ(to_vec(d), r.want) << "trial " << trial;
  }
}

TEST(BufferDeferred, SlicesOfOneRecipeSettleInAnyOrderAndComputeOnce) {
  Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const RandomRecipe r = random_recipe(rng, 1 + rng.below(4));
    const Buffer d = r.build();
    const std::uint64_t n = d.size();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cuts;
    std::vector<Buffer> views;
    for (int v = 0; v < 6; ++v) {
      const std::uint64_t off = rng.below(n);
      const std::uint64_t len = rng.below(n - off + 1);
      cuts.emplace_back(off, len);
      views.push_back(d.slice(off, len));
      // A slice of a slice is still a view of the same recipe.
      views.push_back(views.back().slice(len / 3, len - len / 3));
      cuts.emplace_back(off + len / 3, len - len / 3);
    }
    views.push_back(d);
    cuts.emplace_back(0, n);
    std::vector<std::size_t> order(views.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    CodecBytes prev = codec_bytes();
    bool computed = false;
    for (const std::size_t i : order) {
      const auto [off, len] = cuts[i];
      const std::vector<std::byte> want(
          r.want.begin() + static_cast<std::ptrdiff_t>(off),
          r.want.begin() + static_cast<std::ptrdiff_t>(off + len));
      EXPECT_EQ(to_vec(views[i]), want) << "trial " << trial << " view " << i;
      const CodecBytes now = codec_bytes();
      if (computed || len == 0) {
        // Every later view reads the memo: no kernel runs again.
        EXPECT_EQ(now.xor_bytes, prev.xor_bytes);
        EXPECT_EQ(now.gf_bytes, prev.gf_bytes);
      }
      computed = computed || len > 0;
      prev = now;
    }
  }
}

TEST(BufferDeferred, SourcesMutatedAfterCaptureKeepTheirOldBytes) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    RandomRecipe r = random_recipe(rng, 2);
    const Buffer d = r.build();
    // The sources' other holders, now the only ones besides the recipe,
    // mutate them after the capture, each in a different way.
    std::vector<std::vector<Buffer>> holders = std::move(r.srcs);
    int how = 0;
    for (auto& part : holders) {
      for (Buffer& h : part) {
        const Buffer key = Buffer::pattern(h.size(), rng.next());
        switch (how++ % 4) {
          case 0:
            h.xor_with(key);
            break;
          case 1:
            h.write_at(0, key);
            break;
          case 2:
            h.mutable_bytes()[0] ^= std::byte{0xFF};
            break;
          case 3:
            h.resize(h.size() + 5);
            h.xor_at(0, key);
            break;
        }
      }
    }
    EXPECT_EQ(to_vec(d), r.want) << "trial " << trial;
  }
}

TEST(BufferDeferred, MultiPartRecipeEqualsJoinedEagerCombines) {
  Rng rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    const RandomRecipe r = random_recipe(rng, 2 + rng.below(5));
    std::vector<Buffer> eager;
    for (std::size_t p = 0; p < r.srcs.size(); ++p) {
      eager.push_back(gf_combine(r.srcs[p], r.rows[p]));
    }
    const Buffer joined = Buffer::concat(eager);
    const Buffer d = r.build();
    EXPECT_TRUE(joined == d) << "trial " << trial;
    EXPECT_EQ(to_vec(d), r.want) << "trial " << trial;
  }
}

TEST(BufferDeferred, ReadersAndMutatorsSettleTheView) {
  Rng rng(5);
  const RandomRecipe r = random_recipe(rng, 3);
  const Buffer d = r.build();
  const auto n = static_cast<std::uint64_t>(r.want.size());
  // bytes() settles once; a copy taken before shares the same memo.
  const Buffer early = d;
  const auto span = d.bytes();
  EXPECT_EQ(std::vector<std::byte>(span.begin(), span.end()), r.want);
  EXPECT_EQ(d.bytes().data(), span.data());
  EXPECT_EQ(early.bytes().data(), span.data());
  // A mutator gets private bytes; the other views keep the old ones.
  Buffer fresh = r.build();
  const Buffer other_view = fresh.slice(0, n);
  const Buffer key = Buffer::pattern(n / 2, 6);
  fresh.xor_at(n / 4, key);
  std::vector<std::byte> want = r.want;
  const auto kv = to_vec(key);
  for (std::size_t i = 0; i < kv.size(); ++i) want[n / 4 + i] ^= kv[i];
  EXPECT_EQ(to_vec(fresh), want);
  EXPECT_EQ(to_vec(other_view), r.want);
  // Joined with other pieces, by itself, and as a run source.
  const Buffer tail = Buffer::pattern(10, 7);
  std::vector<std::byte> joined = r.want;
  const auto tv = to_vec(tail);
  joined.insert(joined.end(), tv.begin(), tv.end());
  EXPECT_EQ(to_vec(cat({r.build(), tail})), joined);
  EXPECT_EQ(to_vec(cat({r.build()})), r.want);
  Buffer grown = r.build();
  grown.resize(n + 3);
  std::vector<std::byte> grown_want = r.want;
  grown_want.resize(n + 3, std::byte{0});
  EXPECT_EQ(to_vec(grown), grown_want);
  // A deferred buffer as a source of another recipe.
  const Buffer inner = r.build();
  const std::vector<Buffer> srcs{inner, Buffer::pattern(n, 8)};
  const std::vector<std::uint8_t> row{3, 1};
  const Buffer::CombinePart part{srcs, row};
  EXPECT_EQ(to_vec(Buffer::deferred_combine({&part, 1})),
            combine_ref({Buffer::from_bytes(r.want), srcs[1]}, row));
}

TEST(BufferDeferred, PhantomSourcesGiveAPhantom) {
  const std::vector<Buffer> ph{Buffer::phantom(100), Buffer::phantom(100)};
  const std::vector<Buffer> ph2{Buffer::phantom(30)};
  const std::vector<std::uint8_t> row{1, 7};
  const std::vector<std::uint8_t> row2{5};
  const Buffer::CombinePart parts[] = {{ph, row}, {ph2, row2}};
  const Buffer d = Buffer::deferred_combine(parts);
  EXPECT_FALSE(d.materialized());
  EXPECT_EQ(d.size(), 130u);
  EXPECT_TRUE(d == Buffer::phantom(130));
}

TEST(BufferDeferred, UnitCopyPartsAreViewsOfTheirSources) {
  const Buffer a = Buffer::pattern(64, 1);
  const Buffer b = Buffer::pattern(32, 2);
  const std::vector<Buffer> sa{a};
  const std::vector<Buffer> sb{b};
  const std::vector<std::uint8_t> one{1};
  const Buffer::CombinePart parts[] = {{sa, one}, {sb, one}};
  const Buffer d = Buffer::deferred_combine(parts);
  const auto runs = runs_of(d);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].first, a.bytes().data());
  EXPECT_EQ(runs[1].first, b.bytes().data());
  EXPECT_EQ(Buffer::deferred_combine({}).size(), 0u);
}

TEST(BufferMap, ReadRangeJoinsRunsAndZeroesHoles) {
  BufferMap m;
  m.insert(10, 20, Buffer::pattern(10, 1));
  m.insert(30, 35, Buffer::pattern(5, 2));
  const Buffer got = read_range(m, 5, 40);
  std::vector<std::byte> want(35, std::byte{0});
  const Buffer p1 = Buffer::pattern(10, 1);
  const Buffer p2 = Buffer::pattern(5, 2);
  std::memcpy(want.data() + 5, p1.bytes().data(), 10);
  std::memcpy(want.data() + 25, p2.bytes().data(), 5);
  EXPECT_EQ(to_vec(got), want);
  // A range inside one run is a view of the stored bytes.
  EXPECT_EQ(read_range(m, 12, 18), p1.slice(2, 6));
  m.insert(50, 60, Buffer::phantom(10));
  EXPECT_FALSE(read_range(m, 0, 60).materialized());
  EXPECT_TRUE(read_range(m, 0, 40).materialized());
}

// Producers that skip the zero pass must still write every byte. Fill a
// freed block with 0xA5 so that a reused allocation starts out as garbage,
// then check each producer's output byte for byte against a reference.
class GarbageHeap : public ::testing::TestWithParam<std::size_t> {
 protected:
  static void dirty_heap(std::size_t n) {
    auto junk = std::make_unique<std::byte[]>(n + 256);
    std::memset(junk.get(), 0xA5, n + 256);
    // Keep the fill from being optimized away before the free.
    volatile std::byte sink = junk[n / 2];
    (void)sink;
  }
};

TEST_P(GarbageHeap, ProducersWriteEveryByte) {
  const std::size_t n = GetParam();
  const Buffer src = Buffer::pattern(n, 77);
  const std::vector<std::byte> ref = to_vec(src);

  dirty_heap(n);
  EXPECT_EQ(to_vec(Buffer::pattern(n, 77)), ref);

  dirty_heap(n);
  std::vector<Buffer> pieces;
  for (std::size_t pos = 0; pos < n; pos += 1000) {
    pieces.push_back(src.slice(pos, std::min<std::size_t>(1000, n - pos)));
  }
  EXPECT_EQ(to_vec(Buffer::concat(pieces)), ref);

  // gather_for_server: server s's pieces in order, against decompose().
  const pvfs::StripeLayout layout{4096, 3};
  for (std::uint32_t s = 0; s < layout.n(); ++s) {
    std::vector<std::byte> want;
    for (const auto& e : layout.decompose(5, n)) {
      if (e.server != s) continue;
      const auto first =
          ref.begin() + static_cast<std::ptrdiff_t>(e.global_off - 5);
      want.insert(want.end(), first,
                  first + static_cast<std::ptrdiff_t>(e.len));
    }
    dirty_heap(n);
    EXPECT_EQ(to_vec(pvfs::Client::gather_for_server(layout, 5, src, s)), want);
  }

  // Read assembly: stored runs with holes between them.
  BufferMap m;
  for (std::size_t pos = 0; pos < n; pos += 3000) {
    m.insert(pos, std::min<std::size_t>(pos + 2000, n),
             src.slice(pos, std::min<std::size_t>(2000, n - pos)));
  }
  std::vector<std::byte> want = ref;
  for (std::size_t pos = 0; pos < n; pos += 3000) {
    for (std::size_t i = pos + 2000; i < std::min(pos + 3000, n); ++i) {
      want[i] = std::byte{0};
    }
  }
  dirty_heap(n);
  EXPECT_EQ(to_vec(read_range(m, 0, n)), want);

  // Fused copy-on-write XOR: the target shares its bytes (flat) or is a
  // run list, so the result is written straight into a fresh allocation.
  const Buffer key = Buffer::pattern(n, 78);
  const auto kv = to_vec(key);
  std::vector<std::byte> xored = ref;
  for (std::size_t i = n / 4; i < n; ++i) xored[i] ^= kv[i - n / 4];
  // Two runs over two backings holding the same bytes (adjacent slices of
  // one backing would merge into a plain view).
  const Buffer halves = cat({src.slice(0, n / 3),
                             Buffer::pattern(n, 77).slice(n / 3, n - n / 3)});
  for (const Buffer* base : {&src, &halves}) {
    Buffer t = *base;
    dirty_heap(n);
    t.xor_at(n / 4, key.slice(0, n - n / 4));
    EXPECT_EQ(to_vec(t), xored);
  }
  EXPECT_EQ(to_vec(src), ref);

  dirty_heap(n);
  Buffer grown = src.slice(0, n / 2);
  grown.resize(n);
  std::vector<std::byte> grown_want(
      ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(n / 2));
  grown_want.resize(n, std::byte{0});
  EXPECT_EQ(to_vec(grown), grown_want);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GarbageHeap,
                         ::testing::Values(1500, 16 * 1024, 60 * 1024,
                                           100 * 1024));

}  // namespace
}  // namespace csar
