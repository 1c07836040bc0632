#include "common/buffer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/buffer_map.hpp"
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
