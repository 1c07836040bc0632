#include "common/parity.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/buffer.hpp"
#include "common/rng.hpp"

namespace csar {
namespace {

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.below(256));
  return v;
}

TEST(Parity, XorBytesBasic) {
  std::vector<std::byte> a = {std::byte{0xF0}, std::byte{0x0F}};
  std::vector<std::byte> b = {std::byte{0xFF}, std::byte{0xFF}};
  xor_bytes(a, b);
  EXPECT_EQ(a[0], std::byte{0x0F});
  EXPECT_EQ(a[1], std::byte{0xF0});
}

// Word-wise and byte-wise kernels must agree on every length (alignment
// tails are where word-wise code goes wrong).
class ParityKernelEquivalence : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(ParityKernelEquivalence, WordMatchesByte) {
  const std::size_t n = GetParam();
  Rng rng(1234 + n);
  auto src = random_bytes(rng, n);
  auto dst1 = random_bytes(rng, n);
  auto dst2 = dst1;
  xor_bytes(dst1, src);
  xor_words(dst2, src);
  EXPECT_EQ(dst1, dst2) << "length " << n;
}

INSTANTIATE_TEST_SUITE_P(Lengths, ParityKernelEquivalence,
                         ::testing::Values(0, 1, 2, 3, 7, 8, 9, 15, 16, 17,
                                           63, 64, 65, 1023, 1024, 4096,
                                           4097));

// The dispatched kernel (AVX2 where available) against the byte loop at
// every length through several 128-byte blocks and every src/dst
// misalignment within a 32-byte vector, with guard bytes after dst.
TEST(Parity, DispatchedXorMatchesBytesAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 1100;
  constexpr std::size_t kMaxMis = 31;
  constexpr std::size_t kGuard = 64;
  Rng rng(4242);
  const auto src_pool = random_bytes(rng, kMaxLen + kMaxMis);
  const auto dst_pool = random_bytes(rng, kMaxLen + kMaxMis + kGuard);
  std::vector<std::byte> want(dst_pool.size());
  std::vector<std::byte> got(dst_pool.size());
  for (std::size_t n = 0; n <= kMaxLen; ++n) {
    for (std::size_t sm = 0; sm <= kMaxMis; ++sm) {
      const std::span<const std::byte> src(src_pool.data() + sm, n);
      for (std::size_t dm = 0; dm <= kMaxMis; ++dm) {
        // Only the region the kernel may touch needs resetting.
        std::memcpy(want.data() + dm, dst_pool.data() + dm, n + kGuard);
        std::memcpy(got.data() + dm, dst_pool.data() + dm, n + kGuard);
        xor_bytes({want.data() + dm, n}, src);
        xor_words({got.data() + dm, n}, src);
        ASSERT_EQ(std::memcmp(want.data() + dm, got.data() + dm, n + kGuard),
                  0)
            << "len " << n << " src misalign " << sm << " dst misalign "
            << dm << " (" << codec_dispatch_name() << ")";
      }
    }
  }
}

// The three-operand form (the fused copy-on-write XOR) writes a ^ b into a
// separate destination: it must match the byte loop at every length and
// misalignment of each operand, and never write past the length.
TEST(Parity, DispatchedXorIntoMatchesBytesAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 600;
  constexpr std::size_t kMaxMis = 31;
  constexpr std::size_t kGuard = 64;
  Rng rng(4343);
  const auto a_pool = random_bytes(rng, kMaxLen + kMaxMis);
  const auto b_pool = random_bytes(rng, kMaxLen + kMaxMis);
  const auto garbage = random_bytes(rng, kMaxLen + kMaxMis + kGuard);
  std::vector<std::byte> out(garbage.size());
  for (std::size_t n = 0; n <= kMaxLen; ++n) {
    for (std::size_t m = 0; m <= kMaxMis; ++m) {
      // Misalign a, b and dst differently in each combination.
      const std::span<const std::byte> a(a_pool.data() + m, n);
      const std::span<const std::byte> b(b_pool.data() + (m * 7) % 32, n);
      const std::size_t dm = (m * 13) % 32;
      out = garbage;
      xor_into({out.data() + dm, n}, a, b);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[dm + i], a[i] ^ b[i])
            << "len " << n << " at " << i << " (" << codec_dispatch_name()
            << ")";
      }
      ASSERT_EQ(std::memcmp(out.data() + dm + n, garbage.data() + dm + n,
                            kGuard),
                0)
          << "len " << n << " wrote past the end";
    }
  }
}

TEST(Parity, SelfInverse) {
  Rng rng(99);
  auto src = random_bytes(rng, 257);
  auto dst = random_bytes(rng, 257);
  const auto orig = dst;
  xor_words(dst, src);
  xor_words(dst, src);
  EXPECT_EQ(dst, orig);
}

TEST(Parity, AccumulateRecoversMissingSource) {
  // RAID5 invariant: P = D0 ^ D1 ^ D2  =>  D1 = P ^ D0 ^ D2.
  Rng rng(5);
  constexpr std::size_t kN = 128;
  auto d0 = random_bytes(rng, kN);
  auto d1 = random_bytes(rng, kN);
  auto d2 = random_bytes(rng, kN);
  std::vector<std::byte> parity(kN, std::byte{0});
  std::vector<std::span<const std::byte>> all = {d0, d1, d2};
  xor_accumulate(parity, all);

  std::vector<std::byte> rebuilt(kN, std::byte{0});
  std::vector<std::span<const std::byte>> survivors = {parity, d0, d2};
  xor_accumulate(rebuilt, survivors);
  EXPECT_EQ(rebuilt, d1);
}

TEST(Parity, ShortSourceContributesPrefix) {
  // Parity of zero-padded units: a short source only affects its prefix.
  std::vector<std::byte> dst(8, std::byte{0});
  std::vector<std::byte> s1 = {std::byte{0xAA}, std::byte{0xBB}};
  std::vector<std::span<const std::byte>> srcs = {s1};
  xor_accumulate(dst, srcs);
  EXPECT_EQ(dst[0], std::byte{0xAA});
  EXPECT_EQ(dst[1], std::byte{0xBB});
  for (std::size_t i = 2; i < 8; ++i) EXPECT_EQ(dst[i], std::byte{0});
}

TEST(Parity, BufferXorUsesWordKernel) {
  Buffer a = Buffer::pattern(1000, 1);
  Buffer b = Buffer::pattern(1000, 2);
  Buffer expect = Buffer::real(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    expect.mutable_bytes()[i] = a.bytes()[i] ^ b.bytes()[i];
  }
  a.xor_with(b);
  EXPECT_EQ(a, expect);
}

}  // namespace
}  // namespace csar
