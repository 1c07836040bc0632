#include "pvfs/layout.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace csar::pvfs {
namespace {

// RAID5 parity is the k = N-1, m = 1 case of the coded-group geometry.
std::uint32_t parity_server(const StripeLayout& l, std::uint64_t g) {
  return l.coding_server(g, l.n() - 1, 0);
}
std::uint64_t parity_slot(const StripeLayout& l, std::uint64_t g) {
  return l.coding_slot(g, l.n() - 1, 1, 0);
}

TEST(Layout, UnitAndServerMath) {
  StripeLayout l{1024, 4};
  EXPECT_EQ(l.unit_of(0), 0u);
  EXPECT_EQ(l.unit_of(1023), 0u);
  EXPECT_EQ(l.unit_of(1024), 1u);
  EXPECT_EQ(l.server_of_unit(0), 0u);
  EXPECT_EQ(l.server_of_unit(3), 3u);
  EXPECT_EQ(l.server_of_unit(4), 0u);
  EXPECT_EQ(l.local_unit(0), 0u);
  EXPECT_EQ(l.local_unit(4), 1u);
  EXPECT_EQ(l.local_unit(9), 2u);
}

TEST(Layout, LocalOffRoundTrip) {
  StripeLayout l{1024, 4};
  // Global offset 5000 -> unit 4 (server 0, local unit 1), 904 bytes in.
  EXPECT_EQ(l.local_off(5000), 1024 + 5000 % 1024);
}

TEST(Layout, StripeWidth) {
  StripeLayout l{16 * 1024, 6};
  EXPECT_EQ(l.stripe_width(), 5u * 16 * 1024);
}

TEST(Layout, Figure2ParityPlacement) {
  // The paper's Figure 2: three servers; P[0-1] (parity of D0, D1) is on
  // I/O server 2. Groups of N-1=2 consecutive units.
  StripeLayout l{1024, 3};
  EXPECT_EQ(l.group_of_unit(0, 2), 0u);
  EXPECT_EQ(l.group_of_unit(1, 2), 0u);
  EXPECT_EQ(l.group_of_unit(2, 2), 1u);
  EXPECT_EQ(parity_server(l, 0), 2u);  // D0 on s0, D1 on s1 -> parity on s2
  EXPECT_EQ(parity_server(l, 1), 1u);  // D2 on s2, D3 on s0 -> parity on s1
  EXPECT_EQ(parity_server(l, 2), 0u);  // D4 on s1, D5 on s2 -> parity on s0
}

// Structural invariant: the parity server of a group never holds any of the
// group's data units, for any server count — single-failure recoverability.
class ParityPlacementProperty : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(ParityPlacementProperty, ParityServerHoldsNoGroupData) {
  const std::uint32_t n = GetParam();
  StripeLayout l{4096, n};
  for (std::uint64_t g = 0; g < 200; ++g) {
    const std::uint32_t ps = parity_server(l, g);
    for (std::uint64_t u = g * (n - 1); u < (g + 1) * (n - 1); ++u) {
      ASSERT_NE(l.server_of_unit(u), ps)
          << "group " << g << " unit " << u << " collides with parity";
    }
  }
}

TEST_P(ParityPlacementProperty, ParityLocalUnitsAreDense) {
  // Each server holds parity for every N-th group, packed densely into its
  // redundancy file: local indices 0,1,2,... per server with no gaps.
  const std::uint32_t n = GetParam();
  StripeLayout l{4096, n};
  std::vector<std::uint64_t> next(n, 0);
  for (std::uint64_t g = 0; g < 500; ++g) {
    const std::uint32_t ps = parity_server(l, g);
    ASSERT_EQ(parity_slot(l, g), next[ps]) << "group " << g;
    ++next[ps];
  }
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, ParityPlacementProperty,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 16));


// PVFS's `base` attribute shifts the whole placement; every structural
// invariant must hold for every base.
class BaseOffsetProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(BaseOffsetProperty, PlacementInvariantsHoldForEveryBase) {
  const auto [n, base] = GetParam();
  StripeLayout l{4096, n, ParityPlacement::rotating, base};
  // Unit 0 starts at the base server.
  EXPECT_EQ(l.server_of_unit(0), base % n);
  for (std::uint64_t g = 0; g < 100; ++g) {
    const std::uint32_t ps = parity_server(l, g);
    for (std::uint64_t u = g * (n - 1); u < (g + 1) * (n - 1); ++u) {
      ASSERT_NE(l.server_of_unit(u), ps)
          << "base " << base << " group " << g;
    }
  }
  // Parity files stay dense per server.
  std::vector<std::uint64_t> next(n, 0);
  for (std::uint64_t g = 0; g < 300; ++g) {
    const std::uint32_t ps = parity_server(l, g);
    ASSERT_EQ(parity_slot(l, g), next[ps]);
    ++next[ps];
  }
  // Decomposition still covers exactly.
  Rng rng(47 + base);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t off = rng.below(100000);
    const std::uint64_t len = 1 + rng.below(50000);
    std::uint64_t total = 0;
    for (const auto& e : l.decompose(off, len)) {
      ASSERT_EQ(e.server, l.server_of_unit(l.unit_of(e.global_off)));
      total += e.len;
    }
    ASSERT_EQ(total, len);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BasesAndSizes, BaseOffsetProperty,
    ::testing::Combine(::testing::Values(3u, 5u, 6u, 8u),
                       ::testing::Values(0u, 1u, 2u, 4u)));

TEST(Layout, DecomposeSingleUnit) {
  StripeLayout l{1024, 4};
  auto ex = l.decompose(100, 200);
  ASSERT_EQ(ex.size(), 1u);
  EXPECT_EQ(ex[0].server, 0u);
  EXPECT_EQ(ex[0].global_off, 100u);
  EXPECT_EQ(ex[0].local_off, 100u);
  EXPECT_EQ(ex[0].len, 200u);
}

TEST(Layout, DecomposeCrossesUnits) {
  StripeLayout l{1024, 4};
  auto ex = l.decompose(1000, 100);  // 24 bytes in unit 0, 76 in unit 1
  ASSERT_EQ(ex.size(), 2u);
  EXPECT_EQ(ex[0].server, 0u);
  EXPECT_EQ(ex[0].len, 24u);
  EXPECT_EQ(ex[1].server, 1u);
  EXPECT_EQ(ex[1].local_off, 0u);
  EXPECT_EQ(ex[1].len, 76u);
}

TEST(Layout, DecomposeCoversExactly) {
  StripeLayout l{512, 3};
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t off = rng.below(10000);
    const std::uint64_t len = 1 + rng.below(5000);
    auto ex = l.decompose(off, len);
    std::uint64_t pos = off;
    std::uint64_t total = 0;
    for (const auto& e : ex) {
      ASSERT_EQ(e.global_off, pos);  // contiguous, ordered
      ASSERT_EQ(e.server, l.server_of_unit(l.unit_of(e.global_off)));
      ASSERT_EQ(e.local_off, l.local_off(e.global_off));
      // Never crosses a unit boundary.
      ASSERT_EQ(l.unit_of(e.global_off), l.unit_of(e.global_off + e.len - 1));
      pos += e.len;
      total += e.len;
    }
    ASSERT_EQ(total, len);
  }
}

TEST(Layout, DecomposeMergedOneExtentPerServer) {
  StripeLayout l{512, 3};
  Rng rng(33);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t off = rng.below(10000);
    const std::uint64_t len = 1 + rng.below(8000);
    auto merged = l.decompose_merged(off, len);
    std::set<std::uint32_t> seen;
    std::uint64_t total = 0;
    for (const auto& e : merged) {
      ASSERT_TRUE(seen.insert(e.server).second) << "duplicate server extent";
      total += e.len;
    }
    ASSERT_EQ(total, len);
    // Merged extent length equals the sum of that server's unit pieces, and
    // the pieces tile [local_off, local_off + len) exactly.
    for (const auto& m : merged) {
      std::uint64_t pos = m.local_off;
      for (const auto& e : l.decompose(off, len)) {
        if (e.server != m.server) continue;
        ASSERT_EQ(e.local_off, pos);
        pos += e.len;
      }
      ASSERT_EQ(pos, m.local_off + m.len);
    }
  }
}

TEST(Layout, ServerBytesMatchesDecompose) {
  Rng rng(35);
  for (int trial = 0; trial < 400; ++trial) {
    StripeLayout l{static_cast<std::uint32_t>(1 + rng.below(700)),
                   static_cast<std::uint32_t>(2 + rng.below(6)),
                   rng.chance(0.5) ? ParityPlacement::rotating
                                   : ParityPlacement::fixed,
                   static_cast<std::uint32_t>(rng.below(9))};
    const std::uint64_t off = rng.below(20000);
    const std::uint64_t len = rng.below(12000);
    std::vector<std::uint64_t> want(l.n(), 0);
    for (const auto& e : l.decompose(off, len)) want[e.server] += e.len;
    for (std::uint32_t s = 0; s < l.n(); ++s) {
      ASSERT_EQ(l.server_bytes(off, len, s), want[s])
          << "trial " << trial << " server " << s;
    }
  }
}

TEST(Layout, SplitWriteAligned) {
  StripeLayout l{1000, 3};  // width 2000
  auto ws = l.split_write(2000, 4000);
  EXPECT_EQ(ws.head_start, ws.head_end);  // empty head
  EXPECT_EQ(ws.full_start, 2000u);
  EXPECT_EQ(ws.full_end, 6000u);
  EXPECT_EQ(ws.tail_start, ws.tail_end);  // empty tail
}

TEST(Layout, SplitWriteUnaligned) {
  StripeLayout l{1000, 3};  // width 2000
  auto ws = l.split_write(1500, 5000);    // [1500, 6500)
  EXPECT_EQ(ws.head_start, 1500u);
  EXPECT_EQ(ws.head_end, 2000u);
  EXPECT_EQ(ws.full_start, 2000u);
  EXPECT_EQ(ws.full_end, 6000u);
  EXPECT_EQ(ws.tail_start, 6000u);
  EXPECT_EQ(ws.tail_end, 6500u);
}

TEST(Layout, SplitWriteInsideOneGroup) {
  StripeLayout l{1000, 3};
  auto ws = l.split_write(100, 500);
  EXPECT_EQ(ws.head_start, 100u);
  EXPECT_EQ(ws.head_end, 600u);
  EXPECT_EQ(ws.full_start, ws.full_end);
  EXPECT_EQ(ws.tail_start, ws.tail_end);
}

TEST(Layout, SplitWriteCrossesBoundaryWithoutFullGroup) {
  StripeLayout l{1000, 3};
  auto ws = l.split_write(1800, 400);  // [1800, 2200): two partial segments
  EXPECT_EQ(ws.head_start, 1800u);
  EXPECT_EQ(ws.head_end, 2000u);
  EXPECT_EQ(ws.full_start, ws.full_end);
  EXPECT_EQ(ws.tail_start, 2000u);
  EXPECT_EQ(ws.tail_end, 2200u);
}

TEST(Layout, SplitWriteProperty) {
  StripeLayout l{512, 5};
  Rng rng(37);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint64_t off = rng.below(100000);
    const std::uint64_t len = 1 + rng.below(50000);
    auto ws = l.split_write(off, len);
    const std::uint64_t w = l.stripe_width();
    // The three parts tile [off, off+len) in order.
    ASSERT_EQ(ws.head_start, off);
    ASSERT_LE(ws.head_start, ws.head_end);
    ASSERT_EQ(ws.full_start, ws.head_end);
    ASSERT_LE(ws.full_start, ws.full_end);
    ASSERT_EQ(ws.tail_start, ws.full_end);
    ASSERT_LE(ws.tail_start, ws.tail_end);
    ASSERT_EQ(ws.tail_end, off + len);
    // A non-empty full part is group-aligned; partials never span a group.
    if (ws.full_end > ws.full_start) {
      ASSERT_EQ(ws.full_start % w, 0u);
      ASSERT_EQ(ws.full_end % w, 0u);
    }
    ASSERT_LT(ws.head_end - ws.head_start, w);
    ASSERT_LT(ws.tail_end - ws.tail_start, w);
    // The paper's claim: at most two partial stripes per contiguous write.
    int partials = 0;
    if (ws.head_end > ws.head_start) ++partials;
    if (ws.tail_end > ws.tail_start) ++partials;
    ASSERT_LE(partials, 2);
  }
}

TEST(Layout, TwoServerDegenerateParity) {
  // N=2: groups are single units; parity is effectively a rotated mirror.
  StripeLayout l{1024, 2};
  EXPECT_EQ(l.stripe_width(), 1024u);
  EXPECT_EQ(parity_server(l, 0), 1u);  // unit 0 on s0 -> parity on s1
  EXPECT_EQ(parity_server(l, 1), 0u);  // unit 1 on s1 -> parity on s0
}

// The dense coding-slot map, for every N <= 16, k+m <= N and base < N:
// collision-free, at most one unused slot per server per period, and
// inverted exactly by coding_at (what merge_crash_losses relies on).
TEST(CodingSlotMap, DenseCollisionFreeAndInvertible) {
  constexpr std::uint64_t kPeriods = 3;
  for (std::uint32_t n = 2; n <= 16; ++n) {
    for (std::uint32_t base = 0; base < n; ++base) {
      const StripeLayout l{4096, n, ParityPlacement::rotating, base};
      for (std::uint32_t k = 1; k < n; ++k) {
        for (std::uint32_t m = 1; k + m <= n; ++m) {
          const std::uint32_t d = std::gcd(k, n);
          const std::uint64_t period = n / d;        // groups per period
          const std::uint64_t per = (m + d - 1) / d;  // slots per period
          // owner[s][q]: the (g, j) stored in slot q of server s.
          std::vector<std::vector<std::optional<std::pair<std::uint64_t,
                                                          std::uint32_t>>>>
              owner(n, std::vector<std::optional<
                           std::pair<std::uint64_t, std::uint32_t>>>(
                           kPeriods * per));
          for (std::uint64_t g = 0; g < kPeriods * period; ++g) {
            std::set<std::uint32_t> group_servers;
            for (std::uint32_t i = 0; i < k; ++i) {
              group_servers.insert(l.data_server(g, k, i));
            }
            for (std::uint32_t j = 0; j < m; ++j) {
              const std::uint32_t s = l.coding_server(g, k, j);
              const std::uint64_t q = l.coding_slot(g, k, m, j);
              ASSERT_TRUE(group_servers.insert(s).second)
                  << "n=" << n << " k=" << k << " m=" << m << " g=" << g;
              ASSERT_LT(q, kPeriods * per);
              ASSERT_FALSE(owner[s][q].has_value())
                  << "slot collision n=" << n << " base=" << base
                  << " k=" << k << " m=" << m << " g=" << g << " j=" << j;
              owner[s][q] = std::pair<std::uint64_t, std::uint32_t>{g, j};
            }
          }
          for (std::uint32_t s = 0; s < n; ++s) {
            for (std::uint64_t p = 0; p < kPeriods; ++p) {
              std::uint64_t unused = 0;
              for (std::uint64_t q = p * per; q < (p + 1) * per; ++q) {
                if (!owner[s][q]) ++unused;
              }
              ASSERT_LE(unused, 1u) << "n=" << n << " k=" << k << " m=" << m
                                    << " server " << s << " period " << p;
            }
            for (std::uint64_t q = 0; q < kPeriods * per; ++q) {
              ASSERT_EQ(l.coding_at(s, q, k, m), owner[s][q])
                  << "n=" << n << " base=" << base << " k=" << k
                  << " m=" << m << " server " << s << " slot " << q;
            }
          }
        }
      }
    }
  }
}

// With k = N-1, m = 1 the map is the paper's parity placement: rotating
// parity on the one server without group data, dense slot g/N; RAID4's
// fixed parity server N-1, slot g.
TEST(CodingSlotMap, ParityCaseIsTheClassicPlacement) {
  for (std::uint32_t n = 2; n <= 16; ++n) {
    for (std::uint32_t base = 0; base < n; ++base) {
      const StripeLayout rot{4096, n, ParityPlacement::rotating, base};
      const StripeLayout fixed{4096, n, ParityPlacement::fixed, base};
      for (std::uint64_t g = 0; g < 4 * n; ++g) {
        ASSERT_EQ(rot.coding_server(g, n - 1, 0),
                  (base + (g + 1) * (n - 1)) % n);
        ASSERT_EQ(rot.coding_slot(g, n - 1, 1, 0), g / n);
        ASSERT_EQ(fixed.coding_server(g, n - 1, 0), n - 1);
        ASSERT_EQ(fixed.coding_slot(g, n - 1, 1, 0), g);
        const auto at = fixed.coding_at(n - 1, g, n - 1, 1);
        ASSERT_TRUE(at.has_value());
        EXPECT_EQ(at->first, g);
        EXPECT_EQ(at->second, 0u);
        for (std::uint32_t s = 0; s + 1 < n; ++s) {
          ASSERT_FALSE(fixed.coding_at(s, g, n - 1, 1).has_value());
        }
      }
    }
  }
}

}  // namespace
}  // namespace csar::pvfs
