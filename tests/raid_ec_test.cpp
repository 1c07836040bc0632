// Reed-Solomon rs(k,m) as a first-class scheme: the GF(2^8) codec kernel
// (MDS property, SIMD/scalar bit-identity), scheme-spec round-tripping, and
// the end-to-end paths — writes, multi-failure degraded reads and writes,
// double-wipe rebuild, online Hybrid -> rs(4,2) migration and the scrubber.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "hw/disk.hpp"
#include "hw/page_cache.hpp"
#include "pvfs/io_server.hpp"
#include "raid/migrate.hpp"
#include "raid/recovery.hpp"
#include "raid/rig.hpp"
#include "raid/scrub.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::RefFile;
using csar::test::run_sim;
using csar::test::run_sim_void;
using pvfs::IoServer;

constexpr std::uint32_t kSu = 4096;

RigParams rs_rig(Scheme scheme, std::uint32_t nservers = 6) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = nservers;
  return p;
}

// ---------- GF(2^8) field and region kernels ----------

TEST(GfField, InverseAndIdentity) {
  for (std::uint32_t a = 1; a < 256; ++a) {
    const auto ab = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_mul(ab, gf_inv(ab)), 1) << "a=" << a;
    EXPECT_EQ(gf_mul(ab, 1), ab);
    EXPECT_EQ(gf_mul(ab, 0), 0);
  }
}

TEST(GfField, RegionKernelsBitIdenticalToScalar) {
  const auto& scalar = codec_detail::gf_kernels().front();
  Rng rng(4242);
  for (const std::size_t len : {std::size_t{1}, std::size_t{31},
                                std::size_t{1000}, std::size_t{4096},
                                std::size_t{4097}}) {
    std::vector<std::byte> src(len), a(len), b(len);
    for (std::size_t i = 0; i < len; ++i) {
      src[i] = static_cast<std::byte>(rng.next());
      a[i] = b[i] = static_cast<std::byte>(rng.next());
    }
    for (const std::uint8_t c : {0, 1, 2, 0x1d, 0x80, 0xff}) {
      std::vector<std::byte> am = a, bm = b;
      gf_muladd_region(am, src, c);
      scalar.muladd(bm.data(), src.data(), len, c);
      EXPECT_EQ(am, bm) << "muladd len=" << len << " c=" << int(c)
                        << " dispatch=" << codec_dispatch_name();
      gf_mul_region(am, src, c);
      scalar.mul(bm.data(), src.data(), len, c);
      EXPECT_EQ(am, bm) << "mul len=" << len << " c=" << int(c);
    }
  }
}

// Every GF kernel the CPU supports (scalar, SSSE3, AVX2, GFNI), mul and
// muladd, against the per-byte log/exp table walk: all 256 constants, every
// length 0..300, and every src/dst misalignment within a cache line (the
// (len, c) sweep steps the pair through all 64x64 combinations), with guard
// bytes on both sides of dst.
TEST(GfField, EveryKernelMatchesTableWalk) {
  constexpr std::size_t kMaxLen = 300;
  constexpr std::size_t kMis = 64;
  constexpr std::size_t kGuard = 64;
  const auto kernels = codec_detail::gf_kernels();
  ASSERT_STREQ(kernels.front().name, "scalar");
  Rng rng(7331);
  std::vector<std::byte> src_pool(kMis + kMaxLen);
  std::vector<std::byte> dst_pool(kGuard + kMis + kMaxLen + kGuard);
  for (auto& b : src_pool) b = static_cast<std::byte>(rng.next());
  for (auto& b : dst_pool) b = static_cast<std::byte>(rng.next());
  std::vector<std::byte> mul_want(dst_pool.size());
  std::vector<std::byte> add_want(dst_pool.size());
  std::vector<std::byte> got(dst_pool.size());
  for (std::size_t n = 0; n <= kMaxLen; ++n) {
    for (std::uint32_t c = 0; c < 256; ++c) {
      const auto cb = static_cast<std::uint8_t>(c);
      const std::byte* src = src_pool.data() + (n + c) % kMis;
      const std::size_t dm = kGuard + c % kMis;
      mul_want = dst_pool;
      add_want = dst_pool;
      for (std::size_t i = 0; i < n; ++i) {
        const auto p = static_cast<std::byte>(
            gf_mul(cb, static_cast<std::uint8_t>(src[i])));
        mul_want[dm + i] = p;
        add_want[dm + i] ^= p;
      }
      for (const auto& k : kernels) {
        got = dst_pool;
        k.mul(got.data() + dm, src, n, cb);
        ASSERT_EQ(got, mul_want) << k.name << " mul len " << n << " c " << c;
        got = dst_pool;
        k.muladd(got.data() + dm, src, n, cb);
        ASSERT_EQ(got, add_want)
            << k.name << " muladd len " << n << " c " << c;
      }
    }
  }
}

TEST(RsCode, CodingRowZeroIsXorParity) {
  // Column scaling pins generator row 0 to all ones, so RS(k,1) encodes
  // byte-identically to the XOR parity schemes.
  for (std::uint32_t k = 1; k <= 16; ++k) {
    for (std::uint32_t m = 1; m <= 7; ++m) {
      const CodeSpec spec{k, m};
      for (std::uint32_t i = 0; i < k; ++i) {
        EXPECT_EQ(rs_coeff(spec, 0, i), 1) << "k=" << k << " m=" << m;
      }
    }
  }
}

/// Encode `data` (k fragments of `len` bytes) into m coding fragments.
std::vector<std::vector<std::byte>> encode_group(
    CodeSpec spec, const std::vector<std::vector<std::byte>>& data,
    std::size_t len) {
  std::vector<std::vector<std::byte>> coding(spec.m,
                                             std::vector<std::byte>(len));
  for (std::uint32_t j = 0; j < spec.m; ++j) {
    for (std::uint32_t i = 0; i < spec.k; ++i) {
      gf_muladd_region(coding[j], data[i], rs_coeff(spec, j, i));
    }
  }
  return coding;
}

TEST(RsCode, MdsAnyKSubsetRecoversEveryFragment) {
  for (const CodeSpec spec : {CodeSpec{4, 2}, CodeSpec{6, 3}, CodeSpec{2, 2},
                              CodeSpec{1, 1}, CodeSpec{5, 1}}) {
    const std::size_t len = 64;
    Rng rng(1000 + spec.k * 8 + spec.m);
    std::vector<std::vector<std::byte>> frag(spec.fragments(),
                                             std::vector<std::byte>(len));
    for (std::uint32_t i = 0; i < spec.k; ++i) {
      for (auto& b : frag[i]) b = static_cast<std::byte>(rng.next());
    }
    const auto coding = encode_group(
        spec, {frag.begin(), frag.begin() + spec.k}, len);
    for (std::uint32_t j = 0; j < spec.m; ++j) frag[spec.k + j] = coding[j];

    // Every k-subset of the k+m fragments must reconstruct every fragment.
    const std::uint32_t n = spec.fragments();
    std::vector<std::uint32_t> present(spec.k);
    std::vector<bool> pick(n, false);
    std::fill(pick.begin(), pick.begin() + spec.k, true);
    do {
      std::uint32_t w = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (pick[i]) present[w++] = i;
      }
      for (std::uint32_t target = 0; target < n; ++target) {
        const auto coeffs = rs_reconstruct_coeffs(spec, present, target);
        std::vector<std::byte> got(len);
        for (std::uint32_t r = 0; r < spec.k; ++r) {
          gf_muladd_region(got, frag[present[r]], coeffs[r]);
        }
        EXPECT_EQ(got, frag[target])
            << "k=" << spec.k << " m=" << spec.m << " target=" << target;
      }
    } while (std::prev_permutation(pick.begin(), pick.end()));
  }
}

TEST(RsCode, EncodeDeltaMatchesFullRecompute) {
  const CodeSpec spec{4, 2};
  const std::size_t len = 128;
  Rng rng(7);
  std::vector<std::vector<std::byte>> data(spec.k, std::vector<std::byte>(len));
  for (auto& f : data) {
    for (auto& b : f) b = static_cast<std::byte>(rng.next());
  }
  auto coding = encode_group(spec, data, len);

  // Overwrite fragment 2 and apply the delta form: coding[j] ^= g[j][2]*(old^new).
  std::vector<std::byte> neu(len), delta(len);
  for (std::size_t i = 0; i < len; ++i) {
    neu[i] = static_cast<std::byte>(rng.next());
    delta[i] = data[2][i] ^ neu[i];
  }
  std::vector<std::span<std::byte>> regions;
  for (auto& c : coding) regions.emplace_back(c);
  rs_encode_delta(spec, 2, delta, regions);
  data[2] = neu;
  EXPECT_EQ(coding, encode_group(spec, data, len));
}

// ---------- scheme-spec round-tripping ----------

TEST(SchemeSpec, NameTagParseRoundTripAllSchemes) {
  std::vector<Scheme> all = {Scheme::raid0,        Scheme::raid1,
                             Scheme::raid4,        Scheme::raid5,
                             Scheme::raid5_nolock, Scheme::raid5_npc,
                             Scheme::hybrid};
  for (std::uint32_t k = 1; k <= kMaxRsK; ++k) {
    for (std::uint32_t m = 1; m <= kMaxRsM; ++m) {
      all.push_back(Scheme::rs(k, m));
    }
  }
  std::set<std::uint8_t> tags;
  for (const Scheme s : all) {
    const auto parsed = parse_scheme(scheme_name(s));
    ASSERT_TRUE(parsed.has_value()) << scheme_name(s);
    EXPECT_EQ(*parsed, s);
    const std::uint8_t tag = scheme_tag(s);
    EXPECT_NE(tag, pvfs::kSchemeUnset);
    EXPECT_EQ(scheme_from_tag(tag), s);
    EXPECT_TRUE(tags.insert(tag).second)
        << "tag collision at " << scheme_name(s);
  }
}

TEST(SchemeSpec, ParseRejectsMalformedAndOutOfBounds) {
  for (const char* bad :
       {"", "raid6", "rs", "rs()", "rs(4)", "rs(,2)", "rs(4,)", "rs(4,2",
        "rs(4,2))", "rs(0,2)", "rs(17,1)", "rs(4,8)", "rs(4,0)", "rs(a,2)",
        "rs(4,2,1)", "rs(999999999999,2)"}) {
    EXPECT_FALSE(parse_scheme(bad).has_value()) << bad;
  }
  EXPECT_EQ(parse_scheme("RS(4,2)"), Scheme::rs(4, 2));  // case-folded
  EXPECT_EQ(parse_scheme("rs(16,7)"), Scheme::rs(16, 7));
}

TEST(SchemeSpec, ListParserKeepsCommasInsideParens) {
  const auto mix = parse_scheme_list("rs(4,2), raid1 ,hybrid");
  ASSERT_TRUE(mix.has_value());
  ASSERT_EQ(mix->size(), 3u);
  EXPECT_EQ((*mix)[0], Scheme::rs(4, 2));
  EXPECT_EQ((*mix)[1], Scheme::raid1);
  EXPECT_EQ((*mix)[2], Scheme::hybrid);

  const auto one = parse_scheme_list("rs(16,7)");
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ((*one)[0], Scheme::rs(16, 7));

  for (const char* bad : {"", "rs(4,2),bogus", "rs(4,", "raid5,,raid1"}) {
    EXPECT_FALSE(parse_scheme_list(bad).has_value()) << bad;
  }
}

TEST(SchemeSpec, ListParserEdgeCases) {
  // Nested parens: the splitter keeps "rs(rs(4,2),2)" whole (balanced), and
  // parse_scheme then rejects the non-numeric k.
  EXPECT_FALSE(parse_scheme_list("rs(rs(4,2),2)").has_value());
  // Unbalanced parens fail even when each shorn element might parse.
  EXPECT_FALSE(parse_scheme_list("rs(4,2").has_value());
  EXPECT_FALSE(parse_scheme_list("rs(4,2))").has_value());
  EXPECT_FALSE(parse_scheme_list(")raid5(").has_value());
  EXPECT_FALSE(parse_scheme_list("rs((4,2)").has_value());
  // Empty items: leading, trailing and doubled commas all reject.
  EXPECT_FALSE(parse_scheme_list(",raid5").has_value());
  EXPECT_FALSE(parse_scheme_list("raid5,").has_value());
  EXPECT_FALSE(parse_scheme_list("raid5,,raid1").has_value());
  EXPECT_FALSE(parse_scheme_list("   ").has_value());
  EXPECT_FALSE(parse_scheme_list(" , ").has_value());
  // Whitespace around elements (spaces and tabs) is tolerated; whitespace
  // inside a spec is not.
  const auto ws = parse_scheme_list("  rs(4,2)\t,\t raid1  ");
  ASSERT_TRUE(ws.has_value());
  ASSERT_EQ(ws->size(), 2u);
  EXPECT_EQ((*ws)[0], Scheme::rs(4, 2));
  EXPECT_EQ((*ws)[1], Scheme::raid1);
  EXPECT_FALSE(parse_scheme_list("rs (4,2)").has_value());
  // Duplicate prefixes: raid5 / raid5_nolock / raid5_npc are distinct
  // spellings, and literal duplicates are allowed list entries.
  const auto dup = parse_scheme_list("raid5,raid5_nolock,raid5_npc,raid5");
  ASSERT_TRUE(dup.has_value());
  ASSERT_EQ(dup->size(), 4u);
  EXPECT_EQ((*dup)[0], Scheme::raid5);
  EXPECT_EQ((*dup)[1], Scheme::raid5_nolock);
  EXPECT_EQ((*dup)[2], Scheme::raid5_npc);
  EXPECT_EQ((*dup)[3], Scheme::raid5);
}

// ---------- end-to-end rs(k,m) on the full stack ----------

/// Verify the rs invariant directly on the servers' disks: every coding
/// fragment equals sum_i g[j][i] * data_unit_i of its group (zero-padded).
sim::Task<bool> rs_consistent(Rig& rig, const pvfs::OpenFile& f,
                              Scheme sch, std::uint64_t file_size,
                              std::uint32_t gen = 0) {
  const auto& lay = f.layout;
  const std::uint64_t su = lay.su();
  const CodeSpec spec{sch.k, sch.m};
  const std::uint64_t ngroups = div_ceil(file_size, lay.group_width(sch.k));
  bool ok = true;
  for (std::uint64_t g = 0; g < ngroups; ++g) {
    std::vector<Buffer> data;
    for (std::uint32_t i = 0; i < spec.k; ++i) {
      auto& ds = rig.server(lay.data_server(g, spec.k, i));
      const std::uint64_t u = g * spec.k + i;
      Buffer unit = co_await ds.fs().peek(IoServer::data_name(f.handle),
                                          lay.local_unit(u) * su, su);
      data.push_back(std::move(unit));
    }
    for (std::uint32_t j = 0; j < spec.m; ++j) {
      auto& cs = rig.server(lay.coding_server(g, spec.k, j));
      Buffer coding = co_await cs.fs().peek(
          IoServer::red_name(f.handle, gen), lay.coding_off(g, sch.k, sch.m, j),
          su);
      Buffer expect = Buffer::real(su);
      for (std::uint32_t i = 0; i < spec.k; ++i) {
        gf_muladd_region(expect.mutable_bytes(), data[i].bytes(),
                         rs_coeff(spec, j, i));
      }
      if (!(coding == expect)) {
        ADD_FAILURE() << "rs coding mismatch group " << g << " j=" << j;
        ok = false;
      }
    }
  }
  co_return ok;
}

TEST(RsEndToEnd, CreateRefusesRigNarrowerThanKPlusM) {
  // rs(6,3) needs 9 distinct servers; on a 6-wide rig create must fail
  // loudly instead of double-placing fragments and voiding the tolerance.
  Rig rig(rs_rig(Scheme::rs(6, 3), 6));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs().create("too-wide", r.layout(kSu));
    CO_ASSERT_TRUE(!f.ok());
  }(rig));
}

TEST(RsEndToEnd, RoundTripAndCodingInvariant) {
  Rig rig(rs_rig(Scheme::rs(4, 2)));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const Scheme sch = Scheme::rs(4, 2);
    const std::uint64_t w = f->layout.group_width(4);
    RefFile ref;
    Rng rng(90210);
    // Full-group writes, then a mix of unaligned and sub-unit RMW writes.
    {
      Buffer data = Buffer::pattern(3 * w, 1);
      ref.write(0, data);
      auto wr = co_await fs.write(*f, 0, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    for (int i = 0; i < 25; ++i) {
      const std::uint64_t off = rng.below(3 * w - 1);
      const std::uint64_t len =
          1 + rng.below(std::min<std::uint64_t>(3 * w - off - 1, 2 * w));
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto wr = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    auto rd = co_await fs.read(*f, 0, ref.size());
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, ref.size()));
    const bool consistent =
        co_await rs_consistent(r, *f, sch, ref.size());
    EXPECT_TRUE(consistent);
    EXPECT_GT(r.policy().ec_stats().encode_bytes, 0u);
  }(rig));
}

TEST(RsEndToEnd, DegradedReadSurvivesTwoFailures) {
  Rig rig(rs_rig(Scheme::rs(4, 2)));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.group_width(4);
    RefFile ref;
    Rng rng(31337);
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t off = rng.below(4 * w);
      const std::uint64_t len = 1 + rng.below(2 * w);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto wr = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    Recovery rec = r.recovery();
    // Every pair of victims: rs(4,2) must serve exact content with any two
    // of its six fragment holders gone.
    for (std::uint32_t a = 0; a < r.p.nservers; ++a) {
      for (std::uint32_t b = a + 1; b < r.p.nservers; ++b) {
        r.server(a).fail();
        r.server(b).fail();
        std::vector<std::uint32_t> down;
        down.push_back(a);
        down.push_back(b);
        auto rd = co_await rec.degraded_read(*f, 0, ref.size(), down);
        CO_ASSERT_TRUE(rd.ok());
        EXPECT_EQ(*rd, ref.expect(0, ref.size()))
            << "victims " << a << "," << b;
        r.server(a).recover();
        r.server(b).recover();
      }
    }
    // The MDS promise in numbers: every decode fetched exactly k fragments.
    const EcStats& e = r.policy().ec_stats();
    EXPECT_GT(e.degraded_reads, 0u);
    EXPECT_EQ(e.fragments_fetched, 4 * (e.degraded_reads + e.rebuild_decodes));
    EXPECT_GT(e.decode_bytes, 0u);
    // A third concurrent failure exceeds m and must be refused, not served.
    r.server(0).fail();
    r.server(1).fail();
    r.server(2).fail();
    std::vector<std::uint32_t> three;
    three.push_back(0);
    three.push_back(1);
    three.push_back(2);
    auto rd3 = co_await rec.degraded_read(*f, 0, ref.size(), three);
    EXPECT_FALSE(rd3.ok());
  }(rig));
}

TEST(RsEndToEnd, DegradedWriteKeepsLiveCodingConsistent) {
  Rig rig(rs_rig(Scheme::rs(4, 2)));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const Scheme sch = Scheme::rs(4, 2);
    const std::uint64_t w = f->layout.group_width(4);
    RefFile ref;
    {
      Buffer data = Buffer::pattern(3 * w, 5);
      ref.write(0, data);
      auto wr = co_await fs.write(*f, 0, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    // Two servers down; a mix of full-group and partial writes must land.
    r.server(1).fail();
    r.server(4).fail();
    Recovery rec = r.recovery();
    std::vector<std::uint32_t> down;
    down.push_back(1);
    down.push_back(4);
    Rng rng(555);
    for (int i = 0; i < 12; ++i) {
      const std::uint64_t off = rng.below(3 * w - 1);
      const std::uint64_t len =
          1 + rng.below(std::min<std::uint64_t>(3 * w - off - 1, w));
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto wr = co_await rec.degraded_write(*f, off, std::move(data), down);
      CO_ASSERT_TRUE(wr.ok());
    }
    // Still readable degraded...
    auto rd = co_await rec.degraded_read(*f, 0, ref.size(), down);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, ref.size()));
    // ...and after both victims are rebuilt, normal reads and the coding
    // invariant hold again.
    r.server(1).wipe();
    r.server(4).wipe();
    r.server(1).recover();
    r.server(4).recover();
    RebuildOptions opt1;
    opt1.also_down.push_back(4);
    auto rb1 = co_await rec.rebuild_server(*f, 1, ref.size(), opt1);
    CO_ASSERT_TRUE(rb1.ok());
    auto rb2 = co_await rec.rebuild_server(*f, 4, ref.size());
    CO_ASSERT_TRUE(rb2.ok());
    auto rd2 = co_await fs.read(*f, 0, ref.size());
    CO_ASSERT_TRUE(rd2.ok());
    EXPECT_EQ(*rd2, ref.expect(0, ref.size()));
    const bool consistent =
        co_await rs_consistent(r, *f, sch, ref.size());
    EXPECT_TRUE(consistent);
  }(rig));
}

TEST(RsEndToEnd, RebuildTwoWipedServersFromAnyKSurvivors) {
  Rig rig(rs_rig(Scheme::rs(4, 2)));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.group_width(4);
    RefFile ref;
    Rng rng(2026);
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t off = rng.below(4 * w);
      const std::uint64_t len = 1 + rng.below(2 * w);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto wr = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    // Both victims lose their disks at once. Rebuilding the first must
    // decode around the second (still down); then the second rebuilds.
    r.server(2).fail();
    r.server(5).fail();
    r.server(2).wipe();
    r.server(5).wipe();
    r.server(2).recover();
    Recovery rec = r.recovery();
    RebuildOptions opt;
    opt.also_down.push_back(5);
    auto rb1 = co_await rec.rebuild_server(*f, 2, ref.size(), opt);
    CO_ASSERT_TRUE(rb1.ok());
    r.server(5).recover();
    auto rb2 = co_await rec.rebuild_server(*f, 5, ref.size());
    CO_ASSERT_TRUE(rb2.ok());
    EXPECT_GT(r.policy().ec_stats().rebuild_decodes, 0u);

    auto rd = co_await fs.read(*f, 0, ref.size());
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, ref.size()));
    // The rebuilt redundancy carries a fresh double failure of different
    // servers.
    r.server(0).fail();
    r.server(3).fail();
    std::vector<std::uint32_t> down;
    down.push_back(0);
    down.push_back(3);
    auto rd2 = co_await rec.degraded_read(*f, 0, ref.size(), down);
    CO_ASSERT_TRUE(rd2.ok());
    EXPECT_EQ(*rd2, ref.expect(0, ref.size()));
  }(rig));
}

TEST(RsEndToEnd, OnlineHybridToRsMigration) {
  Rig rig(rs_rig(Scheme::hybrid));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs().create("hot", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t span = 4 * f->layout.stripe_width();
    RefFile ref;
    Rng rng(88001);
    {
      Buffer data = Buffer::pattern(span, rng.next());
      ref.write(0, data);
      auto wr = co_await r.client_fs().write(*f, 0, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    SchemeMigrator mig(r);
    mig.track("hot", *f, span);
    mig.start();

    bool writer_done = false;
    r.sim.spawn([](Rig& r, pvfs::OpenFile f, std::uint64_t span, RefFile* ref,
                   Rng* rng, bool* done) -> sim::Task<void> {
      for (int i = 0; i < 40; ++i) {
        const std::uint64_t off = rng->below(span - 1);
        const std::uint64_t len =
            1 + rng->below(std::min<std::uint64_t>(span - off - 1, 2 * kSu));
        Buffer data = Buffer::pattern(len, rng->next());
        ref->write(off, data);
        auto wr = co_await r.client_fs().write(f, off, std::move(data));
        EXPECT_TRUE(wr.ok());
        co_await r.sim.sleep(sim::ms(1));
      }
      *done = true;
    }(r, *f, span, &ref, &rng, &writer_done));

    co_await r.sim.sleep(sim::ms(10));
    mig.request(f->handle, Scheme::rs(4, 2));
    while (!writer_done || !mig.idle() ||
           mig.stats().migrations_started == 0) {
      co_await r.sim.sleep(sim::ms(1));
    }
    EXPECT_EQ(mig.stats().migrations_completed, 1u);
    EXPECT_TRUE(mig.stats().ok);
    EXPECT_EQ(r.policy().scheme_of(*f), Scheme::rs(4, 2));
    EXPECT_EQ(r.policy().red_gen_of(*f), 1u);

    // Byte-exact through the flip, and the manager persisted the rs tag.
    auto rd = co_await r.client_fs().read(*f, 0, ref.size());
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, ref.size()));
    auto f2 = co_await r.client().open("hot");
    CO_ASSERT_TRUE(f2.ok());
    EXPECT_EQ(scheme_from_tag(f2->scheme), Scheme::rs(4, 2));
    EXPECT_EQ(f2->red_gen, 1u);

    // The new coding carries a double failure of every victim pair.
    Recovery rec = r.recovery();
    for (std::uint32_t a = 0; a < r.p.nservers; ++a) {
      const std::uint32_t b = (a + 2) % r.p.nservers;
      r.server(a).fail();
      r.server(b).fail();
      std::vector<std::uint32_t> down;
      down.push_back(std::min(a, b));
      down.push_back(std::max(a, b));
      auto drd = co_await rec.degraded_read(*f, 0, ref.size(), down);
      CO_ASSERT_TRUE(drd.ok());
      EXPECT_EQ(*drd, ref.expect(0, ref.size())) << "victims " << a << "," << b;
      r.server(a).recover();
      r.server(b).recover();
    }

    // And the migrated file audits clean under its new scheme.
    Scrubber scrub(r.client(), &r.policy());
    auto rep = co_await scrub.verify(*f, ref.size());
    CO_ASSERT_TRUE(rep.ok());
    EXPECT_TRUE(rep->clean());

    mig.stop();
  }(rig));
}

TEST(RsEndToEnd, ScrubRepairsUpToMLatentErrorsPerGroup) {
  Rig rig(rs_rig(Scheme::rs(4, 2)));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.group_width(4);
    Buffer data = Buffer::pattern(2 * w, 9);
    auto wr = co_await fs.write(*f, 0, data.slice(0, 2 * w));
    CO_ASSERT_TRUE(wr.ok());
    // Two latent sector errors in group 0: one data unit, one coding
    // fragment — exactly m losses, still decodable. Flush + drop caches so
    // the scrub reads actually hit the planted disk errors.
    for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
      co_await r.server(s).fs().flush();
    }
    r.drop_all_caches();
    auto plant = [&r, &f](std::uint32_t server, const std::string& name,
                          std::uint64_t off, std::uint64_t len) {
      auto& srv = r.server(server);
      const std::uint64_t fid = srv.fs().fid_of(name);
      ASSERT_NE(fid, 0u);
      hw::Disk* disk = r.cluster.node(srv.node_id()).disk();
      disk->plant_media_error(hw::PageCache::page_addr(fid, 0, 1) + off, len);
    };
    plant(f->layout.data_server(0, 4, 1), IoServer::data_name(f->handle),
          0, kSu);
    plant(f->layout.coding_server(0, 4, 0), IoServer::red_name(f->handle),
          0, kSu);
    Scrubber scrub(r.client(), &r.policy());
    auto rep = co_await scrub.repair(*f, 2 * w);
    CO_ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep->media_errors, 2u);
    EXPECT_EQ(rep->repaired, 2u);
    EXPECT_EQ(rep->unrepairable, 0u);
    auto rd = co_await fs.read(*f, 0, 2 * w);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, data);
    // A second pass finds nothing left to fix.
    auto rep2 = co_await scrub.verify(*f, 2 * w);
    CO_ASSERT_TRUE(rep2.ok());
    EXPECT_TRUE(rep2->clean());
  }(rig));
}

// ---------- one engine: parity is rs(N-1,1) on disk ----------

/// Run the same write sequence (full stripes, unaligned partial writes and
/// a degraded write) against `scheme` on 5 servers with file base `base`,
/// and return every server's data and redundancy file contents.
std::vector<Buffer> on_disk_image(Scheme scheme, std::uint32_t base) {
  Rig rig(rs_rig(scheme, 5));
  std::vector<Buffer> image;
  run_sim_void(rig, [](Rig& r, std::uint32_t bs,
                       std::vector<Buffer>* out) -> sim::Task<void> {
    auto& fs = r.client_fs();
    pvfs::StripeLayout layout = r.layout(kSu);
    layout.base = bs;
    auto f = co_await fs.create("f", layout);
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    Rng rng(515);
    auto full = co_await fs.write(*f, 0, Buffer::pattern(7 * w, 1));
    CO_ASSERT_TRUE(full.ok());
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t off = rng.below(8 * w);
      const std::uint64_t len = 1 + rng.below(2 * w);
      auto wr = co_await fs.write(*f, off, Buffer::pattern(len, rng.next()));
      CO_ASSERT_TRUE(wr.ok());
    }
    r.server(2).fail();
    Recovery rec = r.recovery();
    auto dw = co_await rec.degraded_write(*f, w / 2, Buffer::pattern(w, 9), 2);
    CO_ASSERT_TRUE(dw.ok());
    r.server(2).recover();
    for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
      for (const std::string& name :
           {IoServer::data_name(f->handle), IoServer::red_name(f->handle)}) {
        auto& lfs = r.server(s).fs();
        out->push_back(co_await lfs.peek(name, 0, lfs.size(name)));
      }
    }
  }(rig, base, &image));
  return image;
}

TEST(OneEngine, Raid5AndRsN1LeaveIdenticalServerFiles) {
  for (const std::uint32_t base : {0u, 2u}) {
    const auto raid5 = on_disk_image(Scheme::raid5, base);
    const auto rs41 = on_disk_image(Scheme::rs(4, 1), base);
    ASSERT_EQ(raid5.size(), rs41.size());
    for (std::size_t i = 0; i < raid5.size(); ++i) {
      EXPECT_EQ(raid5[i].size(), rs41[i].size())
          << "base " << base << " server " << i / 2
          << (i % 2 == 0 ? " data" : " redundancy");
      EXPECT_TRUE(raid5[i] == rs41[i])
          << "base " << base << " server " << i / 2
          << (i % 2 == 0 ? " data" : " redundancy");
    }
  }
}

TEST(OneEngine, RsRedundancyIsDense) {
  // rs(4,2) on 6 servers stores (k+m)/k = 1.5x its data, to within one
  // unit per server: every server's coding slots are packed.
  Rig rig(rs_rig(Scheme::rs(4, 2), 6));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t bytes = 25 * f->layout.group_width(4);
    auto wr = co_await fs.write(*f, 0, Buffer::phantom(bytes));
    CO_ASSERT_TRUE(wr.ok());
    const pvfs::StorageInfo st = co_await fs.storage(*f);
    EXPECT_EQ(st.data_bytes, bytes);
    const std::uint64_t slack = r.p.nservers * kSu;
    EXPECT_LE(st.red_bytes, bytes / 2 + slack);
    EXPECT_GE(st.red_bytes + slack, bytes / 2);
  }(rig));
}

}  // namespace
}  // namespace csar::raid
