#include "codec.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CSAR_CODEC_X86 1
#else
#define CSAR_CODEC_X86 0
#endif

namespace csar {

// --- XOR kernels (moved from common/parity.cpp) ---

void xor_bytes(std::span<std::byte> dst, std::span<const std::byte> src) {
  assert(src.size() <= dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] ^= src[i];
}

void xor_words_single(std::span<std::byte> dst,
                      std::span<const std::byte> src) {
  assert(src.size() <= dst.size());
  std::size_t n = src.size();
  std::size_t i = 0;
  constexpr std::size_t W = sizeof(std::uint64_t);
  for (; i + W <= n; i += W) {
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, dst.data() + i, W);
    std::memcpy(&b, src.data() + i, W);
    a ^= b;
    std::memcpy(dst.data() + i, &a, W);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void xor_accumulate(std::span<std::byte> dst,
                    std::span<const std::span<const std::byte>> sources) {
  for (const auto& s : sources) {
    xor_words(dst, s.subspan(0, std::min(s.size(), dst.size())));
  }
}

// --- Region kernels: XOR and GF(2^8) ---

namespace {

/// Portable XOR kernel, dst[i] = a[i] ^ b[i] (the dispatch fallback and the
/// AVX2 kernel's tail). dst may alias a or b exactly: each block is loaded
/// before it is stored.
void xor_portable(std::byte* dst, const std::byte* a, const std::byte* b,
                  std::size_t n) {
  std::size_t i = 0;
  constexpr std::size_t W = sizeof(std::uint64_t);
  // 32-byte blocks (4 independent words per iteration): wide enough to keep
  // multiple XORs in flight, narrow enough that GCC keeps the block in
  // registers instead of spilling the local arrays.
  constexpr std::size_t B = 4 * W;
  for (; i + B <= n; i += B) {
    std::uint64_t x[4];
    std::uint64_t y[4];
    std::memcpy(x, a + i, B);
    std::memcpy(y, b + i, B);
    x[0] ^= y[0];
    x[1] ^= y[1];
    x[2] ^= y[2];
    x[3] ^= y[3];
    std::memcpy(dst + i, x, B);
  }
  for (; i + W <= n; i += W) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + i, W);
    std::memcpy(&y, b + i, W);
    x ^= y;
    std::memcpy(dst + i, &x, W);
  }
  for (; i < n; ++i) dst[i] = a[i] ^ b[i];
}

/// One 256-entry product row for a fixed constant c: row[b] = c * b.
/// Building it costs 256 table walks; the scalar region loop then does one
/// load per byte instead of two log lookups and an exp lookup.
struct MulRow {
  std::uint8_t row[256];
  explicit MulRow(std::uint8_t c) {
    row[0] = 0;
    if (c == 0) {
      std::memset(row, 0, sizeof(row));
      return;
    }
    const std::uint32_t lc = gf_log[c];
    for (std::uint32_t b = 1; b < 256; ++b) {
      row[b] = gf_exp[lc + gf_log[b]];
    }
  }
};

/// dst[i] = c*src[i] (kAcc false) or dst[i] ^= c*src[i] (kAcc true). Every
/// region kernel below has this shape, so mul and muladd share one body.
template <bool kAcc>
void region_scalar(std::byte* dst, const std::byte* src, std::size_t n,
                   std::uint8_t c) {
  const MulRow t(c);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p =
        static_cast<std::byte>(t.row[static_cast<std::uint8_t>(src[i])]);
    dst[i] = kAcc ? dst[i] ^ p : p;
  }
}

#if CSAR_CODEC_X86

/// Split nibble tables for the PSHUFB kernel: lo[v] = c*v, hi[v] = c*(v<<4)
/// for v in [0,16). A product byte is lo[b & 0xF] ^ hi[b >> 4] because GF
/// multiplication distributes over the XOR split b = (b & 0xF) ^ (b & 0xF0).
struct NibbleTables {
  alignas(16) std::uint8_t lo[16];
  alignas(16) std::uint8_t hi[16];
  explicit NibbleTables(std::uint8_t c) {
    for (std::uint32_t v = 0; v < 16; ++v) {
      lo[v] = gf_mul(c, static_cast<std::uint8_t>(v));
      hi[v] = gf_mul(c, static_cast<std::uint8_t>(v << 4));
    }
  }
};

template <bool kAcc>
__attribute__((target("ssse3"))) void region_ssse3(std::byte* dst,
                                                   const std::byte* src,
                                                   std::size_t n,
                                                   std::uint8_t c) {
  const NibbleTables t(c);
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i pl = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
    const __m128i ph =
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
    __m128i out = _mm_xor_si128(pl, ph);
    if constexpr (kAcc) {
      out = _mm_xor_si128(
          out, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i)));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), out);
  }
  if (i < n) region_scalar<kAcc>(dst + i, src + i, n - i, c);
}

template <bool kAcc>
__attribute__((target("avx2"))) void region_avx2(std::byte* dst,
                                                 const std::byte* src,
                                                 std::size_t n,
                                                 std::uint8_t c) {
  const NibbleTables t(c);
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i pl = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
    const __m256i ph = _mm256_shuffle_epi8(
        hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
    __m256i out = _mm256_xor_si256(pl, ph);
    if constexpr (kAcc) {
      out = _mm256_xor_si256(
          out, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), out);
  }
  if (i < n) region_scalar<kAcc>(dst + i, src + i, n - i, c);
}

/// The 8x8 GF(2) matrix of multiply-by-c over 0x11d for every c, laid out
/// for vgf2p8affineqb: output bit i is the parity of (src & byte[7-i]),
/// and column j of multiply-by-c is the product c * 2^j. Built at compile
/// time, so a region call costs one load, not 64 table walks.
struct AffineMatrices {
  std::uint64_t m[256] = {};
};
constexpr AffineMatrices make_affine_matrices() {
  AffineMatrices t{};
  for (std::uint32_t c = 0; c < 256; ++c) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      std::uint64_t row = 0;
      for (std::uint32_t j = 0; j < 8; ++j) {
        const std::uint8_t p = gf_mul(static_cast<std::uint8_t>(c),
                                      static_cast<std::uint8_t>(1u << j));
        row |= static_cast<std::uint64_t>((p >> i) & 1u) << j;
      }
      t.m[c] |= row << (8 * (7 - i));
    }
  }
  return t;
}
constexpr AffineMatrices kAffine = make_affine_matrices();

/// dst[i] = c*src[i] (or ^=) for the bytes of one zmm selected by `k`;
/// masked-out bytes are neither read nor written.
template <bool kAcc>
__attribute__((target("avx512f,avx512bw,gfni"), always_inline)) inline void
gfni_block(std::byte* dst, const std::byte* src, __m512i m, __mmask64 k) {
  __m512i out =
      _mm512_gf2p8affine_epi64_epi8(_mm512_maskz_loadu_epi8(k, src), m, 0);
  if constexpr (kAcc) {
    out = _mm512_xor_si512(out, _mm512_maskz_loadu_epi8(k, dst));
  }
  _mm512_mask_storeu_epi8(dst, k, out);
}

/// One vgf2p8affineqb per 64 bytes (plus a zmm XOR with dst for muladd),
/// four independent blocks per iteration, then single blocks; the
/// sub-64-byte tail is one masked pass, so no byte past n is touched.
template <bool kAcc>
__attribute__((target("avx512f,avx512bw,gfni"))) void region_gfni(
    std::byte* dst, const std::byte* src, std::size_t n, std::uint8_t c) {
  const __m512i m = _mm512_set1_epi64(static_cast<long long>(kAffine.m[c]));
  constexpr __mmask64 kAll = ~__mmask64{0};
  std::size_t i = 0;
  for (; i + 256 <= n; i += 256) {
    gfni_block<kAcc>(dst + i, src + i, m, kAll);
    gfni_block<kAcc>(dst + i + 64, src + i + 64, m, kAll);
    gfni_block<kAcc>(dst + i + 128, src + i + 128, m, kAll);
    gfni_block<kAcc>(dst + i + 192, src + i + 192, m, kAll);
  }
  for (; i + 64 <= n; i += 64) gfni_block<kAcc>(dst + i, src + i, m, kAll);
  if (i < n) gfni_block<kAcc>(dst + i, src + i, m, kAll >> (64 - (n - i)));
}

/// dst[i] = a[i] ^ b[i] over 128-byte blocks of four independent ymm XORs,
/// then 32-byte blocks; the sub-32-byte tail goes to the portable kernel.
__attribute__((target("avx2"))) void xor_avx2(std::byte* dst,
                                              const std::byte* a,
                                              const std::byte* b,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    auto* d = reinterpret_cast<__m256i*>(dst + i);
    const auto* x = reinterpret_cast<const __m256i*>(a + i);
    const auto* y = reinterpret_cast<const __m256i*>(b + i);
    const __m256i x0 =
        _mm256_xor_si256(_mm256_loadu_si256(x + 0), _mm256_loadu_si256(y + 0));
    const __m256i x1 =
        _mm256_xor_si256(_mm256_loadu_si256(x + 1), _mm256_loadu_si256(y + 1));
    const __m256i x2 =
        _mm256_xor_si256(_mm256_loadu_si256(x + 2), _mm256_loadu_si256(y + 2));
    const __m256i x3 =
        _mm256_xor_si256(_mm256_loadu_si256(x + 3), _mm256_loadu_si256(y + 3));
    _mm256_storeu_si256(d + 0, x0);
    _mm256_storeu_si256(d + 1, x1);
    _mm256_storeu_si256(d + 2, x2);
    _mm256_storeu_si256(d + 3, x3);
  }
  for (; i + 32 <= n; i += 32) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i))));
  }
  if (i < n) xor_portable(dst + i, a + i, b + i, n - i);
}

#endif  // CSAR_CODEC_X86

using codec_detail::GfKernel;
using codec_detail::PatternKernel;
using XorFn = void (*)(std::byte*, const std::byte*, const std::byte*,
                      std::size_t);

/// Every per-byte kernel the CPU supports, and the one each call dispatches
/// to (the best: the last of each list).
struct Dispatch {
  std::vector<GfKernel> gf;
  std::vector<PatternKernel> pattern;
  XorFn xor_region = &xor_portable;
  codec_detail::RegionFn muladd = nullptr;
  codec_detail::RegionFn mul = nullptr;
  codec_detail::PatternFn fill = nullptr;
  std::string name;
};

/// Single runtime-dispatch point for every per-byte kernel: resolved once,
/// at first use, from CPU feature bits. All variants are bit-identical
/// (GF and XOR arithmetic and the LCG are exact), so the choice never
/// affects simulated results.
const Dispatch& dispatch() {
  static const Dispatch d = [] {
    Dispatch r;
    const char* xor_name = "portable";
    r.gf.push_back({"scalar", &region_scalar<false>, &region_scalar<true>});
    r.pattern.push_back({"scalar", &codec_detail::pattern_fill_scalar});
#if CSAR_CODEC_X86
    if (__builtin_cpu_supports("ssse3")) {
      r.gf.push_back({"ssse3", &region_ssse3<false>, &region_ssse3<true>});
    }
    if (__builtin_cpu_supports("avx2")) {
      r.xor_region = &xor_avx2;
      xor_name = "avx2";
      r.gf.push_back({"avx2", &region_avx2<false>, &region_avx2<true>});
    }
    const bool avx512bw = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512bw");
    if (avx512bw && __builtin_cpu_supports("gfni")) {
      r.gf.push_back({"gfni", &region_gfni<false>, &region_gfni<true>});
    }
    if (__builtin_cpu_supports("avx512dq")) {
      r.pattern.push_back(
          {"avx512dq", &codec_detail::pattern_fill_avx512dq});
    }
    if (__builtin_cpu_supports("avx512ifma") &&
        __builtin_cpu_supports("avx512vbmi")) {
      r.pattern.push_back({"ifma", &codec_detail::pattern_fill_ifma});
    }
#endif
    r.mul = r.gf.back().mul;
    r.muladd = r.gf.back().muladd;
    r.fill = r.pattern.back().fill;
    r.name = std::string("gf=") + r.gf.back().name + " xor=" + xor_name +
             " pattern=" + r.pattern.back().name;
    return r;
  }();
  return d;
}

}  // namespace

const char* codec_dispatch_name() { return dispatch().name.c_str(); }

std::span<const GfKernel> codec_detail::gf_kernels() { return dispatch().gf; }

std::span<const PatternKernel> codec_detail::pattern_kernels() {
  return dispatch().pattern;
}

void pattern_fill(std::span<std::byte> out, std::uint64_t x0) {
  dispatch().fill(out.data(), out.size(), x0);
}

void xor_words(std::span<std::byte> dst, std::span<const std::byte> src) {
  assert(src.size() <= dst.size());
  dispatch().xor_region(dst.data(), dst.data(), src.data(), src.size());
}

void xor_into(std::span<std::byte> dst, std::span<const std::byte> a,
              std::span<const std::byte> b) {
  assert(a.size() == b.size() && a.size() <= dst.size());
  dispatch().xor_region(dst.data(), a.data(), b.data(), a.size());
}

void gf_muladd_region(std::span<std::byte> dst, std::span<const std::byte> src,
                      std::uint8_t c) {
  assert(src.size() <= dst.size());
  if (c == 0) return;
  if (c == 1) {
    xor_words(dst, src);
    return;
  }
  dispatch().muladd(dst.data(), src.data(), src.size(), c);
}

void gf_mul_region(std::span<std::byte> dst, std::span<const std::byte> src,
                   std::uint8_t c) {
  assert(src.size() <= dst.size());
  if (c == 0) {
    std::memset(dst.data(), 0, src.size());
    return;
  }
  if (c == 1) {
    std::memmove(dst.data(), src.data(), src.size());
    return;
  }
  dispatch().mul(dst.data(), src.data(), src.size(), c);
}

// --- Reed-Solomon coefficients ---

std::uint8_t rs_coeff(CodeSpec spec, std::uint32_t j, std::uint32_t i) {
  assert(spec.k >= 1 && spec.m >= 1 && spec.fragments() <= kMaxCodeFragments);
  assert(j < spec.m && i < spec.k);
  // Cauchy matrix over the disjoint index sets x_j = k+j, y_i = i, with
  // column i scaled by (x_0 ^ y_i) so row 0 is all ones (coding fragment 0
  // == XOR parity, so RS(k,1) is exactly RAID5 parity).
  const std::uint8_t xj = static_cast<std::uint8_t>(spec.k + j);
  const std::uint8_t yi = static_cast<std::uint8_t>(i);
  const std::uint8_t cauchy = gf_inv(xj ^ yi);
  const std::uint8_t scale = static_cast<std::uint8_t>(spec.k) ^ yi;
  return gf_mul(cauchy, scale);
}

std::vector<std::uint8_t> rs_row(CodeSpec spec, std::uint32_t j) {
  std::vector<std::uint8_t> row(spec.k);
  for (std::uint32_t i = 0; i < spec.k; ++i) row[i] = rs_coeff(spec, j, i);
  return row;
}

std::vector<std::uint8_t> rs_reconstruct_coeffs(
    CodeSpec spec, std::span<const std::uint32_t> present,
    std::uint32_t target) {
  const std::uint32_t k = spec.k;
  if (present.size() != k || target >= spec.fragments()) std::abort();

  // Trivial selector when the target is itself present.
  for (std::uint32_t r = 0; r < k; ++r) {
    if (present[r] == target) {
      std::vector<std::uint8_t> sel(k, 0);
      sel[r] = 1;
      return sel;
    }
  }

  // Row r of A is the [I; G] row of fragment present[r], restricted to the
  // k data columns; invert A by Gauss-Jordan with the identity augmented.
  std::vector<std::uint8_t> a(k * k, 0);
  std::vector<std::uint8_t> inv(k * k, 0);
  for (std::uint32_t r = 0; r < k; ++r) {
    const std::uint32_t f = present[r];
    if (f >= spec.fragments()) std::abort();
    for (std::uint32_t r2 = r + 1; r2 < k; ++r2) {
      if (present[r2] == f) std::abort();  // duplicate fragment index
    }
    if (f < k) {
      a[r * k + f] = 1;
    } else {
      for (std::uint32_t i = 0; i < k; ++i) a[r * k + i] = rs_coeff(spec, f - k, i);
    }
    inv[r * k + r] = 1;
  }
  for (std::uint32_t col = 0; col < k; ++col) {
    std::uint32_t piv = col;
    while (piv < k && a[piv * k + col] == 0) ++piv;
    if (piv == k) std::abort();  // singular: impossible for an MDS code
    if (piv != col) {
      for (std::uint32_t i = 0; i < k; ++i) {
        std::swap(a[piv * k + i], a[col * k + i]);
        std::swap(inv[piv * k + i], inv[col * k + i]);
      }
    }
    const std::uint8_t pinv = gf_inv(a[col * k + col]);
    for (std::uint32_t i = 0; i < k; ++i) {
      a[col * k + i] = gf_mul(a[col * k + i], pinv);
      inv[col * k + i] = gf_mul(inv[col * k + i], pinv);
    }
    for (std::uint32_t r = 0; r < k; ++r) {
      if (r == col) continue;
      const std::uint8_t f = a[r * k + col];
      if (f == 0) continue;
      for (std::uint32_t i = 0; i < k; ++i) {
        a[r * k + i] ^= gf_mul(f, a[col * k + i]);
        inv[r * k + i] ^= gf_mul(f, inv[col * k + i]);
      }
    }
  }

  std::vector<std::uint8_t> coeffs(k, 0);
  if (target < k) {
    // data_target = row `target` of A^{-1} applied to the present fragments.
    for (std::uint32_t r = 0; r < k; ++r) coeffs[r] = inv[target * k + r];
  } else {
    // coding_j = G_j · data = (G_j · A^{-1}) applied to the present
    // fragments.
    const std::uint32_t j = target - k;
    for (std::uint32_t r = 0; r < k; ++r) {
      std::uint8_t acc = 0;
      for (std::uint32_t d = 0; d < k; ++d) {
        acc ^= gf_mul(rs_coeff(spec, j, d), inv[d * k + r]);
      }
      coeffs[r] = acc;
    }
  }
  return coeffs;
}

void rs_encode_delta(CodeSpec spec, std::uint32_t data_index,
                     std::span<const std::byte> src,
                     std::span<const std::span<std::byte>> coding) {
  assert(coding.size() == spec.m);
  for (std::uint32_t j = 0; j < spec.m; ++j) {
    gf_muladd_region(coding[j], src, rs_coeff(spec, j, data_index));
  }
}

}  // namespace csar
