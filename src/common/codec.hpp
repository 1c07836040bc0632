// Unified redundancy codec: XOR parity kernels plus the GF(2^8)
// Reed-Solomon encode/decode kernel, behind one runtime-dispatch point.
//
// The XOR half reproduces the Swift/RAID observation (§3 of the CSAR paper)
// that word-wise parity beats byte-wise parity; the byte-wise kernel is kept
// for the ablation benchmark. The GF half generalizes parity to k+m erasure
// codes: coding fragment j of a group is sum_i g[j][i] * data_i over
// GF(2^8), with the generator matrix chosen so its first row is all ones —
// RS(k,1) therefore produces byte-identical output to the XOR parity path,
// and every classic scheme is a special case of the code (RAID1 is RS(1,1),
// RAID4/5 are RS(N-1,1)).
//
// Every per-byte kernel of the simulator is picked in one place, dispatch()
// in codec.cpp, once per process from the CPU feature bits:
//   - XOR (xor_words/xor_into): "avx2" (four ymm XORs per 128-byte block)
//     or "portable" (32-byte blocks of 64-bit words).
//   - GF(2^8) regions (gf_mul_region, gf_muladd_region), best first:
//     "gfni" (vgf2p8affineqb with the 8x8 GF(2) matrix of multiply-by-c
//     from a compile-time table, 64 bytes per zmm, masked tail), "avx2"
//     and "ssse3" (PSHUFB over split nibble tables), "scalar" (a 256-entry
//     product row per call).
//   - Buffer::pattern's generator (pattern_fill, kernels in buffer.cpp):
//     "ifma" (52-bit vpmadd52luq over pre-shifted states, vpermb output),
//     "avx512dq" (vpmullq) or "scalar".
// All variants are bit-identical by construction — XOR, GF arithmetic and
// the LCG are exact — so dispatch never perturbs simulated results;
// codec_detail exposes every supported kernel so tests can check each one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace csar {

// --- XOR kernels (formerly common/parity.hpp) ---

/// dst[i] ^= src[i], one byte at a time (deliberately naive baseline).
void xor_bytes(std::span<std::byte> dst, std::span<const std::byte> src);

/// dst[i] ^= src[i], one 64-bit word at a time with a byte tail (the
/// pre-blocking kernel, kept for the ablation benchmark).
void xor_words_single(std::span<std::byte> dst, std::span<const std::byte> src);

/// dst[i] ^= src[i]. Runtime-dispatched (see codec_dispatch_name()): on
/// AVX2 CPUs 128-byte blocks of four ymm XORs; otherwise, and for the tail,
/// the portable kernel of 32-byte blocks of four 64-bit words, then a word
/// tail and a byte tail. Any alignment; memcpy word loads lower to plain
/// loads on x86.
void xor_words(std::span<std::byte> dst, std::span<const std::byte> src);

/// dst[i] = a[i] ^ b[i] for i < a.size() (== b.size()): the same
/// dispatched kernel as xor_words with a separate destination, so a
/// copy-on-write copy and its XOR are one pass. dst may alias a or b
/// exactly, not partially.
void xor_into(std::span<std::byte> dst, std::span<const std::byte> a,
              std::span<const std::byte> b);

/// Parity of `sources` accumulated into `dst` (dst must be zero-filled or
/// hold the first source). Sources shorter than dst contribute only their
/// prefix; this matches parity of zero-padded stripe units.
void xor_accumulate(std::span<std::byte> dst,
                    std::span<const std::span<const std::byte>> sources);

// --- GF(2^8) scalar arithmetic ---
// Field: GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d),
// the conventional choice for storage RS codes. gf_exp is doubled so
// gf_exp[gf_log[a] + gf_log[b]] never needs a mod-255 reduction. The tables
// are constexpr — computed at compile time, immune to static-init order.

namespace gf_detail {
struct Tables {
  std::uint8_t log[256] = {};
  std::uint8_t exp[512] = {};
};
constexpr Tables make_tables() {
  Tables t{};
  std::uint32_t x = 1;
  for (std::uint32_t i = 0; i < 255; ++i) {
    t.exp[i] = static_cast<std::uint8_t>(x);
    t.log[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= 0x11d;
  }
  for (std::uint32_t i = 255; i < 512; ++i) t.exp[i] = t.exp[i - 255];
  t.log[0] = 0;  // log(0) is undefined; gf_mul guards the zero cases
  return t;
}
inline constexpr Tables kTables = make_tables();
}  // namespace gf_detail

inline constexpr const std::uint8_t* gf_log = gf_detail::kTables.log;
inline constexpr const std::uint8_t* gf_exp = gf_detail::kTables.exp;

constexpr std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return gf_exp[gf_log[a] + gf_log[b]];
}

/// Multiplicative inverse; a must be nonzero.
constexpr std::uint8_t gf_inv(std::uint8_t a) {
  return gf_exp[255 - gf_log[a]];
}

// --- GF(2^8) region kernels ---

/// dst[i] ^= c * src[i] over GF(2^8). c == 0 is a no-op; c == 1 degrades to
/// xor_words. Runtime-dispatched (see codec_dispatch_name()).
void gf_muladd_region(std::span<std::byte> dst, std::span<const std::byte> src,
                      std::uint8_t c);

/// dst[i] = c * src[i] over GF(2^8) (no accumulate): one pass that writes
/// every byte of dst[0, src.size()), so dst need not be initialized.
void gf_mul_region(std::span<std::byte> dst, std::span<const std::byte> src,
                   std::uint8_t c);

/// Fill `out` with Buffer::pattern's byte stream from LCG state `x0` (see
/// buffer.cpp). Runtime-dispatched.
void pattern_fill(std::span<std::byte> out, std::uint64_t x0);

/// The kernels dispatch resolved to, e.g. "gf=gfni xor=avx2 pattern=ifma".
/// Resolved once per process.
const char* codec_dispatch_name();

/// Bytes the dispatched kernels have processed since the process started:
/// `xor_bytes` through xor_words and xor_into (gf_muladd_region with c == 1
/// included), `gf_bytes` through the GF(2^8) multiply kernels (c > 1).
/// Copies and zero fills (gf_mul_region with c == 1 or 0) count in
/// neither. These are host-independent costs: the same run counts the same
/// bytes on every CPU. Compiled in or out with the observability hooks
/// (CSAR_OBS, default on); both stay zero when compiled out. The counters
/// are plain process-wide integers (the simulator is single-threaded).
struct CodecBytes {
  std::uint64_t xor_bytes = 0;
  std::uint64_t gf_bytes = 0;
};
CodecBytes codec_bytes();

namespace codec_detail {

/// Raw region kernel: dst[i] = c*src[i], or dst[i] ^= c*src[i] for the
/// muladd form, for i < n. Handles every c, including 0 and 1.
using RegionFn = void (*)(std::byte* dst, const std::byte* src,
                          std::size_t n, std::uint8_t c);
using PatternFn = void (*)(std::byte* out, std::uint64_t size,
                           std::uint64_t x0);

struct GfKernel {
  const char* name;
  RegionFn mul;
  RegionFn muladd;
};

struct PatternKernel {
  const char* name;
  PatternFn fill;
};

/// Every GF(2^8) region kernel this CPU can run, scalar (the per-byte
/// table walk) first; the last one is what gf_mul_region/gf_muladd_region
/// dispatch to.
std::span<const GfKernel> gf_kernels();

/// Every pattern kernel this CPU can run, scalar first; the last one is
/// what pattern_fill dispatches to.
std::span<const PatternKernel> pattern_kernels();

// Pattern kernels, defined in buffer.cpp; only those the CPU supports may
// be called (pattern_kernels() lists them).
void pattern_fill_scalar(std::byte* out, std::uint64_t size, std::uint64_t x0);
void pattern_fill_avx512dq(std::byte* out, std::uint64_t size,
                           std::uint64_t x0);
void pattern_fill_ifma(std::byte* out, std::uint64_t size, std::uint64_t x0);

}  // namespace codec_detail

// --- Reed-Solomon code over the fragments of one group ---

/// A k+m erasure code: k data fragments, m coding fragments, any k of the
/// k+m suffice to recover everything (MDS). Fragment indices are global:
/// data fragments are [0, k), coding fragments are [k, k+m).
struct CodeSpec {
  std::uint32_t k = 1;
  std::uint32_t m = 0;
  std::uint32_t fragments() const { return k + m; }
  friend bool operator==(const CodeSpec&, const CodeSpec&) = default;
};

/// Hard bounds for CodeSpec validation. k+m <= 255 is the field-size limit
/// of the Cauchy construction; the persisted scheme-tag packing is tighter
/// (k <= 16, m <= 7, see raid/scheme.hpp) and is what parse_scheme enforces.
inline constexpr std::uint32_t kMaxCodeFragments = 255;

/// Generator coefficient g[j][i]: the factor data fragment i contributes to
/// coding fragment j (j in [0, m), i in [0, k)). Built from a Cauchy matrix
/// with columns scaled so row 0 is all ones: coding fragment 0 is exactly
/// the XOR parity of the data fragments, and any k rows of [I; G] stay
/// invertible (column scaling preserves the Cauchy MDS property). Requires
/// spec.fragments() <= kMaxCodeFragments.
std::uint8_t rs_coeff(CodeSpec spec, std::uint32_t j, std::uint32_t i);

/// Generator row j: rs_coeff(spec, j, i) for every data fragment i, so
/// coding fragment j = sum_i row[i] * data_i (all ones for j = 0).
std::vector<std::uint8_t> rs_row(CodeSpec spec, std::uint32_t j);

/// Coefficients reconstructing fragment `target` from the k fragments
/// listed in `present` (distinct indices in [0, k+m), any order; exactly k
/// of them). Returns one coefficient per present fragment:
///   frag[target] = sum_r coeffs[r] * frag[present[r]].
/// If target itself appears in `present` the result is the trivial
/// selector. The k x k system is always invertible for an MDS code, so this
/// never fails for valid input; it aborts on malformed input (duplicate or
/// out-of-range indices, wrong count).
std::vector<std::uint8_t> rs_reconstruct_coeffs(
    CodeSpec spec, std::span<const std::uint32_t> present,
    std::uint32_t target);

/// Accumulate `coeff * src` into every coding region: for each j in [0, m),
/// coding[j] ^= rs_coeff(j, data_index) * src. The delta form of the RS
/// small-write update — pass src = old ^ new.
void rs_encode_delta(CodeSpec spec, std::uint32_t data_index,
                     std::span<const std::byte> src,
                     std::span<const std::span<std::byte>> coding);

}  // namespace csar
