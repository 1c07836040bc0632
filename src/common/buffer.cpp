#include "buffer.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "parity.hpp"

namespace csar {

namespace {

std::shared_ptr<std::byte[]> alloc_for_overwrite(std::uint64_t size) {
  return std::make_shared_for_overwrite<std::byte[]>(
      static_cast<std::size_t>(size));
}

}  // namespace

Buffer Buffer::real(std::uint64_t size) {
  Buffer b;
  b.size_ = size;
  b.materialized_ = true;
  if (size > 0) {
    b.data_ = std::make_shared<std::byte[]>(static_cast<std::size_t>(size));
  }
  return b;
}

Buffer Buffer::for_overwrite(std::uint64_t size) {
  Buffer b;
  b.size_ = size;
  if (size > 0) b.data_ = alloc_for_overwrite(size);
  return b;
}

Buffer Buffer::phantom(std::uint64_t size) {
  Buffer b;
  b.size_ = size;
  b.materialized_ = false;
  return b;
}

Buffer Buffer::from_bytes(std::vector<std::byte> bytes) {
  Buffer b;
  b.size_ = bytes.size();
  b.materialized_ = true;
  if (!bytes.empty()) {
    // Adopt the vector's storage: the control block owns the vector and
    // data_ aliases its bytes, so no copy is made.
    auto owner = std::make_shared<std::vector<std::byte>>(std::move(bytes));
    b.data_ = std::shared_ptr<std::byte[]>(owner, owner->data());
  }
  return b;
}

Buffer Buffer::concat(std::span<const Buffer> pieces) {
  if (pieces.size() == 1) return pieces.front();
  std::uint64_t total = 0;
  bool any_phantom = false;
  for (const Buffer& p : pieces) {
    total += p.size_;
    any_phantom |= !p.materialized_;
  }
  if (any_phantom) {
    assert(std::none_of(pieces.begin(), pieces.end(),
                        [](const Buffer& p) { return p.materialized_; }));
    return phantom(total);
  }
  Buffer b = for_overwrite(total);
  std::byte* out = b.data_.get();
  for (const Buffer& p : pieces) {
    if (p.size_ == 0) continue;
    std::memcpy(out, p.data_.get() + p.off_, static_cast<std::size_t>(p.size_));
    out += p.size_;
  }
  return b;
}

void Buffer::ensure_unique() {
  if (data_ && data_.use_count() > 1) {
    auto copy = alloc_for_overwrite(size_);
    std::memcpy(copy.get(), data_.get() + off_,
                static_cast<std::size_t>(size_));
    data_ = std::move(copy);
    off_ = 0;
  }
}

namespace {

// Buffer::pattern's byte stream: byte[i] = bits 33..40 of the (i+1)th state
// of the LCG x' = A*x + C started from the mixed seed. The recurrence is a
// serial latency chain, so the fast paths run K jump-ahead lanes in
// parallel: lane j holds state i+1+j and stepping a lane by K is
// x' = A_K*x + C_K with A_K = A^K, C_K = (A^{K-1}+...+A+1)*C (mod 2^64).
// Every path emits the identical byte sequence — storm shadows, scrub
// checksums and run fingerprints all depend on the exact bytes.
constexpr std::uint64_t kLcgA = 6364136223846793005ULL;
constexpr std::uint64_t kLcgC = 1442695040888963407ULL;

/// Fill `lane[0..K)` with states x_{1..K} (given x = x_0), returning
/// {A_K, C_K} for the K-step jump.
template <int K>
std::pair<std::uint64_t, std::uint64_t> lcg_lanes(std::uint64_t x,
                                                  std::uint64_t* lane) {
  std::uint64_t aK = 1, cK = 0;
  for (int j = 0; j < K; ++j) {
    x = x * kLcgA + kLcgC;
    lane[j] = x;
    cK = cK * kLcgA + kLcgC;
    aK *= kLcgA;
  }
  return {aK, cK};
}

void pattern_fill_scalar(std::byte* out, std::uint64_t size, std::uint64_t x) {
  std::uint64_t i = 0;
  if (size >= 8) {
    std::uint64_t lane[8];
    const auto [a8, c8] = lcg_lanes<8>(x, lane);
    if constexpr (std::endian::native == std::endian::little) {
      for (; i + 8 <= size; i += 8) {
        std::uint64_t packed = 0;
        for (int j = 0; j < 8; ++j) {
          packed |= ((lane[j] >> 33) & 0xFF) << (8 * j);
          lane[j] = lane[j] * a8 + c8;
        }
        std::memcpy(out + i, &packed, 8);  // byte j lands at offset i+j
      }
    } else {
      for (; i + 8 <= size; i += 8) {
        for (int j = 0; j < 8; ++j) {
          out[i + j] = static_cast<std::byte>((lane[j] >> 33) & 0xFF);
          lane[j] = lane[j] * a8 + c8;
        }
      }
    }
    // At exit lane[j] holds the state for index i+j; the tail (fewer than
    // 8 bytes) reads straight from the lanes.
    for (std::uint64_t j = 0; i < size; ++i, ++j) {
      out[i] = static_cast<std::byte>((lane[j] >> 33) & 0xFF);
    }
  } else {
    for (; i < size; ++i) {
      x = x * kLcgA + kLcgC;
      out[i] = static_cast<std::byte>((x >> 33) & 0xFF);
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
/// AVX-512 fill: 32 lanes in four zmm registers (enough independent chains
/// to hide vpmullq latency). vpsrlq extracts bits 33.., vpmovqb truncates
/// eight qwords to eight bytes in one instruction. Same bytes as the
/// scalar path; selected at runtime only when the CPU has AVX512DQ.
// GCC-12's unmasked srli intrinsic passes an undefined register as the
// merge operand, tripping -Wmaybe-uninitialized; it is by-design dead.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f,avx512dq")))
void pattern_fill_avx512(std::byte* out, std::uint64_t size, std::uint64_t x) {
  constexpr int K = 32;
  if (size < K) {
    pattern_fill_scalar(out, size, x);
    return;
  }
  alignas(64) std::uint64_t lane[K];
  const auto [aK, cK] = lcg_lanes<K>(x, lane);
  const __m512i va = _mm512_set1_epi64(static_cast<long long>(aK));
  const __m512i vc = _mm512_set1_epi64(static_cast<long long>(cK));
  __m512i v0 = _mm512_load_si512(lane + 0);
  __m512i v1 = _mm512_load_si512(lane + 8);
  __m512i v2 = _mm512_load_si512(lane + 16);
  __m512i v3 = _mm512_load_si512(lane + 24);
  std::uint64_t i = 0;
  for (; i + K <= size; i += K) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i + 0),
                     _mm512_maskz_cvtepi64_epi8(0xFF, _mm512_srli_epi64(v0, 33)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i + 8),
                     _mm512_maskz_cvtepi64_epi8(0xFF, _mm512_srli_epi64(v1, 33)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i + 16),
                     _mm512_maskz_cvtepi64_epi8(0xFF, _mm512_srli_epi64(v2, 33)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i + 24),
                     _mm512_maskz_cvtepi64_epi8(0xFF, _mm512_srli_epi64(v3, 33)));
    v0 = _mm512_add_epi64(_mm512_mullo_epi64(v0, va), vc);
    v1 = _mm512_add_epi64(_mm512_mullo_epi64(v1, va), vc);
    v2 = _mm512_add_epi64(_mm512_mullo_epi64(v2, va), vc);
    v3 = _mm512_add_epi64(_mm512_mullo_epi64(v3, va), vc);
  }
  _mm512_store_si512(lane + 0, v0);
  _mm512_store_si512(lane + 8, v1);
  _mm512_store_si512(lane + 16, v2);
  _mm512_store_si512(lane + 24, v3);
  for (std::uint64_t j = 0; i < size; ++i, ++j) {
    out[i] = static_cast<std::byte>((lane[j] >> 33) & 0xFF);
  }
}
#pragma GCC diagnostic pop
#endif  // __x86_64__ && __GNUC__

void pattern_fill(std::byte* out, std::uint64_t size, std::uint64_t x) {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool kHasAvx512 = __builtin_cpu_supports("avx512dq") != 0;
  if (kHasAvx512) {
    pattern_fill_avx512(out, size, x);
    return;
  }
#endif
  pattern_fill_scalar(out, size, x);
}

}  // namespace

Buffer Buffer::pattern(std::uint64_t size, std::uint64_t seed) {
  Buffer b = for_overwrite(size);
  // Cheap per-byte mix; distinct seeds give distinct, reproducible content.
  const std::uint64_t x0 =
      seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  if (size > 0) pattern_fill(b.data_.get(), size, x0);
  return b;
}

std::span<const std::byte> Buffer::bytes() const {
  assert(materialized_);
  if (!data_) return {};
  return {data_.get() + off_, static_cast<std::size_t>(size_)};
}

std::span<std::byte> Buffer::mutable_bytes() {
  assert(materialized_);
  if (!data_) return {};
  ensure_unique();
  return {data_.get() + off_, static_cast<std::size_t>(size_)};
}

Buffer Buffer::slice(std::uint64_t off, std::uint64_t len) const {
  assert(off + len <= size_);
  if (!materialized_) return phantom(len);
  Buffer b;
  b.size_ = len;
  b.materialized_ = true;
  if (len > 0) {
    b.data_ = data_;
    b.off_ = off_ + off;
  }
  return b;
}

void Buffer::write_at(std::uint64_t off, const Buffer& src) {
  assert(off + src.size_ <= size_);
  assert(materialized_ == src.materialized_);
  if (!materialized_ || src.size_ == 0) return;
  ensure_unique();
  // memmove: after ensure_unique an overlap is only possible when `src` is
  // *this buffer itself* (a shared slice would have forced a fresh copy),
  // and memmove handles that exactly like the old copy-the-slice-first
  // representation did.
  std::memmove(data_.get() + off_ + off, src.data_.get() + src.off_,
               static_cast<std::size_t>(src.size_));
}

void Buffer::xor_with(const Buffer& other) {
  if (!materialized_ || !other.materialized_) {
    assert(materialized_ == other.materialized_);
    return;
  }
  const std::uint64_t n = std::min(size_, other.size_);
  if (n == 0) return;
  ensure_unique();
  xor_words({data_.get() + off_, static_cast<std::size_t>(n)},
            {other.data_.get() + other.off_, static_cast<std::size_t>(n)});
}

void Buffer::xor_at(std::uint64_t off, const Buffer& src) {
  assert(off + src.size_ <= size_);
  assert(materialized_ == src.materialized_);
  if (!materialized_ || src.size_ == 0) return;
  ensure_unique();
  xor_words({data_.get() + off_ + off, static_cast<std::size_t>(src.size_)},
            {src.data_.get() + src.off_, static_cast<std::size_t>(src.size_)});
}

void Buffer::resize(std::uint64_t size) {
  if (!materialized_) {
    size_ = size;
    return;
  }
  if (size == size_) return;
  if (size < size_) {
    size_ = size;  // shrink the view; excess backing stays shared
    if (size == 0) {
      data_.reset();
      off_ = 0;
    }
    return;
  }
  // Grow: copy the view into exclusively-owned, exactly-sized backing and
  // zero only the extension.
  auto nv = alloc_for_overwrite(size);
  if (data_ && size_ > 0) {
    std::memcpy(nv.get(), data_.get() + off_, static_cast<std::size_t>(size_));
  }
  std::memset(nv.get() + size_, 0, static_cast<std::size_t>(size - size_));
  data_ = std::move(nv);
  off_ = 0;
  size_ = size;
}

bool Buffer::operator==(const Buffer& other) const {
  if (size_ != other.size_) return false;
  if (!materialized_ || !other.materialized_) {
    return materialized_ == other.materialized_;
  }
  if (size_ == 0) return true;
  return std::memcmp(data_.get() + off_, other.data_.get() + other.off_,
                     static_cast<std::size_t>(size_)) == 0;
}

}  // namespace csar
