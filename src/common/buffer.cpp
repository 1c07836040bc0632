#include "buffer.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "codec.hpp"

#ifndef CSAR_OBS
#define CSAR_OBS 1
#endif

namespace csar {

namespace {

/// Every flat backing starts kHeader bytes into its allocation, after a
/// header that holds the backing's size, so a view can tell how much
/// memory it keeps alive (Buffer::pinned_bytes). 16 bytes keep the bytes
/// as aligned as the allocation.
constexpr std::size_t kHeader = 16;

/// The one allocation of a flat backing: `size` bytes, zero-filled if
/// `zero`, else indeterminate.
std::shared_ptr<std::byte> alloc_backing(std::uint64_t size,
                                         bool zero = false) {
  auto block = std::make_shared_for_overwrite<std::byte[]>(
      kHeader + static_cast<std::size_t>(size));
  std::memcpy(block.get(), &size, sizeof size);
  std::byte* bytes = block.get() + kHeader;
  if (zero) std::memset(bytes, 0, static_cast<std::size_t>(size));
  return std::shared_ptr<std::byte>(std::move(block), bytes);
}

/// The size alloc_backing recorded for the backing starting at `bytes`.
std::uint64_t backing_size(const void* bytes) {
  std::uint64_t size;
  std::memcpy(&size, static_cast<const std::byte*>(bytes) - kHeader,
              sizeof size);
  return size;
}

BufferCopyBytes copied;

/// Adds `n` to a buffer_copy_bytes() counter when the hooks are compiled in.
void count(std::uint64_t& counter, std::uint64_t n) {
  if constexpr (CSAR_OBS != 0) counter += n;
}

}  // namespace

BufferCopyBytes buffer_copy_bytes() { return copied; }

/// A deferred combine: the parts' sources and coefficients until the
/// result is first read, then the memo of the whole result.
struct Buffer::Recipe {
  struct Part {
    std::uint64_t len;
    std::size_t nsrcs;
  };
  std::vector<Part> parts;
  std::vector<Buffer> srcs;          ///< every part's sources, in order
  std::vector<std::uint8_t> coeffs;  ///< one per source
  std::uint64_t size = 0;
  std::shared_ptr<std::byte> memo;  ///< the result, once computed

  void compute() {
    memo = alloc_backing(size);
    std::byte* out = memo.get();
    std::size_t first = 0;
    for (const Part& p : parts) {
      combine_into({out, static_cast<std::size_t>(p.len)},
                   std::span<const Buffer>(srcs).subspan(first, p.nsrcs),
                   std::span<const std::uint8_t>(coeffs).subspan(first,
                                                                 p.nsrcs));
      out += p.len;
      first += p.nsrcs;
    }
    // The memo is all any view reads from now on.
    parts = {};
    srcs = {};
    coeffs = {};
  }
};

/// Walks the bytes of a buffer from a position, one contiguous piece at a
/// time: the rest of the current run (or of a flat buffer's view).
class Buffer::Cursor {
 public:
  Cursor(const Buffer& b, std::uint64_t pos) {
    if (b.kind_ == Kind::deferred) b.settle();
    if (b.kind_ == Kind::runs) {
      run_ = b.runs() + b.run_at(pos);
      end_ = b.runs() + b.run_count();
      enter(pos - run_->pos);
    } else if (b.size_ > pos) {
      p_ = b.base() + b.off_ + pos;
      left_ = static_cast<std::size_t>(b.size_ - pos);
    }
  }

  /// The contiguous bytes at the cursor; empty only at the end.
  const std::byte* data() const { return p_; }
  std::size_t left() const { return left_; }

  /// Step over `n` <= left() bytes.
  void advance(std::size_t n) {
    p_ += n;
    left_ -= n;
    if (left_ == 0 && run_ != end_ && ++run_ != end_) enter(0);
  }

 private:
  void enter(std::uint64_t skip) {
    p_ = static_cast<const std::byte*>(run_->data.get()) + run_->off + skip;
    left_ = static_cast<std::size_t>(run_->len - skip);
  }

  const Run* run_ = nullptr;
  const Run* end_ = nullptr;
  const std::byte* p_ = nullptr;
  std::size_t left_ = 0;
};

namespace {

/// Calls fn(pos, ptr, n) over the contiguous pieces of the `len` bytes from
/// a cursor; pos counts from the cursor's start.
template <class Cursor, class Fn>
void walk(Cursor c, std::uint64_t len, Fn&& fn) {
  for (std::uint64_t done = 0; done < len;) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(c.left(), len - done));
    fn(done, c.data(), n);
    c.advance(n);
    done += n;
  }
}

/// Calls fn(pos, a_ptr, b_ptr, n) over the pieces where two cursors' runs
/// overlap, for `len` bytes.
template <class Cursor, class Fn>
void zip(Cursor a, Cursor b, std::uint64_t len, Fn&& fn) {
  std::uint64_t done = 0;
  while (done < len) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>({a.left(), b.left(), len - done}));
    fn(done, a.data(), b.data(), n);
    a.advance(n);
    b.advance(n);
    done += n;
  }
}

}  // namespace

Buffer Buffer::real(std::uint64_t size) {
  Buffer b;
  b.size_ = size;
  if (size > 0) b.data_ = alloc_backing(size, /*zero=*/true);
  return b;
}

Buffer Buffer::for_overwrite(std::uint64_t size) {
  Buffer b;
  b.size_ = size;
  if (size > 0) b.data_ = alloc_backing(size);
  return b;
}

Buffer Buffer::phantom(std::uint64_t size) {
  Buffer b;
  b.size_ = size;
  b.kind_ = Kind::phantom;
  return b;
}

Buffer Buffer::from_bytes(const std::vector<std::byte>& bytes) {
  Buffer b = for_overwrite(bytes.size());
  if (!bytes.empty()) std::memcpy(b.base(), bytes.data(), bytes.size());
  count(copied.copied, bytes.size());
  return b;
}

Buffer Buffer::from_runs(std::shared_ptr<Run[]> runs, std::size_t n,
                         std::uint64_t size) {
  Buffer b;
  b.size_ = size;
  if (n == 1) {  // a single run is a plain view
    b.off_ = runs[0].off;
    b.data_ = std::move(runs[0].data);
  } else if (n > 1) {
    b.kind_ = Kind::runs;
    b.off_ = n;
    b.data_ = std::shared_ptr<void>(runs, runs.get());
  }
  return b;
}

Buffer Buffer::deferred_combine(std::span<const CombinePart> parts) {
  std::uint64_t total = 0;
  std::size_t nsrcs = 0;
  bool any_phantom = false;
  bool all_copies = true;
  for (const CombinePart& p : parts) {
    assert(!p.srcs.empty() && p.srcs.size() == p.coeffs.size());
    total += p.srcs[0].size_;
    nsrcs += p.srcs.size();
    all_copies = all_copies && gf_combine_is_copy(p.coeffs);
    for (const Buffer& s : p.srcs) {
      assert(s.size_ == p.srcs[0].size_);
      any_phantom |= s.kind_ == Kind::phantom;
    }
  }
  if (any_phantom) {
    assert(std::none_of(parts.begin(), parts.end(), [](const CombinePart& p) {
      return std::any_of(p.srcs.begin(), p.srcs.end(),
                         [](const Buffer& s) { return s.materialized(); });
    }));
    return phantom(total);
  }
  if (total == 0) return Buffer();
  if (all_copies) {  // no arithmetic: the sources themselves
    if (parts.size() == 1) return parts[0].srcs[0];
    std::vector<Buffer> pieces;
    pieces.reserve(parts.size());
    for (const CombinePart& p : parts) pieces.push_back(p.srcs[0]);
    return concat(pieces);
  }
  auto r = std::make_shared<Recipe>();
  r->size = total;
  r->parts.reserve(parts.size());
  r->srcs.reserve(nsrcs);
  r->coeffs.reserve(nsrcs);
  for (const CombinePart& p : parts) {
    r->parts.push_back({p.srcs[0].size_, p.srcs.size()});
    r->srcs.insert(r->srcs.end(), p.srcs.begin(), p.srcs.end());
    r->coeffs.insert(r->coeffs.end(), p.coeffs.begin(), p.coeffs.end());
  }
  Buffer b;
  b.size_ = total;
  b.kind_ = Kind::deferred;
  b.data_ = std::move(r);
  return b;
}

void Buffer::settle() const {
  auto* r = static_cast<Recipe*>(data_.get());
  if (r->memo == nullptr) r->compute();
  // The last view of a recipe takes the memo over, so its bytes are
  // exclusively owned (a later mutation needs no copy).
  std::shared_ptr<void> memo;
  if (data_.use_count() == 1) {
    memo = std::move(r->memo);
  } else {
    memo = r->memo;
  }
  data_ = std::move(memo);
  kind_ = Kind::flat;
}

Buffer Buffer::concat(std::span<const Buffer> pieces) {
  if (pieces.size() == 1) return pieces.front();
  std::uint64_t total = 0;
  std::size_t max_runs = 0;
  bool any_phantom = false;
  for (const Buffer& p : pieces) {
    if (p.kind_ == Kind::deferred) p.settle();
    total += p.size_;
    any_phantom |= p.kind_ == Kind::phantom;
    max_runs += p.kind_ == Kind::runs ? p.run_count() : (p.size_ > 0 ? 1 : 0);
  }
  if (any_phantom) {
    assert(std::none_of(pieces.begin(), pieces.end(),
                        [](const Buffer& p) { return p.materialized(); }));
    return phantom(total);
  }
  // Append every piece's runs, merging a run into its predecessor when it
  // continues the same backing.
  auto runs = std::make_shared<Run[]>(max_runs);
  std::size_t n = 0;
  std::uint64_t pos = 0;
  auto append = [&](const std::shared_ptr<void>& data, std::uint64_t off,
                    std::uint64_t len) {
    if (n > 0) {
      Run& last = runs[n - 1];
      if (last.data == data && last.off + last.len == off) {
        last.len += len;
        pos += len;
        return;
      }
    }
    runs[n++] = Run{data, off, len, pos};
    pos += len;
  };
  for (const Buffer& p : pieces) {
    if (p.kind_ == Kind::runs) {
      const Run* r = p.runs();
      for (std::size_t i = 0; i < p.run_count(); ++i) {
        append(r[i].data, r[i].off, r[i].len);
      }
    } else if (p.size_ > 0) {
      append(p.data_, p.off_, p.size_);
    }
  }
  return from_runs(std::move(runs), n, total);
}

std::size_t Buffer::run_at(std::uint64_t pos) const {
  const Run* r = runs();
  const Run* it = std::upper_bound(
      r + 1, r + run_count(), pos,
      [](std::uint64_t p, const Run& run) { return p < run.pos; });
  return static_cast<std::size_t>(it - r) - 1;
}

void Buffer::reallocate() const {
  auto out = alloc_backing(size_);
  copy_to(out.get(), 0, size_);
  data_ = std::move(out);
  off_ = 0;
  kind_ = Kind::flat;
}

void Buffer::copy_to(std::byte* dst, std::uint64_t off,
                     std::uint64_t len) const {
  count(copied.copied, len);
  walk(Cursor(*this, off), len,
       [&](std::uint64_t pos, const std::byte* p, std::size_t n) {
         std::memcpy(dst + pos, p, n);
       });
}

std::uint64_t Buffer::pinned_bytes() const {
  if (kind_ == Kind::runs) {
    std::uint64_t sum = 0;
    const Run* r = runs();
    for (std::size_t i = 0; i < run_count(); ++i) {
      sum += backing_size(r[i].data.get());
    }
    return sum;
  }
  return kind_ == Kind::flat && data_ != nullptr ? backing_size(data_.get())
                                                 : 0;
}

void Buffer::shrink_to_fit() {
  if (kind_ == Kind::phantom || kind_ == Kind::deferred) return;
  if (2 * size_ >= pinned_bytes()) return;
  auto out = alloc_backing(size_);
  walk(Cursor(*this, 0), size_,
       [&](std::uint64_t pos, const std::byte* p, std::size_t n) {
         std::memcpy(out.get() + pos, p, n);
       });
  count(copied.residue, size_);
  data_ = std::move(out);
  off_ = 0;
  kind_ = Kind::flat;
}

// Buffer::pattern's byte stream: byte[i] = bits 33..40 of the (i+1)th state
// of the LCG x' = A*x + C (mod 2^64) started from the mixed seed. Storm
// shadows, scrub checksums and run fingerprints all depend on these exact
// bytes, and every kernel below emits the identical sequence (dispatch()
// in codec.cpp picks one per CPU).
//
// The recurrence is a serial latency chain, so the fast paths run K
// jump-ahead lanes in parallel: lane j holds state i+1+j, and stepping a
// lane by K is x' = A_K*x + C_K with A_K = A^K, C_K = (A^{K-1}+...+A+1)*C.
//
// The IFMA kernel keeps only 52 bits of state. That is exact: bits 0..b of
// an LCG mod 2^64 depend only on bits 0..b of the previous state (carries
// run upward), and the output needs bits up to 40, so the state mod any
// 2^n with n > 40 suffices. The kernel carries y = x*2^7 mod 2^52 (that
// is, x mod 2^45, shifted) instead of x. That is still an LCG:
// A_K*y + C_K*2^7 = 2^7*(A_K*x + C_K) = 2^7*x' (mod 2^52), so
// y' = A_K*y + (C_K<<7) — one vpmadd52luq per lane, which adds the low 52
// bits of A_K*y to C_K<<7. (The addition can carry into bits 52..63 of the
// lane; vpmadd52luq reads only bits 0..51 of its multiplicand, so that
// garbage never feeds back.) The shift puts output bits 33..40 of x at bits
// 40..47 of y: byte 5 of the lane, which one vpermb gathers.
namespace {

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

}  // namespace

void codec_detail::pattern_fill_scalar(std::byte* out, std::uint64_t size,
                                       std::uint64_t x) {
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

#if defined(__x86_64__) || defined(__i386__)
// Both AVX-512 kernels run 64 lanes in eight zmm chains (enough independent
// chains to hide the multiply latency) and hand sizes below 64 to the
// scalar kernel.
constexpr int kPatternLanes = 64;

// GCC-12's unmasked srli, vpermb and 512-to-128 cast intrinsics pass an
// undefined register as the merge operand, tripping -Wmaybe-uninitialized;
// it is by-design dead.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// AVX512DQ fill over full 64-bit states: vpmullq steps a chain,
/// vpsrlq + vpmovqb extract its eight bytes.
__attribute__((target("avx512f,avx512dq"))) void
codec_detail::pattern_fill_avx512dq(std::byte* out, std::uint64_t size,
                                    std::uint64_t x) {
  constexpr int K = kPatternLanes;
  if (size < K) {
    pattern_fill_scalar(out, size, x);
    return;
  }
  alignas(64) std::uint64_t lane[K];
  const auto [aK, cK] = lcg_lanes<K>(x, lane);
  const __m512i va = _mm512_set1_epi64(static_cast<long long>(aK));
  const __m512i vc = _mm512_set1_epi64(static_cast<long long>(cK));
  __m512i v[K / 8];
#pragma GCC unroll 8
  for (int r = 0; r < K / 8; ++r) v[r] = _mm512_load_si512(lane + 8 * r);
  std::uint64_t i = 0;
  for (; i + K <= size; i += K) {
#pragma GCC unroll 8
    for (int r = 0; r < K / 8; ++r) {
      _mm_storel_epi64(
          reinterpret_cast<__m128i*>(out + i + 8 * r),
          _mm512_maskz_cvtepi64_epi8(0xFF, _mm512_srli_epi64(v[r], 33)));
      v[r] = _mm512_add_epi64(_mm512_mullo_epi64(v[r], va), vc);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < K / 8; ++r) _mm512_store_si512(lane + 8 * r, v[r]);
  for (std::uint64_t j = 0; i < size; ++i, ++j) {
    out[i] = static_cast<std::byte>((lane[j] >> 33) & 0xFF);
  }
}

/// AVX512-IFMA fill over pre-shifted 52-bit states (see the top of this
/// section): one vpmadd52luq steps a chain, one vpermb gathers byte 5 of
/// its eight lanes into the low eight bytes for a single 8-byte store.
__attribute__((target("avx512f,avx512ifma,avx512vbmi"))) void
codec_detail::pattern_fill_ifma(std::byte* out, std::uint64_t size,
                                std::uint64_t x) {
  constexpr int K = kPatternLanes;
  if (size < K) {
    pattern_fill_scalar(out, size, x);
    return;
  }
  constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;
  alignas(64) std::uint64_t lane[K];
  const auto [aK, cK] = lcg_lanes<K>(x, lane);
  for (std::uint64_t& y : lane) y = (y << 7) & kMask52;
  const __m512i va = _mm512_set1_epi64(static_cast<long long>(aK & kMask52));
  const __m512i vc =
      _mm512_set1_epi64(static_cast<long long>((cK << 7) & kMask52));
  // Byte 5 of each qword (bytes 5, 13, ..., 61) into bytes 0..7.
  const __m512i pick = _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0,
                                        0x3D352D251D150D05LL);
  __m512i v[K / 8];
#pragma GCC unroll 8
  for (int r = 0; r < K / 8; ++r) v[r] = _mm512_load_si512(lane + 8 * r);
  std::uint64_t i = 0;
  for (; i + K <= size; i += K) {
#pragma GCC unroll 8
    for (int r = 0; r < K / 8; ++r) {
      _mm_storel_epi64(
          reinterpret_cast<__m128i*>(out + i + 8 * r),
          _mm512_castsi512_si128(_mm512_permutexvar_epi8(pick, v[r])));
      v[r] = _mm512_madd52lo_epu64(vc, v[r], va);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < K / 8; ++r) _mm512_store_si512(lane + 8 * r, v[r]);
  for (std::uint64_t j = 0; i < size; ++i, ++j) {
    out[i] = static_cast<std::byte>((lane[j] >> 40) & 0xFF);
  }
}
#pragma GCC diagnostic pop
#endif  // __x86_64__ || __i386__

Buffer Buffer::pattern(std::uint64_t size, std::uint64_t seed) {
  Buffer b = for_overwrite(size);
  // Cheap per-byte mix; distinct seeds give distinct, reproducible content.
  const std::uint64_t x0 =
      seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  if (size > 0) pattern_fill({b.base(), static_cast<std::size_t>(size)}, x0);
  return b;
}


std::span<const std::byte> Buffer::bytes() const {
  assert(materialized());
  if (size_ == 0) return {};
  if (kind_ == Kind::deferred) settle();
  if (kind_ == Kind::runs) reallocate();
  return {base() + off_, static_cast<std::size_t>(size_)};
}

std::span<std::byte> Buffer::mutable_bytes() {
  assert(materialized());
  if (size_ == 0) return {};
  if (kind_ == Kind::deferred) settle();
  if (!unique_flat()) reallocate();
  return {base() + off_, static_cast<std::size_t>(size_)};
}

Buffer Buffer::slice(std::uint64_t off, std::uint64_t len) const {
  assert(off + len <= size_);
  if (kind_ == Kind::runs) return slice_runs(off, len);
  Buffer b;
  b.size_ = len;
  b.kind_ = kind_;
  if (kind_ == Kind::deferred) {
    if (len == 0) return Buffer();
    b.data_ = data_;
    b.off_ = off_ + off;
  } else if (kind_ == Kind::flat && len > 0) {
    b.data_ = data_;
    b.off_ = off_ + off;
  }
  return b;
}

Buffer Buffer::slice_runs(std::uint64_t off, std::uint64_t len) const {
  if (len == 0) return Buffer();
  if (off == 0 && len == size_) return *this;
  const Run* r = runs();
  const std::size_t first = run_at(off);
  const std::size_t last = run_at(off + len - 1);
  if (first == last) {  // inside one run: a plain view
    Buffer b;
    b.size_ = len;
    b.data_ = r[first].data;
    b.off_ = r[first].off + (off - r[first].pos);
    return b;
  }
  const std::size_t n = last - first + 1;
  auto sub = std::make_shared<Run[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Run& src = r[first + i];
    const std::uint64_t lo = std::max(src.pos, off);
    const std::uint64_t hi = std::min(src.pos + src.len, off + len);
    sub[i] = Run{src.data, src.off + (lo - src.pos), hi - lo, lo - off};
  }
  return from_runs(std::move(sub), n, len);
}

void Buffer::apply(Op op, std::uint64_t off, const Buffer& src,
                   std::uint64_t len) {
  if (kind_ == Kind::deferred) settle();
  if (unique_flat()) {
    // In place. memmove: an overlap is only possible when `src` is *this
    // buffer itself (any other holder of the backing makes it shared).
    std::byte* d = base() + off_ + off;
    walk(Cursor(src, 0), len,
         [&](std::uint64_t pos, const std::byte* s, std::size_t n) {
           if (op == Op::copy) {
             std::memmove(d + pos, s, n);
           } else {
             xor_words({d + pos, n}, {s, n});
           }
         });
    return;
  }
  // Copy-on-write fused with the mutation: the fresh allocation receives
  // the untouched bytes and old-op-src for the range, each written once.
  auto out = alloc_backing(size_);
  std::byte* o = out.get();
  copy_to(o, 0, off);
  if (op == Op::copy) {
    src.copy_to(o + off, 0, len);
  } else {
    zip(Cursor(*this, off), Cursor(src, 0), len,
        [&](std::uint64_t pos, const std::byte* a, const std::byte* b,
            std::size_t n) { xor_into({o + off + pos, n}, {a, n}, {b, n}); });
  }
  copy_to(o + off + len, off + len, size_ - off - len);
  data_ = std::move(out);
  off_ = 0;
  kind_ = Kind::flat;
}

void Buffer::write_at(std::uint64_t off, const Buffer& src) {
  assert(off + src.size_ <= size_);
  assert(materialized() == src.materialized());
  if (!materialized() || src.size_ == 0) return;
  apply(Op::copy, off, src, src.size_);
}

void Buffer::xor_with(const Buffer& other) {
  if (!materialized() || !other.materialized()) {
    assert(materialized() == other.materialized());
    return;
  }
  const std::uint64_t n = std::min(size_, other.size_);
  if (n > 0) apply(Op::xor_in, 0, other, n);
}

void Buffer::xor_at(std::uint64_t off, const Buffer& src) {
  assert(off + src.size_ <= size_);
  assert(materialized() == src.materialized());
  if (!materialized() || src.size_ == 0) return;
  apply(Op::xor_in, off, src, src.size_);
}

void Buffer::resize(std::uint64_t size) {
  if (kind_ == Kind::phantom || size == size_) {
    size_ = size;
    return;
  }
  if (size < size_) {
    *this = slice(0, size);  // the excess backing stays shared
    return;
  }
  // Grow: copy into exclusively-owned, exactly-sized backing and zero only
  // the extension.
  auto out = alloc_backing(size);
  copy_to(out.get(), 0, size_);
  std::memset(out.get() + size_, 0, static_cast<std::size_t>(size - size_));
  data_ = std::move(out);
  off_ = 0;
  kind_ = Kind::flat;
  size_ = size;
}

bool Buffer::operator==(const Buffer& other) const {
  if (size_ != other.size_) return false;
  if (!materialized() || !other.materialized()) {
    return materialized() == other.materialized();
  }
  if (size_ == 0) return true;
  bool equal = true;
  zip(Cursor(*this, 0), Cursor(other, 0), size_,
      [&](std::uint64_t, const std::byte* a, const std::byte* b,
          std::size_t n) {
        equal = equal && (a == b || std::memcmp(a, b, n) == 0);
      });
  return equal;
}

void gf_mul_region(std::span<std::byte> dst, const Buffer& src,
                   std::uint8_t c) {
  assert(src.size() <= dst.size());
  src.for_each_run([&](std::uint64_t pos, std::span<const std::byte> s) {
    gf_mul_region(dst.subspan(static_cast<std::size_t>(pos), s.size()), s, c);
  });
}

void gf_muladd_region(std::span<std::byte> dst, const Buffer& src,
                      std::uint8_t c) {
  assert(src.size() <= dst.size());
  src.for_each_run([&](std::uint64_t pos, std::span<const std::byte> s) {
    gf_muladd_region(dst.subspan(static_cast<std::size_t>(pos), s.size()), s,
                     c);
  });
}

void Buffer::combine_into(std::span<std::byte> dst,
                          std::span<const Buffer> srcs,
                          std::span<const std::uint8_t> coeffs) {
  const std::size_t n = srcs.size();
  auto next_nonzero = [&](std::size_t r) {
    while (r < n && coeffs[r] == 0) ++r;
    return r;
  };
  std::size_t r = next_nonzero(0);
  if (r == n) {
    std::memset(dst.data(), 0, dst.size());
    return;
  }
  if (coeffs[r] != 1) {
    gf_mul_region(dst, srcs[r], coeffs[r]);
    ++r;
  } else if (const std::size_t s = next_nonzero(r + 1);
             s < n && coeffs[s] == 1) {
    // The first two unit terms XOR straight into dst: one pass, no copy.
    zip(Cursor(srcs[r], 0), Cursor(srcs[s], 0), dst.size(),
        [&](std::uint64_t pos, const std::byte* a, const std::byte* b,
            std::size_t len) { xor_into(dst.subspan(pos, len), {a, len},
                                        {b, len}); });
    r = s + 1;
  } else {
    srcs[r].copy_to(dst.data(), 0, dst.size());
    ++r;
  }
  for (; r < n; ++r) gf_muladd_region(dst, srcs[r], coeffs[r]);
}

Buffer gf_combine(std::span<const Buffer> srcs,
                  std::span<const std::uint8_t> coeffs) {
  assert(!srcs.empty() && srcs.size() == coeffs.size());
  const std::uint64_t size = srcs[0].size();
  for (const Buffer& s : srcs) {
    assert(s.size() == size);
    if (!s.materialized()) return Buffer::phantom(size);
  }
  if (coeffs[0] == 1 && std::all_of(coeffs.begin() + 1, coeffs.end(),
                                    [](std::uint8_t c) { return c == 0; })) {
    return srcs[0];
  }
  Buffer out = Buffer::for_overwrite(size);
  Buffer::combine_into(out.mutable_bytes(), srcs, coeffs);
  return out;
}

}  // namespace csar
