// Buffer: a byte payload that is either materialized (real bytes, used by
// tests/examples so that parity, mirroring and reconstruction are verified on
// actual content) or phantom (size-only, used by large benchmarks such as
// BTIO Class C whose 6.6 GB payload should not live in host RAM).
//
// Phantom buffers participate in all bookkeeping — sizes, extents, simulated
// CPU/XOR charges — but carry no bytes. Mixing a phantom and a materialized
// buffer in one mutating operation is a programming error (assert).
//
// Storage is copy-on-write and segmented. A materialized buffer is an
// ordered list of runs, each a [off, off+len) view into shared backing
// bytes. A one-run buffer (the common case) is stored inline as a plain
// view; two or more runs live in one shared, immutable run array held in
// the same pointer slot, so a Buffer stays five words. Copying a buffer,
// slice() and concat() share backings (refcount bumps, no byte copies):
// a client's strided gather, a server's read assembly and the client's
// read scatter are run lists over the bytes that were written.
//
// Readers walk runs: operator==, the source side of write_at/xor_with/
// xor_at and the GF region overloads below touch each run in place. Only
// bytes() and mutable_bytes() flatten a segmented buffer into one fresh
// allocation; bytes() keeps the flat copy in the buffer, so a second call
// is free (the simulation is single-threaded, so this needs no locking).
// Every mutating member writes into exclusively-owned bytes: when the
// target is shared or segmented, the copy-on-write is fused with the
// mutation (write_at and the XORs write old-bytes-op-source straight into
// the fresh allocation in one pass), so two buffers never observe each
// other's writes and no byte is copied only to be overwritten.
//
// Trade-off: a stored run pins its whole backing allocation. A server that
// keeps a slice of a client's multi-unit payload keeps the entire payload
// alive until every slice of it is overwritten or dropped (stream_parity
// peak RSS +6% against copying the gather).
//
// Backing bytes are one allocation (control block included; from_bytes
// instead adopts its vector without copying). Only real() (which
// read_range uses for holes) and resize()'s extension are zero-filled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace csar {

class Buffer {
 public:
  /// Empty materialized buffer.
  Buffer() = default;

  /// Materialized, zero-filled buffer of `size` bytes.
  static Buffer real(std::uint64_t size);

  /// Phantom buffer: size only, no storage.
  static Buffer phantom(std::uint64_t size);

  /// Materialized buffer whose `size` bytes are indeterminate. The caller
  /// must overwrite every byte before any is read (e.g. as the destination
  /// of gf_mul_region); use real() when some bytes may stay unwritten.
  static Buffer for_overwrite(std::uint64_t size);

  /// Materialized buffer taking ownership of `bytes` (no copy).
  static Buffer from_bytes(std::vector<std::byte> bytes);

  /// `pieces` joined in order, sharing their bytes (no copy): the result's
  /// runs are the pieces' runs, adjacent runs of one backing merged. A
  /// result of one run is a plain view; all-phantom pieces give a phantom
  /// of the summed size. Mixing phantom and materialized pieces is a
  /// programming error (assert).
  static Buffer concat(std::span<const Buffer> pieces);

  /// Materialized buffer filled with a deterministic pattern derived from
  /// `seed` (used by tests to make every file region distinguishable).
  static Buffer pattern(std::uint64_t size, std::uint64_t seed);

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool materialized() const { return kind_ != Kind::phantom; }

  /// Read-only contiguous view of the bytes; requires a materialized
  /// buffer. Flattens a segmented buffer once (the flat copy replaces the
  /// run list), so repeated calls return the same span.
  std::span<const std::byte> bytes() const;

  /// Mutable view of the bytes; requires a materialized buffer. Gives the
  /// buffer exclusively-owned contiguous storage first.
  std::span<std::byte> mutable_bytes();

  /// Calls fn(pos, span) for each contiguous run of the bytes in order,
  /// where pos is the run's offset in this buffer. Never copies or
  /// flattens; requires a materialized buffer.
  template <class Fn>
  void for_each_run(Fn&& fn) const;

  /// View of the sub-range [off, off+len); shares the backing bytes
  /// (copy-on-write, so the slice behaves as an independent copy). A range
  /// inside one run is a plain view, otherwise the covered sub-list of
  /// runs. Phantom stays phantom.
  Buffer slice(std::uint64_t off, std::uint64_t len) const;

  /// Splice `src` into this buffer at `off`. Requires off+src.size()<=size().
  /// Both buffers must have the same materialization.
  void write_at(std::uint64_t off, const Buffer& src);

  /// XOR `other` into this buffer (prefix of the shorter length). On phantom
  /// buffers this is a no-op; callers charge simulated XOR cost separately.
  void xor_with(const Buffer& other);

  /// XOR `src` into this buffer starting at `off` (off+src.size()<=size()).
  /// Both buffers must have the same materialization; no-op on phantom.
  void xor_at(std::uint64_t off, const Buffer& src);

  /// Grow (zero-extending) or shrink to `size`.
  void resize(std::uint64_t size);

  /// Content equality. Phantom buffers compare equal iff sizes match.
  bool operator==(const Buffer& other) const;

 private:
  enum class Kind : std::uint8_t { flat, runs, phantom };

  /// One run of a segmented buffer: [off, off+len) of `data`'s bytes,
  /// starting at byte `pos` of the buffer. `data` is always a flat backing.
  struct Run {
    std::shared_ptr<void> data;
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    std::uint64_t pos = 0;
  };

  class Cursor;
  enum class Op : std::uint8_t { copy, xor_in };

  static Buffer from_runs(std::shared_ptr<Run[]> runs, std::size_t n,
                          std::uint64_t size);
  std::byte* base() const { return static_cast<std::byte*>(data_.get()); }
  const Run* runs() const { return static_cast<const Run*>(data_.get()); }
  std::size_t run_count() const { return static_cast<std::size_t>(off_); }
  /// slice() of a segmented buffer.
  Buffer slice_runs(std::uint64_t off, std::uint64_t len) const;
  /// Index of the run holding byte `pos` (segmented buffers only).
  std::size_t run_at(std::uint64_t pos) const;
  /// Whether writes through base() are invisible to every other holder.
  bool unique_flat() const {
    return kind_ == Kind::flat && data_.use_count() == 1;
  }
  /// Copy bytes [off, off+len) to `dst`, run by run.
  void copy_to(std::byte* dst, std::uint64_t off, std::uint64_t len) const;
  /// Replace the representation with one fresh, exclusively-owned flat
  /// copy of the same bytes (the value is unchanged, hence const).
  void reallocate() const;
  /// Copy or XOR src[0, len) into [off, off+len): in place when the bytes
  /// are exclusively owned, else fused with the copy-on-write copy.
  void apply(Op op, std::uint64_t off, const Buffer& src, std::uint64_t len);

  std::uint64_t size_ = 0;
  mutable Kind kind_ = Kind::flat;
  /// flat: view start within the backing. runs: number of runs.
  mutable std::uint64_t off_ = 0;
  /// flat: backing bytes (null for empty buffers; may be larger than the
  /// view and shared with other buffers). runs: the shared Run array.
  /// phantom: null.
  mutable std::shared_ptr<void> data_;
};

// A Buffer is a size, a tag, an offset and one shared pointer: hundreds of
// thousands of phantom buffers live in overflow content maps, so the run
// list must not widen it.
static_assert(sizeof(Buffer) ==
              3 * sizeof(std::uint64_t) + sizeof(std::shared_ptr<void>));

template <class Fn>
void Buffer::for_each_run(Fn&& fn) const {
  if (kind_ == Kind::runs) {
    const Run* r = runs();
    for (std::size_t i = 0; i < run_count(); ++i) {
      const auto* p = static_cast<const std::byte*>(r[i].data.get());
      fn(r[i].pos, std::span<const std::byte>(
                       p + r[i].off, static_cast<std::size_t>(r[i].len)));
    }
  } else if (size_ > 0) {
    fn(std::uint64_t{0}, std::span<const std::byte>(
                             base() + off_, static_cast<std::size_t>(size_)));
  }
}

/// dst[i] = c * src[i] over GF(2^8), reading `src` run by run (no
/// flattening). Requires a materialized `src` with src.size() <= dst.size().
void gf_mul_region(std::span<std::byte> dst, const Buffer& src,
                   std::uint8_t c);

/// dst[i] ^= c * src[i] over GF(2^8), reading `src` run by run.
void gf_muladd_region(std::span<std::byte> dst, const Buffer& src,
                      std::uint8_t c);

/// sum_r coeffs[r] * srcs[r] over GF(2^8), the one encode/decode step of
/// every k+m code. The sources must be equally sized; the result is a
/// phantom of that size when any source is phantom. Unit coefficients take
/// the XOR path — a unit first coefficient starts from a view of its
/// source, so the first XOR fuses the copy-on-write — so RS(k,1) parity
/// costs exactly what plain XOR parity does.
Buffer gf_combine(std::span<const Buffer> srcs,
                  std::span<const std::uint8_t> coeffs);

}  // namespace csar
