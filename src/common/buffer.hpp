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
// Deferred combines: deferred_combine() returns a materialized buffer whose
// bytes are a GF(2^8) combination of other buffers, computed when some
// reader first needs them. The pointer slot then holds a shared recipe (the
// parts' source views and coefficients) and off_/size_ select the view, so
// slice() and copies stay views of the one recipe. Every byte reader —
// the run walks above, bytes(), operator==, a concat of several pieces and
// the mutators — settles the view first: the whole recipe is computed once,
// with the same kernels gf_combine uses, into a memo shared by every view,
// the sources are released, and the settling buffer becomes a plain view of
// the memo. A full-stripe write's coding is deferred this way: parity that
// a later write replaces before anyone reads it is never encoded, and
// simulated time is charged as before. Decodes (reconstruction, degraded
// reads and writes, rebuild), the scrub, the RMW fold and gf_combine itself
// stay eager, so their host work happens where they run. Until it settles,
// a recipe pins every source view it captured (their writers' later
// mutations copy on write, so the recipe keeps the bytes it was given).
//
// A view pins its whole backing allocation. Every flat backing is one
// allocation (control block included) whose header records its size, so
// pinned_bytes() can tell what a view keeps alive. Fresh writes are stored
// as views of the writer's payload; a server that keeps a slice of a
// client's multi-unit payload keeps the whole payload alive. Overwrites
// then leave residues: the head and tail a BufferMap keeps of a partly
// overwritten entry. A residue goes through shrink_to_fit(), which copies
// it into its own exact backing when it covers less than half of the
// backing bytes it pins, so stored content pins at most about twice the
// bytes it serves once overwrites have trimmed it. Phantom residues carry
// no bytes, and an unsettled deferred residue stays a view of its recipe
// (copying it would compute the whole recipe for a small piece).
//
// Only real() (which read_range uses for holes) and resize()'s extension
// are zero-filled.
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

  /// Materialized buffer holding a copy of `bytes`.
  static Buffer from_bytes(const std::vector<std::byte>& bytes);

  /// `pieces` joined in order, sharing their bytes (no copy): the result's
  /// runs are the pieces' runs, adjacent runs of one backing merged. A
  /// result of one run is a plain view; all-phantom pieces give a phantom
  /// of the summed size. Mixing phantom and materialized pieces is a
  /// programming error (assert).
  static Buffer concat(std::span<const Buffer> pieces);

  /// One part of a deferred combine: srcs[0].size() bytes equal to
  /// sum_r coeffs[r] * srcs[r] over GF(2^8). The sources are equally sized
  /// and there is one coefficient per source.
  struct CombinePart {
    std::span<const Buffer> srcs;
    std::span<const std::uint8_t> coeffs;
  };

  /// The parts' combinations joined in order, computed when the bytes are
  /// first read (see the top of this file); the sources are captured as
  /// views. Any phantom source gives a phantom of the summed size and
  /// allocates nothing; mixing phantom and materialized sources is a
  /// programming error (assert). Parts that are all one-source unit
  /// copies give the concat of their sources.
  static Buffer deferred_combine(std::span<const CombinePart> parts);

  /// Materialized buffer filled with a deterministic pattern derived from
  /// `seed` (used by tests to make every file region distinguishable).
  static Buffer pattern(std::uint64_t size, std::uint64_t seed);

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool materialized() const { return kind_ != Kind::phantom; }

  /// Read-only contiguous view of the bytes; requires a materialized
  /// buffer. Flattens a segmented buffer once (the flat copy replaces the
  /// run list) and settles a deferred one, so repeated calls return the
  /// same span.
  std::span<const std::byte> bytes() const;

  /// Mutable view of the bytes; requires a materialized buffer. Gives the
  /// buffer exclusively-owned contiguous storage first.
  std::span<std::byte> mutable_bytes();

  /// Calls fn(pos, span) for each contiguous run of the bytes in order,
  /// where pos is the run's offset in this buffer. Never copies or
  /// flattens (a deferred buffer is settled first); requires a
  /// materialized buffer.
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

  /// Bytes of backing allocation this buffer keeps alive: its backing's
  /// size for a flat view, the sum of its runs' backings for a segmented
  /// buffer (a backing that several runs view counts once per run). 0 for
  /// phantom, empty and deferred buffers (a recipe's sources are not
  /// walked).
  std::uint64_t pinned_bytes() const;

  /// Copy the bytes into one exclusively-owned, exactly-sized backing when
  /// they cover less than half of pinned_bytes(), so that a small residue
  /// of a large payload stops pinning it; otherwise leave the view. The
  /// value is unchanged. Phantom and deferred buffers are left as they are.
  void shrink_to_fit();

 private:
  enum class Kind : std::uint8_t { flat, runs, phantom, deferred };

  /// One run of a segmented buffer: [off, off+len) of `data`'s bytes,
  /// starting at byte `pos` of the buffer. `data` is always a flat backing.
  struct Run {
    std::shared_ptr<void> data;
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    std::uint64_t pos = 0;
  };

  class Cursor;
  struct Recipe;
  enum class Op : std::uint8_t { copy, xor_in };

  friend Buffer gf_combine(std::span<const Buffer> srcs,
                           std::span<const std::uint8_t> coeffs);

  /// dst[0, n) = sum_r coeffs[r] * srcs[r][0, n) (n = dst.size()), writing
  /// every byte of dst; the one combine step of gf_combine and of a
  /// deferred recipe.
  static void combine_into(std::span<std::byte> dst,
                           std::span<const Buffer> srcs,
                           std::span<const std::uint8_t> coeffs);
  /// Turn a deferred view into a plain view of its recipe's memo,
  /// computing the memo first if no view has yet.
  void settle() const;

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
  /// deferred: view start within the recipe's result.
  mutable std::uint64_t off_ = 0;
  /// flat: backing bytes (null for empty buffers; may be larger than the
  /// view and shared with other buffers). runs: the shared Run array.
  /// deferred: the shared Recipe. phantom: null.
  mutable std::shared_ptr<void> data_;
};

// A Buffer is a size, a tag, an offset and one shared pointer: hundreds of
// thousands of phantom buffers live in overflow content maps, so the run
// list must not widen it.
static_assert(sizeof(Buffer) ==
              3 * sizeof(std::uint64_t) + sizeof(std::shared_ptr<void>));

template <class Fn>
void Buffer::for_each_run(Fn&& fn) const {
  if (kind_ == Kind::deferred) settle();
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

/// Bytes Buffer has copied since the process started: `copied` through
/// copy_to (flattening, copy-on-write, resize's growth, a combine's unit
/// copy) and from_bytes, `residue` through shrink_to_fit (not counted in
/// `copied`). Host-independent costs, compiled in or out with the
/// observability hooks (CSAR_OBS, default on) like codec_bytes(); both
/// stay zero when compiled out.
struct BufferCopyBytes {
  std::uint64_t copied = 0;
  std::uint64_t residue = 0;
};
BufferCopyBytes buffer_copy_bytes();

/// dst[i] = c * src[i] over GF(2^8), reading `src` run by run (no
/// flattening). Requires a materialized `src` with src.size() <= dst.size().
void gf_mul_region(std::span<std::byte> dst, const Buffer& src,
                   std::uint8_t c);

/// dst[i] ^= c * src[i] over GF(2^8), reading `src` run by run.
void gf_muladd_region(std::span<std::byte> dst, const Buffer& src,
                      std::uint8_t c);

/// sum_r coeffs[r] * srcs[r] over GF(2^8), the one encode/decode step of
/// every k+m code, computed now. The sources must be equally sized; the
/// result is a phantom of that size when any source is phantom, and a view
/// of srcs[0] when that is the whole sum (coefficient 1, all others 0).
/// Unit coefficients take the XOR path and the first two unit-coefficient
/// sources are XORed straight into the fresh result, so RS(k,1) parity
/// costs exactly what plain XOR parity does.
Buffer gf_combine(std::span<const Buffer> srcs,
                  std::span<const std::uint8_t> coeffs);

/// True when gf_combine with these coefficients is a view of its one
/// source — a k = 1 copy, which no kernel touches and no CPU time pays for.
inline bool gf_combine_is_copy(std::span<const std::uint8_t> coeffs) {
  return coeffs.size() == 1 && coeffs[0] == 1;
}

}  // namespace csar
