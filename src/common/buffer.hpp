// Buffer: a byte payload that is either materialized (real bytes, used by
// tests/examples so that parity, mirroring and reconstruction are verified on
// actual content) or phantom (size-only, used by large benchmarks such as
// BTIO Class C whose 6.6 GB payload should not live in host RAM).
//
// Phantom buffers participate in all bookkeeping — sizes, extents, simulated
// CPU/XOR charges — but carry no bytes. Mixing a phantom and a materialized
// buffer in one mutating operation is a programming error (assert).
//
// Storage is copy-on-write: a materialized buffer is a [off, off+size) view
// into shared backing bytes. Copying a buffer or taking a slice() shares the
// backing (a refcount bump — payloads traverse the whole RPC stack without
// byte copies); every mutating member first materializes an unshared copy of
// its view, so two buffers can never observe each other's writes. Value
// semantics are exactly those of the old deep-copy representation, minus the
// copies.
//
// Backing bytes are one allocation (control block included; from_bytes
// instead adopts its vector without copying). Only real() and
// resize()'s extension are zero-filled; producers that write every byte
// (pattern, concat, for_overwrite callers, copy-on-write copies) skip the
// zero pass, so a payload byte costs one write per hop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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

  /// `pieces` joined in order. A single piece comes back as a shared view
  /// (no copy); all-phantom pieces give a phantom of the summed size;
  /// otherwise one allocation and one memcpy per piece. Mixing phantom and
  /// materialized pieces is a programming error (assert).
  static Buffer concat(std::span<const Buffer> pieces);

  /// Materialized buffer filled with a deterministic pattern derived from
  /// `seed` (used by tests to make every file region distinguishable).
  static Buffer pattern(std::uint64_t size, std::uint64_t seed);

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool materialized() const { return materialized_; }

  /// Read-only view of the bytes; requires a materialized buffer.
  std::span<const std::byte> bytes() const;

  /// Mutable view of the bytes; requires a materialized buffer.
  std::span<std::byte> mutable_bytes();

  /// View of the sub-range [off, off+len); shares the backing bytes
  /// (copy-on-write, so the slice behaves as an independent copy). Phantom
  /// stays phantom.
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
  /// Reallocate the view into exclusively-owned backing if anyone else
  /// shares it. After this, writes through data_ are invisible elsewhere.
  void ensure_unique();

  std::uint64_t size_ = 0;
  bool materialized_ = true;
  std::uint64_t off_ = 0;  ///< view start within *data_
  /// Backing bytes; null for phantom and for empty buffers. May be larger
  /// than the view and shared with other buffers (see ensure_unique).
  std::shared_ptr<std::byte[]> data_;
};

}  // namespace csar
