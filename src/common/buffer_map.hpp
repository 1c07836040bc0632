// BufferMap: sparse byte content as an IntervalMap of Buffers. Overwrites
// slice the surviving entries by view (no byte copies), and read_range()
// assembles any range as a run list over the stored bytes (no copies). Used for a LocalFs file's content, the
// collective-I/O staging maps and the scrubber's mirror map.
#pragma once

#include <cstdint>

#include "common/buffer.hpp"
#include "common/interval_map.hpp"

namespace csar {

struct BufferSlicer {
  Buffer operator()(const Buffer& b, std::uint64_t off,
                    std::uint64_t len) const {
    return b.slice(off, len);
  }
};

using BufferMap = IntervalMap<Buffer, BufferSlicer>;

/// The bytes of [start, end): the stored runs joined by Buffer::concat
/// (shared, not copied), with unmapped holes read as zeros (the only bytes
/// written). A range inside one stored run comes back as a plain view.
/// Phantom if any overlapping entry is phantom.
Buffer read_range(const BufferMap& m, std::uint64_t start, std::uint64_t end);

}  // namespace csar
