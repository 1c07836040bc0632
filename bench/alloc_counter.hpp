// Heap-allocation counter for benches that report allocations per op.
//
// alloc_counter.cpp replaces the global operator new (every form) with a
// counting forwarder to malloc, so it must only be linked into bench
// executables, never into the simulator libraries. The count covers every
// `new` in the process — coroutine frames only when the slab allocator is
// off (CSAR_SIM_SLAB=OFF), since the slab takes its chunks from operator
// new but hands out frames itself. The simulator is single-threaded; the
// counter is not synchronized.
#pragma once

#include <cstdint>

namespace csar::bench {

/// Calls to any global operator new since the process started.
std::uint64_t heap_allocs();

}  // namespace csar::bench
