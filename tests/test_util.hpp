// Shared helpers for CSAR system tests: run a Task to completion on a Rig's
// simulation, reference-model content checks, and the coded-group
// invariant verifier.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "pvfs/io_server.hpp"
#include "raid/rig.hpp"

// gtest's ASSERT_* macros issue `return`, which is ill-formed inside a
// coroutine; these variants record the failure and co_return instead.
#define CO_ASSERT_TRUE(x)     \
  do {                        \
    EXPECT_TRUE(x);           \
    if (!(x)) co_return;      \
  } while (0)
#define CO_ASSERT_EQ(a, b)    \
  do {                        \
    EXPECT_EQ(a, b);          \
    if (!((a) == (b))) co_return; \
  } while (0)

namespace csar::test {

/// Run `t` as a process and drive the simulation until it completes.
template <typename T>
T run_sim(raid::Rig& rig, sim::Task<T> t) {
  std::optional<T> out;
  rig.sim.spawn(
      [](sim::Task<T> task, std::optional<T>* o) -> sim::Task<void> {
        o->emplace(co_await std::move(task));
      }(std::move(t), &out));
  rig.sim.run();
  EXPECT_TRUE(out.has_value()) << "task did not complete (deadlock?)";
  return std::move(*out);
}

inline void run_sim_void(raid::Rig& rig, sim::Task<void> t) {
  bool done = false;
  rig.sim.spawn([](sim::Task<void> task, bool* d) -> sim::Task<void> {
    co_await std::move(task);
    *d = true;
  }(std::move(t), &done));
  rig.sim.run();
  EXPECT_TRUE(done) << "task did not complete (deadlock?)";
}

/// Reference model of a file's expected contents, updated alongside writes.
class RefFile {
 public:
  void write(std::uint64_t off, const Buffer& data) {
    if (bytes_.size() < off + data.size()) {
      bytes_.resize(off + data.size(), std::byte{0});
    }
    auto src = data.bytes();
    std::copy(src.begin(), src.end(),
              bytes_.begin() + static_cast<std::ptrdiff_t>(off));
  }

  std::uint64_t size() const { return bytes_.size(); }

  Buffer expect(std::uint64_t off, std::uint64_t len) const {
    Buffer b = Buffer::real(len);
    const std::uint64_t avail =
        off < bytes_.size() ? std::min(len, bytes_.size() - off) : 0;
    if (avail > 0) {
      std::copy(bytes_.begin() + static_cast<std::ptrdiff_t>(off),
                bytes_.begin() + static_cast<std::ptrdiff_t>(off + avail),
                b.mutable_bytes().begin());
    }
    return b;
  }

 private:
  std::vector<std::byte> bytes_;
};

/// Verify the coded invariant: for every group of the file's code touching
/// [0, file_size), each coding unit equals what the group's *data file*
/// units encode to — the XOR for parity, a copy for RAID1 (rs(1,1)). Holds
/// for RAID1/RAID4/RAID5 always, and for Hybrid because partial-stripe
/// writes never touch the data files.
inline sim::Task<bool> parity_consistent(raid::Rig& rig,
                                         const pvfs::OpenFile& f,
                                         std::uint64_t file_size,
                                         bool report = true) {
  const auto& layout = f.layout;
  const std::uint64_t su = layout.su();
  const CodeSpec spec = rig.policy().scheme_of(f).code(layout);
  const std::uint32_t k = spec.k;
  const std::uint64_t ngroups = div_ceil(file_size, layout.group_width(k));
  bool ok = true;
  for (std::uint64_t g = 0; g < ngroups; ++g) {
    std::vector<Buffer> units;
    for (std::uint32_t i = 0; i < k; ++i) {
      units.push_back(co_await rig.server(layout.data_server(g, k, i))
                          .fs()
                          .peek(pvfs::IoServer::data_name(f.handle),
                                layout.local_unit(g * k + i) * su, su));
    }
    for (std::uint32_t j = 0; j < spec.m; ++j) {
      Buffer coding = co_await rig.server(layout.coding_server(g, k, j))
                          .fs()
                          .peek(pvfs::IoServer::red_name(f.handle),
                                layout.coding_off(g, k, spec.m, j), su);
      if (!(coding == gf_combine(units, rs_row(spec, j)))) {
        if (report) ADD_FAILURE() << "coding mismatch in group " << g;
        ok = false;
      }
    }
  }
  co_return ok;
}

}  // namespace csar::test
