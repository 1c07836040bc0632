#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace csar::sim {
namespace {

TEST(BandwidthServer, SingleTransferTakesExpectedTime) {
  Simulation sim;
  BandwidthServer link(sim, 100e6);  // 100 MB/s
  Time done = 0;
  sim.spawn([](Simulation& s, BandwidthServer& l, Time& t) -> Task<void> {
    co_await l.transfer(100'000'000);  // 100 MB -> 1 s
    t = s.now();
  }(sim, link, done));
  sim.run();
  EXPECT_EQ(done, sec(1));
  EXPECT_EQ(link.bytes_total(), 100'000'000u);
  EXPECT_EQ(link.ops_total(), 1u);
}

TEST(BandwidthServer, ConcurrentTransfersSerialize) {
  Simulation sim;
  BandwidthServer link(sim, 100e6);
  std::vector<Time> done;
  auto proc = [](Simulation& s, BandwidthServer& l,
                 std::vector<Time>& d) -> Task<void> {
    co_await l.transfer(50'000'000);  // 0.5 s each
    d.push_back(s.now());
  };
  sim.spawn(proc(sim, link, done));
  sim.spawn(proc(sim, link, done));
  sim.spawn(proc(sim, link, done));
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], ms(500));
  EXPECT_EQ(done[1], sec(1));
  EXPECT_EQ(done[2], ms(1500));
  EXPECT_EQ(link.busy_time(), ms(1500));
}

TEST(BandwidthServer, PerOpLatencyCharged) {
  Simulation sim;
  BandwidthServer link(sim, 100e6, us(50));
  Time done = 0;
  sim.spawn([](Simulation& s, BandwidthServer& l, Time& t) -> Task<void> {
    co_await l.transfer(0);  // latency only
    co_await l.transfer(0);
    t = s.now();
  }(sim, link, done));
  sim.run();
  EXPECT_EQ(done, us(100));
}

TEST(BandwidthServer, IdleGapNotCountedBusy) {
  Simulation sim;
  BandwidthServer link(sim, 100e6);
  sim.spawn([](Simulation& s, BandwidthServer& l) -> Task<void> {
    co_await l.transfer(10'000'000);  // 0.1 s
    co_await s.sleep(sec(1));         // idle gap
    co_await l.transfer(10'000'000);  // 0.1 s
  }(sim, link));
  sim.run();
  EXPECT_EQ(link.busy_time(), ms(200));
  EXPECT_EQ(sim.now(), ms(100) + sec(1) + ms(100));
}

TEST(BandwidthServer, PipelinedSaturationReachesLineRate) {
  // Many small transfers from independent processes should sum to exactly
  // bytes/rate total time: work-conserving FIFO.
  Simulation sim;
  BandwidthServer link(sim, 1e9);  // 1 GB/s
  constexpr int kN = 100;
  constexpr std::uint64_t kEach = 1'000'000;  // 1 MB
  auto proc = [](BandwidthServer& l) -> Task<void> {
    co_await l.transfer(kEach);
  };
  for (int i = 0; i < kN; ++i) sim.spawn(proc(link));
  const Time end = sim.run();
  EXPECT_EQ(end, ms(100));  // 100 MB at 1 GB/s
}

}  // namespace
}  // namespace csar::sim
