#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <string>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "sim/channel.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace csar::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(us(1), 1000u);
  EXPECT_EQ(ms(1), 1000000u);
  EXPECT_EQ(sec(1), 1000000000u);
  EXPECT_DOUBLE_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_EQ(from_seconds(1.5), 1500000000u);
}

TEST(SimTime, TransferTime) {
  EXPECT_EQ(transfer_time(0, 1e6), 0u);
  EXPECT_EQ(transfer_time(1000000, 1e6), sec(1));
  // Sub-ns transfers round up to 1 ns to guarantee progress.
  EXPECT_EQ(transfer_time(1, 1e12), 1u);
}

TEST(Simulation, StartsAtZeroAndIdles) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Simulation, SleepAdvancesClock) {
  Simulation sim;
  Time woke = 0;
  sim.spawn([](Simulation& s, Time& w) -> Task<void> {
    co_await s.sleep(ms(5));
    w = s.now();
  }(sim, woke));
  sim.run();
  EXPECT_EQ(woke, ms(5));
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Simulation, ProcessBodyRunsEagerlyUntilFirstSuspend) {
  Simulation sim;
  bool started = false;
  sim.spawn([](Simulation& s, bool& f) -> Task<void> {
    f = true;
    co_await s.sleep(1);
  }(sim, started));
  EXPECT_TRUE(started);  // before run()
  sim.run();
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [](Simulation& s, std::vector<int>& ord, Duration d,
                 int id) -> Task<void> {
    co_await s.sleep(d);
    ord.push_back(id);
  };
  sim.spawn(proc(sim, order, ms(3), 3));
  sim.spawn(proc(sim, order, ms(1), 1));
  sim.spawn(proc(sim, order, ms(2), 2));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, SameTimeEventsFifo) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [](Simulation& s, std::vector<int>& ord, int id) -> Task<void> {
    co_await s.sleep(ms(1));
    ord.push_back(id);
  };
  for (int i = 0; i < 5; ++i) sim.spawn(proc(sim, order, i));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, NestedTaskAwait) {
  Simulation sim;
  std::vector<std::string> trace;
  auto inner = [](Simulation& s, std::vector<std::string>& t) -> Task<int> {
    t.push_back("inner-start");
    co_await s.sleep(ms(2));
    t.push_back("inner-end");
    co_return 42;
  };
  auto outer = [&inner](Simulation& s,
                        std::vector<std::string>& t) -> Task<void> {
    t.push_back("outer-start");
    const int v = co_await inner(s, t);
    t.push_back("outer-got-" + std::to_string(v));
  };
  sim.spawn(outer(sim, trace));
  sim.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"outer-start", "inner-start",
                                             "inner-end", "outer-got-42"}));
  EXPECT_EQ(sim.now(), ms(2));
}

TEST(Simulation, JoinWaitsForProcess) {
  Simulation sim;
  Time join_time = 0;
  auto worker = [](Simulation& s) -> Task<void> { co_await s.sleep(ms(7)); };
  auto handle = sim.spawn(worker(sim));
  sim.spawn([](Simulation& s, ProcessHandle h, Time& jt) -> Task<void> {
    co_await h.join();
    jt = s.now();
  }(sim, handle, join_time));
  sim.run();
  EXPECT_EQ(join_time, ms(7));
  EXPECT_TRUE(handle.done());
}

TEST(Simulation, JoinOfFinishedProcessIsImmediate) {
  Simulation sim;
  auto handle = sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.sleep(1);
  }(sim));
  sim.run();
  ASSERT_TRUE(handle.done());
  bool joined = false;
  sim.spawn([](ProcessHandle h, bool& j) -> Task<void> {
    co_await h.join();
    j = true;
  }(handle, joined));
  sim.run();
  EXPECT_TRUE(joined);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  auto proc = [](Simulation& s, Duration d, int& f) -> Task<void> {
    co_await s.sleep(d);
    ++f;
  };
  sim.spawn(proc(sim, ms(1), fired));
  sim.spawn(proc(sim, ms(10), fired));
  sim.run_until(ms(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), ms(5));
  EXPECT_EQ(sim.live_processes(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, YieldInterleavesSameTime) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [](Simulation& s, std::vector<int>& ord, int id) -> Task<void> {
    for (int i = 0; i < 2; ++i) {
      ord.push_back(id);
      co_await s.yield();
    }
  };
  sim.spawn(proc(sim, order, 1));
  sim.spawn(proc(sim, order, 2));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
  EXPECT_EQ(sim.now(), 0u);  // yield does not advance time
}

TEST(Simulation, TaskReturnsValueChain) {
  Simulation sim;
  int result = 0;
  auto leaf = [](Simulation& s) -> Task<int> {
    co_await s.sleep(1);
    co_return 10;
  };
  auto mid = [&leaf](Simulation& s) -> Task<int> {
    const int a = co_await leaf(s);
    const int b = co_await leaf(s);
    co_return a + b;
  };
  sim.spawn([](Task<int> t, int& r) -> Task<void> {
    r = co_await std::move(t);
  }(mid(sim), result));
  sim.run();
  EXPECT_EQ(result, 20);
  EXPECT_EQ(sim.now(), 2u);
}

TEST(Simulation, ManyProcessesScale) {
  Simulation sim;
  int done = 0;
  auto proc = [](Simulation& s, int id, int& d) -> Task<void> {
    co_await s.sleep(static_cast<Duration>(id % 97));
    co_await s.sleep(static_cast<Duration>(id % 31));
    ++d;
  };
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) sim.spawn(proc(sim, i, done));
  sim.run();
  EXPECT_EQ(done, kN);
  EXPECT_EQ(sim.live_processes(), 0u);
}


TEST(Simulation, TaskExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;
  auto thrower = [](Simulation& s) -> Task<int> {
    co_await s.sleep(1);
    throw std::runtime_error("boom");
    co_return 0;  // unreachable
  };
  sim.spawn([](Simulation&, Task<int> t, bool* c) -> Task<void> {
    try {
      (void)co_await std::move(t);
    } catch (const std::runtime_error& e) {
      *c = std::string(e.what()) == "boom";
    }
  }(sim, thrower(sim), &caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulation, ExceptionUnwindsNestedAwaits) {
  Simulation sim;
  int cleanup_count = 0;
  struct Guard {
    int* n;
    ~Guard() { ++*n; }
  };
  auto inner = [](Simulation& s) -> Task<void> {
    co_await s.sleep(1);
    throw std::logic_error("deep");
  };
  auto mid = [&inner](Simulation& s, int* n) -> Task<void> {
    Guard g{n};
    co_await inner(s);
  };
  bool caught = false;
  sim.spawn([](Simulation&, Task<void> t, int* n, bool* c) -> Task<void> {
    Guard g{n};
    try {
      co_await std::move(t);
    } catch (const std::logic_error&) {
      *c = true;
    }
  }(sim, mid(sim, &cleanup_count), &cleanup_count, &caught));
  sim.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(cleanup_count, 2);  // both guards ran during unwind
}

TEST(Simulation, UnstartedTaskDestroyedSafely) {
  Simulation sim;
  bool body_ran = false;
  {
    auto t = [](bool* ran) -> Task<void> {
      *ran = true;
      co_return;
    }(&body_ran);
    // Never awaited, never spawned: destroyed lazily.
  }
  EXPECT_FALSE(body_ran);
  sim.run();
}

TEST(Simulation, EventsExecutedCounts) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.sleep(1);
    co_await s.sleep(1);
  }(sim));
  sim.run();
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulation, SleepZeroStillYields) {
  // sleep(0) must go through the event queue (fairness), not run inline.
  Simulation sim;
  std::vector<int> order;
  sim.spawn([](Simulation& s, std::vector<int>* o) -> Task<void> {
    o->push_back(1);
    co_await s.sleep(0);
    o->push_back(3);
  }(sim, &order));
  order.push_back(2);  // runs after the eager prologue, before the event
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, SendThenRecv) {
  Simulation sim;
  Channel<int> ch(sim);
  int got = 0;
  ch.send(5);
  sim.spawn([](Channel<int>& c, int& g) -> Task<void> {
    g = co_await c.recv();
  }(ch, got));
  sim.run();
  EXPECT_EQ(got, 5);
}

TEST(Channel, RecvBlocksUntilSend) {
  Simulation sim;
  Channel<int> ch(sim);
  Time recv_time = 0;
  sim.spawn([](Simulation& s, Channel<int>& c, Time& t) -> Task<void> {
    (void)co_await c.recv();
    t = s.now();
  }(sim, ch, recv_time));
  sim.spawn([](Simulation& s, Channel<int>& c) -> Task<void> {
    co_await s.sleep(ms(3));
    c.send(1);
  }(sim, ch));
  sim.run();
  EXPECT_EQ(recv_time, ms(3));
}

TEST(Channel, FifoAcrossManyMessages) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn([](Channel<int>& c, std::vector<int>& g) -> Task<void> {
    for (int i = 0; i < 10; ++i) g.push_back(co_await c.recv());
  }(ch, got));
  sim.spawn([](Simulation& s, Channel<int>& c) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await s.sleep(1);
      c.send(i);
    }
  }(sim, ch));
  sim.run();
  EXPECT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(Channel, MultipleReceiversFifo) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  auto rx = [](Channel<int>& c, std::vector<std::pair<int, int>>& g,
               int id) -> Task<void> {
    const int v = co_await c.recv();
    g.emplace_back(id, v);
  };
  sim.spawn(rx(ch, got, 1));
  sim.spawn(rx(ch, got, 2));
  sim.spawn([](Simulation& s, Channel<int>& c) -> Task<void> {
    co_await s.sleep(1);
    c.send(100);
    c.send(200);
  }(sim, ch));
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<int, int>{1, 100}));  // first waiter first
  EXPECT_EQ(got[1], (std::pair<int, int>{2, 200}));
}

TEST(Channel, TryRecv) {
  Simulation sim;
  Channel<int> ch(sim);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(9);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
}

// --- timer-wheel edge cases ----------------------------------------------
// The wheel levels cover ~1.05 ms / ~268 ms / ~68.7 s; events beyond that
// wait in the overflow heap. These tests pin the determinism contract at
// the seams: level crossings, cascades, the overflow drain, run_until at a
// slot boundary, and cancellation-slot generation reuse.

TEST(TimerWheel, EqualTimestampFifoAcrossLevels) {
  // Eight processes converge on one far-future timestamp, each scheduling
  // its final wake from a different simulated time (so the target event is
  // filed at a different wheel level / cascades a different number of
  // times per process). Execution at the shared timestamp must still be
  // FIFO by schedule order.
  Simulation sim;
  std::vector<int> order;
  const Time target = sec(100);  // beyond the level-2 horizon at t=0
  for (int i = 0; i < 8; ++i) {
    sim.spawn([](Simulation& s, std::vector<int>& ord, Time t,
                 int id) -> Task<void> {
      // Stagger: id 0 schedules from t=0 (overflow), id 7 from 70 s
      // (level 2), so the same target lands via different paths.
      co_await s.sleep(sec(id * 10));
      co_await s.sleep_until(t);
      ord.push_back(id);
    }(sim, order, target, i));
  }
  sim.run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sim.now(), target);
}

TEST(TimerWheel, FarFutureOverflowOrdering) {
  // Events past the 68.7 s wheel horizon park in the overflow heap and
  // must drain back in exact time order, interleaved with near events.
  Simulation sim;
  std::vector<Time> fired;
  for (Time t : {sec(200), us(1), sec(70), sec(500), ms(5)}) {
    sim.spawn([](Simulation& s, std::vector<Time>& f, Time w) -> Task<void> {
      co_await s.sleep_until(w);
      f.push_back(s.now());
    }(sim, fired, t));
  }
  sim.run();
  const std::vector<Time> want = {us(1), ms(5), sec(70), sec(200), sec(500)};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(sim.now(), sec(500));
}

TEST(TimerWheel, RunUntilAtWheelBoundary) {
  // 2^20 ns is exactly the level-0 horizon (256 slots x 4096 ns): events
  // at multiples of it sit at the first slot of a fresh level-0 window.
  // run_until at those boundaries must fire exactly the due events and
  // leave the rest queued for the next call.
  Simulation sim;
  std::vector<Time> fired;
  const Time b = 1u << 20;
  for (Time t : {b, 2 * b, 2 * b + 1, 3 * b}) {
    sim.spawn([](Simulation& s, std::vector<Time>& f, Time w) -> Task<void> {
      co_await s.sleep_until(w);
      f.push_back(s.now());
    }(sim, fired, t));
  }
  sim.run_until(b);
  EXPECT_EQ(fired, std::vector<Time>{b});
  EXPECT_EQ(sim.now(), b);
  sim.run_until(2 * b);
  EXPECT_EQ(fired, (std::vector<Time>{b, 2 * b}));
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{b, 2 * b, 2 * b + 1, 3 * b}));
}

namespace {
/// Parks a coroutine and publishes its handle so tests can drive
/// schedule_cancellable_at directly.
struct Park {
  std::coroutine_handle<>* out;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { *out = h; }
  void await_resume() const noexcept {}
};
}  // namespace

TEST(TimerWheel, CancellationGenerationReuse) {
  Simulation sim;
  std::coroutine_handle<> parked;
  int resumed = 0;
  sim.spawn([](std::coroutine_handle<>* out, int* r) -> Task<void> {
    co_await Park{out};
    ++*r;
  }(&parked, &resumed));
  ASSERT_TRUE(parked);

  // Arm and cancel a timer; once its discarded event pops, the pool slot
  // recycles with a bumped generation.
  CancelToken tok1 = sim.schedule_cancellable_at(ms(1), parked);
  EXPECT_TRUE(tok1.armed());
  tok1.cancel();
  sim.run_until(ms(2));
  EXPECT_EQ(resumed, 0);

  // The next claim reuses the slot. Cancelling through the stale token
  // again must NOT kill the new timer.
  CancelToken tok2 = sim.schedule_cancellable_at(ms(5), parked);
  (void)tok2;
  tok1.cancel();  // stale generation: no-op
  sim.run();
  EXPECT_EQ(resumed, 1);
  EXPECT_EQ(sim.now(), ms(5));
}

TEST(Simulation, StaleProcessHandleReadsDone) {
  // Process-state slots recycle immediately on completion; a handle to the
  // finished process keeps reading done() through the generation check,
  // even after a new process takes the slot.
  Simulation sim;
  ProcessHandle h1 = sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.sleep(ms(1));
  }(sim));
  sim.run();
  EXPECT_TRUE(h1.done());
  ProcessHandle h2 = sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.sleep(ms(1));
  }(sim));
  EXPECT_TRUE(h1.done());   // stale handle: still done
  EXPECT_FALSE(h2.done());  // new tenant of the slot: not done
  sim.run();
  EXPECT_TRUE(h2.done());
}

TEST(Simulation, MultipleJoinersWakeFifo) {
  // First joiner parks in the inline slot, the rest in the spill vector;
  // wake order must be join order regardless.
  Simulation sim;
  std::vector<int> order;
  ProcessHandle target = sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.sleep(ms(10));
  }(sim));
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](ProcessHandle t, std::vector<int>& ord,
                 int id) -> Task<void> {
      co_await t.join();
      ord.push_back(id);
    }(target, order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Brute-force determinism fuzz: M processes x K sleeps with pseudo-random
// delays spanning every wheel level and the overflow heap, checked against
// a plain (time, seq) min-heap reference model that mirrors the eager-spawn
// / schedule-on-await semantics exactly.
TEST(TimerWheelFuzz, MatchesReferenceHeapOrdering) {
  constexpr int kProcs = 64;
  constexpr int kSleeps = 40;
  Rng rng(20260808);
  // Log-uniform delays from 1 ns to ~137 s, and one in five zero: a
  // zero-delay sleep is a yield, queued at the current instant behind
  // every event already due then.
  std::vector<std::vector<Duration>> delay(kProcs,
                                           std::vector<Duration>(kSleeps));
  for (auto& row : delay) {
    for (auto& d : row) {
      const std::uint32_t shift = static_cast<std::uint32_t>(rng.below(37));
      d = rng.chance(0.2) ? 0 : 1 + (rng.next() & ((1ull << shift) - 1));
    }
  }
  // After some wakes a process also sends on a channel to its own
  // listener, which is parked in recv(): a channel hop from inside a
  // resume, waking the listener at the current instant.
  std::vector<std::vector<char>> hop(kProcs, std::vector<char>(kSleeps));
  std::vector<int> hops(kProcs, 0);
  for (int p = 0; p < kProcs; ++p) {
    for (auto& h : hop[p]) {
      h = rng.chance(0.25) ? 1 : 0;
      hops[p] += h;
    }
  }

  // Reference: each scheduled wake is (t, seq); seq increments in schedule
  // order. Spawns run eagerly (first sleep scheduled at spawn), later
  // sleeps are scheduled when the previous wake fires, after the wake's
  // hop (if any) scheduled its listener. Listener wakes log as kProcs + p.
  struct RefEv {
    Time t;
    std::uint64_t seq;
    int p;
    int k;  ///< -1: listener wake
    bool operator>(const RefEv& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };
  std::priority_queue<RefEv, std::vector<RefEv>, std::greater<RefEv>> heap;
  std::uint64_t seq = 0;
  for (int p = 0; p < kProcs; ++p) heap.push({delay[p][0], seq++, p, 0});
  std::vector<std::pair<Time, int>> want;
  while (!heap.empty()) {
    const RefEv ev = heap.top();
    heap.pop();
    if (ev.k < 0) {
      want.emplace_back(ev.t, kProcs + ev.p);
      continue;
    }
    want.emplace_back(ev.t, ev.p);
    if (hop[ev.p][ev.k] != 0) heap.push({ev.t, seq++, ev.p, -1});
    if (ev.k + 1 < kSleeps) {
      heap.push({ev.t + delay[ev.p][ev.k + 1], seq++, ev.p, ev.k + 1});
    }
  }

  Simulation sim;
  std::vector<std::pair<Time, int>> got;
  std::vector<std::unique_ptr<Channel<int>>> chans;
  for (int p = 0; p < kProcs; ++p) {
    chans.push_back(std::make_unique<Channel<int>>(sim));
    sim.spawn([](Simulation& s, Channel<int>& ch, int n,
                 std::vector<std::pair<Time, int>>& out,
                 int id) -> Task<void> {
      for (int i = 0; i < n; ++i) {
        (void)co_await ch.recv();
        out.emplace_back(s.now(), id);
      }
    }(sim, *chans[p], hops[p], got, kProcs + p));
  }
  for (int p = 0; p < kProcs; ++p) {
    sim.spawn([](Simulation& s, const std::vector<Duration>& ds,
                 const std::vector<char>& hs, Channel<int>& ch,
                 std::vector<std::pair<Time, int>>& out,
                 int id) -> Task<void> {
      for (std::size_t k = 0; k < ds.size(); ++k) {
        co_await s.sleep(ds[k]);
        out.emplace_back(s.now(), id);
        if (hs[k] != 0) ch.send(static_cast<int>(k));
      }
    }(sim, delay[p], hop[p], *chans[p], got, p));
  }
  sim.run();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "divergence at event " << i;
  }
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Simulation, DeadlockLeavesLiveProcesses) {
  Simulation sim;
  Channel<int> ch(sim);
  sim.spawn([](Channel<int>& c) -> Task<void> {
    (void)co_await c.recv();  // never satisfied
  }(ch));
  sim.run();
  EXPECT_EQ(sim.live_processes(), 1u);
}

}  // namespace
}  // namespace csar::sim
