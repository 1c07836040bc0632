#include "sim/simulation.hpp"

#include <cassert>
#include <utility>

namespace csar::sim {

Simulation::RootCoro Simulation::run_root(Task<void> t, Simulation* sim,
                                          std::uint32_t idx) {
  co_await std::move(t);
  sim->finish_proc(idx);
}

Simulation::~Simulation() {
  // Index loop: a destructor run by a frame may still touch procs_.
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    if (auto root = std::exchange(procs_[i].root, {})) root.destroy();
  }
}

std::uint32_t Simulation::alloc_proc() {
  if (!proc_free_.empty()) {
    const std::uint32_t idx = proc_free_.back();
    proc_free_.pop_back();
    procs_[idx].done = false;
    return idx;
  }
  procs_.emplace_back();
  return static_cast<std::uint32_t>(procs_.size() - 1);
}

void Simulation::finish_proc(std::uint32_t idx) {
  ProcessState& st = procs_[idx];
  st.done = true;
  st.root = {};
  --live_processes_;
  if (st.joiner0) {
    schedule_now(st.joiner0);
    st.joiner0 = {};
    for (auto j : st.extra_joiners) schedule_now(j);
    st.extra_joiners.clear();
  }
  // Recycle immediately: the generation bump makes surviving handles read
  // as done without touching this slot's new occupant.
  ++st.gen;
  proc_free_.push_back(idx);
}

ProcessHandle Simulation::spawn(Task<void> t) {
  const std::uint32_t idx = alloc_proc();
  const std::uint32_t gen = procs_[idx].gen;
  ++live_processes_;
  const std::coroutine_handle<> frame = run_root(std::move(t), this, idx).frame;
  // If the body completed without suspending, its frame is gone and the
  // slot has already been recycled; the stale generation in the handle
  // reads as done. Otherwise remember the frame for the destructor.
  if (!proc_done(idx, gen)) procs_[idx].root = frame;
  return ProcessHandle{this, idx, gen};
}

Task<void> Simulation::observed(TaskObserver* obs, Task<void> inner,
                                const char* name) {
  const std::uint64_t token = obs->on_task_start(name);
  co_await std::move(inner);
  obs->on_task_end(token);
}

ProcessHandle Simulation::spawn(Task<void> t, const char* name) {
  if (observer_ == nullptr || name == nullptr) return spawn(std::move(t));
  return spawn(observed(observer_, std::move(t), name));
}

void Simulation::schedule_at(Time t, std::coroutine_handle<> h) {
  assert(t >= now_ && "cannot schedule in the past");
  queue_.push(EventQueue::Event{t, next_seq_++, h, EventQueue::kNoCancel, 0});
}

CancelToken Simulation::schedule_cancellable_at(Time t,
                                               std::coroutine_handle<> h) {
  assert(t >= now_ && "cannot schedule in the past");
  const auto [idx, gen] = queue_.claim_cancel_slot();
  queue_.push(EventQueue::Event{t, next_seq_++, h, idx, gen});
  return CancelToken{&queue_, idx, gen};
}

bool Simulation::step() {
  while (queue_.ensure_ready()) {
    EventQueue::Event ev = queue_.pop_ready();
    if (ev.cancel_idx != EventQueue::kNoCancel) {
      // A cancelled timer's handle may already be dead (resumed elsewhere);
      // discard the event without touching it, and recycle the slot either
      // way — the event it guarded is gone.
      const bool dead =
          queue_.cancel_slot_cancelled(ev.cancel_idx, ev.cancel_gen);
      queue_.release_cancel_slot(ev.cancel_idx);
      if (dead) continue;
    }
    assert(ev.t >= now_);
    now_ = ev.t;
    ++events_executed_;
    ev.h.resume();
    return true;
  }
  return false;
}

Time Simulation::run() {
  while (step()) {
  }
  return now_;
}

Time Simulation::run_until(Time deadline) {
  while (queue_.ensure_ready() && queue_.ready_top_time() <= deadline) step();
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace csar::sim
