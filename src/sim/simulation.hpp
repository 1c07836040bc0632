// Simulation: single-threaded discrete-event executor for Task coroutines.
//
// Processes are coroutines spawned on the simulation; they advance simulated
// time only by awaiting (sleep, channels, resources). Events with equal
// timestamps fire in schedule order (FIFO by sequence number), making every
// run deterministic.
//
// The hot path is allocation-free in steady state: events live in a
// hierarchical timer wheel (sim/event_queue.hpp), cancellable timers use a
// generation-stamped recycling pool instead of shared_ptr flags, spawned
// processes draw their completion state from a recycling pool, and coroutine
// frames come from the slab allocator (sim/slab.hpp).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/slab.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace csar::sim {

class Simulation;

/// Observer of *named* spawned processes (see Simulation::spawn(t, name)).
/// Implemented by obs::Tracer to render long-lived simulator tasks as trace
/// lanes. on_task_start returns a token handed back at completion. The
/// wrapper that drives these callbacks runs inline on the spawning/finishing
/// resume chain — it never schedules an event — so installing an observer
/// cannot change simulated time or event counts.
class TaskObserver {
 public:
  virtual ~TaskObserver() = default;
  virtual std::uint64_t on_task_start(const char* name) = 0;
  virtual void on_task_end(std::uint64_t token) = 0;
};

/// Completion state of a spawned process. Pool-backed: slots recycle as soon
/// as the process finishes, with a generation stamp so handles to finished
/// processes stay valid (a stale generation reads as "done"). The first
/// joiner parks in an inline slot — the overwhelmingly common case — so
/// joining allocates nothing.
struct ProcessState {
  std::uint32_t gen = 0;
  bool done = false;
  std::coroutine_handle<> root;  ///< the live process's root frame
  std::coroutine_handle<> joiner0;  ///< inline single-joiner slot
  std::vector<std::coroutine_handle<>> extra_joiners;
};

/// Cancellation token for schedule_cancellable_at. Cancelling after the
/// event has fired (or was discarded) is a harmless no-op: the pool slot's
/// generation has moved on and the stale token no longer matches.
class CancelToken {
 public:
  CancelToken() = default;

  /// True iff this token was issued by schedule_cancellable_at (it may
  /// still be stale).
  bool armed() const { return q_ != nullptr; }

  /// Discard the pending event without touching its coroutine handle.
  void cancel() const {
    if (q_ != nullptr) q_->cancel(idx_, gen_);
  }

 private:
  friend class Simulation;
  CancelToken(EventQueue* q, std::uint32_t idx, std::uint32_t gen)
      : q_(q), idx_(idx), gen_(gen) {}

  EventQueue* q_ = nullptr;
  std::uint32_t idx_ = 0;
  std::uint32_t gen_ = 0;
};

/// Handle to a spawned process; lets other coroutines await its completion.
class ProcessHandle {
 public:
  ProcessHandle() = default;

  bool valid() const { return sim_ != nullptr; }
  inline bool done() const;

  /// Awaitable: suspends until the process finishes (no-op if it already
  /// has). Join order among multiple joiners is FIFO.
  inline auto join() const;

 private:
  friend class Simulation;
  ProcessHandle(Simulation* sim, std::uint32_t idx, std::uint32_t gen)
      : sim_(sim), idx_(idx), gen_(gen) {}

  Simulation* sim_ = nullptr;
  std::uint32_t idx_ = 0;
  std::uint32_t gen_ = 0;
};

/// Destroying a Simulation destroys the coroutine frames of processes that
/// are still live (deadlocked, or parked forever on a channel), so none
/// leaks. That runs the destructors of their locals — and of every Task
/// they are awaiting — which may touch the objects those processes use: a
/// sync::Mutex a Guard releases, a Tracer a Span ends into. Owner order:
/// such objects must outlive the Simulation (declare them before it), or
/// the owner must drain the processes before destroying them (Rig's
/// destructor stops its daemons and runs the queue dry). Locals that only
/// own memory (Buffers, results, awaiter slots) need neither.
class Simulation {
 public:
  Simulation() = default;
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Start `t` as a process at the current time. The task body runs
  /// immediately (same timestamp) until its first suspension.
  ProcessHandle spawn(Task<void> t);

  /// spawn() with a process name reported to the installed TaskObserver
  /// (`name` must outlive the process — use a string literal). Without an
  /// observer this is exactly spawn(): no wrapper, no extra frame.
  ProcessHandle spawn(Task<void> t, const char* name);

  /// Install (or clear, with nullptr) the named-spawn observer. Not owned;
  /// must outlive every named process still running.
  void set_task_observer(TaskObserver* o) { observer_ = o; }
  TaskObserver* task_observer() const { return observer_; }

  /// Awaitable: resume after `d` simulated nanoseconds.
  auto sleep(Duration d) { return SleepAwaiter{this, now_ + d}; }

  /// Awaitable: resume at absolute time `t` (>= now).
  auto sleep_until(Time t) {
    return SleepAwaiter{this, t < now_ ? now_ : t};
  }

  /// Awaitable: yield to other same-time events, then resume.
  auto yield() { return SleepAwaiter{this, now_}; }

  /// Enqueue a raw coroutine resume at time `t` (>= now). Used by
  /// synchronization primitives; most code awaits instead.
  void schedule_at(Time t, std::coroutine_handle<> h);

  /// Enqueue a raw coroutine resume at the current time, after already
  /// queued same-time events.
  void schedule_now(std::coroutine_handle<> h) { schedule_at(now_, h); }

  /// Enqueue a cancellable resume at time `t`. Calling cancel() on the
  /// returned token before the event fires discards it without touching the
  /// handle — the building block for timeouts, where the same coroutine may
  /// instead be resumed by the operation completing.
  CancelToken schedule_cancellable_at(Time t, std::coroutine_handle<> h);

  /// Run until the event queue is empty. Returns the final time.
  Time run();

  /// Run until the queue is empty or `deadline` is passed; events after the
  /// deadline stay queued. Returns the current time.
  Time run_until(Time deadline);

  /// Execute one event; false if the queue was empty.
  bool step();

  /// Number of spawned processes that have not yet finished. Nonzero after
  /// run() indicates a deadlock (process blocked forever); the destructor
  /// frees their frames.
  std::size_t live_processes() const { return live_processes_; }

  /// Total events executed (diagnostics).
  std::uint64_t events_executed() const { return events_executed_; }

 private:
  friend class ProcessHandle;

  struct SleepAwaiter {
    Simulation* sim;
    Time wake;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      sim->schedule_at(wake, h);
    }
    void await_resume() const noexcept {}
  };

  // Detached, self-destroying wrapper that runs a Task as a root process.
  // Its frame owns the Task, so destroying a suspended root frame frees the
  // whole chain of frames below it.
  struct RootCoro {
    std::coroutine_handle<> frame;
    struct promise_type {
      RootCoro get_return_object() noexcept {
        return {std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_never initial_suspend() const noexcept { return {}; }
      std::suspend_never final_suspend() const noexcept { return {}; }
      void return_void() const noexcept {}
      void unhandled_exception() const noexcept { std::terminate(); }

      static void* operator new(std::size_t n) { return slab::allocate(n); }
      static void operator delete(void* p) noexcept { slab::deallocate(p); }
      static void operator delete(void* p, std::size_t) noexcept {
        slab::deallocate(p);
      }
    };
  };
  static RootCoro run_root(Task<void> t, Simulation* sim, std::uint32_t idx);
  static Task<void> observed(TaskObserver* obs, Task<void> inner,
                             const char* name);

  // --- process pool ---
  std::uint32_t alloc_proc();
  void finish_proc(std::uint32_t idx);
  bool proc_done(std::uint32_t idx, std::uint32_t gen) const {
    const ProcessState& st = procs_[idx];
    return st.gen != gen || st.done;
  }
  void proc_add_joiner(std::uint32_t idx, std::coroutine_handle<> h) {
    ProcessState& st = procs_[idx];
    if (!st.joiner0) {
      st.joiner0 = h;
    } else {
      st.extra_joiners.push_back(h);
    }
  }

  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_processes_ = 0;
  std::uint64_t events_executed_ = 0;
  TaskObserver* observer_ = nullptr;
  std::deque<ProcessState> procs_;  // deque: stable refs across growth
  std::vector<std::uint32_t> proc_free_;
};

inline bool ProcessHandle::done() const {
  return sim_ != nullptr && sim_->proc_done(idx_, gen_);
}

inline auto ProcessHandle::join() const {
  struct Awaiter {
    Simulation* sim;
    std::uint32_t idx;
    std::uint32_t gen;
    bool await_ready() const noexcept {
      return sim == nullptr || sim->proc_done(idx, gen);
    }
    void await_suspend(std::coroutine_handle<> h) const {
      sim->proc_add_joiner(idx, h);
    }
    void await_resume() const noexcept {}
  };
  return Awaiter{sim_, idx_, gen_};
}

}  // namespace csar::sim
