// Tracer: sim-time span tracing for the CSAR stack, exported as Chrome
// trace_event JSON (open chrome://tracing or https://ui.perfetto.dev).
//
// A span is an interval of *simulated* time with a name, a category and an
// optional parent span; instant events mark point-in-time occurrences
// (faults, rebuild phases, migrations). The mapping onto the trace viewer:
//
//   pid  — one per node (registered by raid::Rig::set_obs: manager, each
//          server, each client) plus pid 1, the "sim" process, which hosts
//          named simulator tasks and the fault/rebuild timeline.
//   tid  — one lane per concurrent coroutine task. Lanes are pooled per
//          (pid, kind): task_span() acquires the lowest free lane of its
//          kind and end() releases it, so the lane count equals the peak
//          task concurrency, not the task count.
//
// Determinism rules: every timestamp comes from sim::Simulation::now() —
// never the wall clock — and every id from a per-tracer counter, so the
// same seeded run produces a byte-identical trace. Recording a span never
// awaits and never schedules a simulation event: attaching a tracer must
// not change what the simulation does, only what it remembers (the
// obs_test pins this by comparing storm fingerprints traced vs untraced).
//
// Disabled path: call sites guard every record with
//   if (obs::kEnabled && tracer_) { ... }
// `kEnabled` is a compile-time constant (CSAR_OBS macro, default on), so a
// -DCSAR_OBS=0 build compiles the guards out entirely; with the default
// build a null tracer costs one pointer test per site.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"

#ifndef CSAR_OBS
#define CSAR_OBS 1
#endif

namespace csar::obs {

/// Compile-time master switch for the hot-path span guards.
inline constexpr bool kEnabled = CSAR_OBS != 0;

/// Span identity; 0 means "no span" (absent parent).
using SpanId = std::uint64_t;

class Tracer;

/// A span's or instant's arguments: up to three integer fields kept inline
/// (a literal key and its value, formatted only by Tracer::to_json(), so
/// recording them allocates nothing), then an optional JSON object *body*
/// fragment for any argument that is not an integer, e.g. "\"full\":true".
struct Args {
  struct Int {
    const char* key;  ///< a string literal: the event keeps the pointer
    std::uint64_t value;
  };
  static constexpr std::size_t kMaxInts = 3;

  Args() = default;
  Args(std::initializer_list<Int> fields) {
    assert(fields.size() <= kMaxInts && "at most three integer arguments");
    for (const Int& f : fields) {
      if (nints < kMaxInts) ints[nints++] = f;
    }
  }
  Args(std::string json) : text(std::move(json)) {}
  Args(std::initializer_list<Int> fields, std::string json)
      : Args(fields) {
    text = std::move(json);
  }

  bool empty() const { return nints == 0 && text.empty(); }

  std::array<Int, kMaxInts> ints{};
  std::uint8_t nints = 0;
  std::string text;
};

/// RAII guard for an open span: ends the span (at the sim time of
/// destruction) and releases its pooled lane, if it owns one. Move-only;
/// a default-constructed Span is inert, which is what the disabled path
/// leaves behind.
class Span {
 public:
  Span() = default;
  Span(Span&& o) noexcept { *this = std::move(o); }
  Span& operator=(Span&& o) noexcept {
    if (this != &o) {
      end();
      t_ = o.t_;
      id_ = o.id_;
      idx_ = o.idx_;
      pid_ = o.pid_;
      tid_ = o.tid_;
      kind_ = o.kind_;
      o.t_ = nullptr;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// Close the span now (idempotent).
  void end();

  SpanId id() const { return t_ ? id_ : 0; }
  std::uint32_t pid() const { return pid_; }
  std::uint32_t tid() const { return tid_; }
  explicit operator bool() const { return t_ != nullptr; }

 private:
  friend class Tracer;
  Span(Tracer* t, SpanId id, std::size_t idx, std::uint32_t pid,
       std::uint32_t tid)
      : t_(t), id_(id), idx_(idx), pid_(pid), tid_(tid) {}

  Tracer* t_ = nullptr;
  SpanId id_ = 0;
  std::size_t idx_ = 0;  ///< index into Tracer::events_ (append-only)
  std::uint32_t pid_ = 0;
  std::uint32_t tid_ = 0;
  /// Pool key of the lane this span owns (nullptr: lane not owned). The
  /// span hands it back at end() so the tracer needs no tid->kind map.
  const char* kind_ = nullptr;
};

/// Call-site context for threading a parent span (and its lane) through
/// plain function arguments — used by IoServer's exec stages, where the
/// request span outlives several helper coroutines.
struct Ctx {
  Tracer* t = nullptr;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  SpanId parent = 0;
};

class Tracer final : public sim::TaskObserver {
 public:
  /// A tracer is constructed detached; raid::Rig::set_obs (or a test)
  /// attaches it to the simulation whose clock stamps the events.
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void attach(sim::Simulation& sim) { sim_ = &sim; }
  bool attached() const { return sim_ != nullptr; }
  /// Stop reading `sim`'s clock, if attached to it, because its owner is
  /// going away (raid::Rig's destructor calls this). Spans still open then
  /// close, in to_json(), at the time of detaching.
  void detach(const sim::Simulation& sim) {
    if (sim_ != &sim) return;
    detached_at_ = sim.now();
    sim_ = nullptr;
  }

  /// Register a trace process (one per node); returns its pid. pid 1, the
  /// "sim" process, always exists.
  std::uint32_t process(std::string name);

  /// Register a permanently named thread lane under `pid`; returns its tid.
  std::uint32_t thread(std::uint32_t pid, std::string name);

  /// Node-id -> pid registry, so components keep using hw::NodeId values
  /// (obs depends only on sim). Unmapped nodes return 0 = "don't trace".
  void map_node(std::uint32_t node, std::uint32_t pid);
  std::uint32_t node_pid(std::uint32_t node) const;

  /// Open a span on an explicit lane. `name` and `cat` must be string
  /// literals (the tracer stores the pointers), and so must `args`' integer
  /// keys, e.g. {{"bytes", 4096}}.
  Span span(std::uint32_t pid, std::uint32_t tid, const char* name,
            const char* cat, SpanId parent = 0, Args args = {});

  /// Open a span on a pooled lane of `kind` under `pid`; the lane is
  /// released when the span ends. Use for one span per coroutine task.
  /// `kind` must be a string literal too (the span keeps the pointer to
  /// return the lane; pools match kinds by content).
  Span task_span(std::uint32_t pid, const char* kind, const char* name,
                 const char* cat, SpanId parent = 0, Args args = {});

  /// Record an instant event. Defaults to the "sim" process timeline lane.
  void instant(const char* name, const char* cat, Args args = {},
               std::uint32_t pid = kSimPid, std::uint32_t tid = 1);

  // sim::TaskObserver — named Simulation::spawn()s become spans on pooled
  // "sim" process lanes.
  std::uint64_t on_task_start(const char* name) override;
  void on_task_end(std::uint64_t token) override;

  struct Event {
    char ph = 'X';  ///< 'X' complete span, 'i' instant
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    sim::Time start = 0;
    sim::Duration dur = 0;
    bool open = false;  ///< span not yet ended (closed at export time)
    SpanId id = 0;
    SpanId parent = 0;
    const char* name = "";
    const char* cat = "";
    Args args;
  };

  const std::vector<Event>& events() const { return events_; }
  std::size_t span_count() const { return span_count_; }
  std::size_t instant_count() const { return instant_count_; }

  /// Serialize as Chrome trace_event JSON ({"traceEvents":[...]}). Spans
  /// still open are closed at the current sim time. Byte-deterministic for
  /// a deterministic run.
  std::string to_json() const;

  /// to_json() to a file; false on I/O failure.
  bool write_file(const std::string& path) const;

  /// pid of the built-in "sim" process.
  static constexpr std::uint32_t kSimPid = 1;

 private:
  friend class Span;

  sim::Time now() const { return sim_ ? sim_->now() : detached_at_; }
  void end_span(std::size_t idx);
  std::uint32_t acquire_lane(std::uint32_t pid, const char* kind);
  void release_lane(std::uint32_t pid, std::uint32_t tid, const char* kind);

  struct Process {
    std::string name;
    std::uint32_t next_tid = 1;
    std::vector<std::pair<std::uint32_t, std::string>> threads;
  };

  /// Free pooled lanes for one (pid, kind), reused in LIFO order. A flat
  /// vector, not a map: a rig has a handful of (pid, kind) pairs and this
  /// sits on the per-span hot path — strcmp over short literals beats
  /// tree lookups with string keys by a wide margin.
  struct LanePool {
    std::uint32_t pid;
    const char* kind;
    std::vector<std::uint32_t> free;
  };

  sim::Simulation* sim_ = nullptr;
  sim::Time detached_at_ = 0;
  std::vector<Process> processes_{{"sim", 2, {{1, "timeline"}}}};
  std::map<std::uint32_t, std::uint32_t> node_pid_;
  std::vector<LanePool> lane_pool_;
  std::vector<Event> events_;
  /// Span guards parked in on_task_start, keyed by their token (= span id).
  std::map<std::uint64_t, Span> open_tasks_;
  SpanId next_id_ = 1;
  std::size_t span_count_ = 0;
  std::size_t instant_count_ = 0;
};

}  // namespace csar::obs
