#include "obs/trace.hpp"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace csar::obs {

void Span::end() {
  if (t_ == nullptr) return;
  Tracer* t = t_;
  t_ = nullptr;
  t->end_span(idx_);
  if (kind_ != nullptr) t->release_lane(pid_, tid_, kind_);
}

std::uint32_t Tracer::process(std::string name) {
  processes_.push_back({std::move(name), 1, {}});
  return static_cast<std::uint32_t>(processes_.size());
}

std::uint32_t Tracer::thread(std::uint32_t pid, std::string name) {
  assert(pid >= 1 && pid <= processes_.size());
  Process& p = processes_[pid - 1];
  const std::uint32_t tid = p.next_tid++;
  p.threads.emplace_back(tid, std::move(name));
  return tid;
}

void Tracer::map_node(std::uint32_t node, std::uint32_t pid) {
  node_pid_[node] = pid;
}

std::uint32_t Tracer::node_pid(std::uint32_t node) const {
  auto it = node_pid_.find(node);
  return it == node_pid_.end() ? 0 : it->second;
}

std::uint32_t Tracer::acquire_lane(std::uint32_t pid, const char* kind) {
  for (LanePool& p : lane_pool_) {
    if (p.pid == pid && std::strcmp(p.kind, kind) == 0) {
      if (p.free.empty()) return thread(pid, kind);
      const std::uint32_t tid = p.free.back();
      p.free.pop_back();
      return tid;
    }
  }
  // First concurrent task of this kind at this depth: a fresh lane, named
  // after the kind (reuse keeps the name accurate).
  lane_pool_.push_back({pid, kind, {}});
  return thread(pid, kind);
}

void Tracer::release_lane(std::uint32_t pid, std::uint32_t tid,
                          const char* kind) {
  for (LanePool& p : lane_pool_) {
    if (p.pid == pid && std::strcmp(p.kind, kind) == 0) {
      p.free.push_back(tid);
      return;
    }
  }
}

Span Tracer::span(std::uint32_t pid, std::uint32_t tid, const char* name,
                  const char* cat, SpanId parent, Args args) {
  const SpanId id = next_id_++;
  Event e;
  e.ph = 'X';
  e.pid = pid;
  e.tid = tid;
  e.start = now();
  e.open = true;
  e.id = id;
  e.parent = parent;
  e.name = name;
  e.cat = cat;
  e.args = std::move(args);
  const std::size_t idx = events_.size();
  events_.push_back(std::move(e));
  ++span_count_;
  return Span(this, id, idx, pid, tid);
}

Span Tracer::task_span(std::uint32_t pid, const char* kind, const char* name,
                       const char* cat, SpanId parent, Args args) {
  const std::uint32_t tid = acquire_lane(pid, kind);
  Span s = span(pid, tid, name, cat, parent, std::move(args));
  s.kind_ = kind;
  return s;
}

void Tracer::end_span(std::size_t idx) {
  Event& e = events_[idx];
  e.dur = now() - e.start;
  e.open = false;
}

void Tracer::instant(const char* name, const char* cat, Args args,
                     std::uint32_t pid, std::uint32_t tid) {
  Event e;
  e.ph = 'i';
  e.pid = pid;
  e.tid = tid;
  e.start = now();
  e.name = name;
  e.cat = cat;
  e.args = std::move(args);
  events_.push_back(std::move(e));
  ++instant_count_;
}

std::uint64_t Tracer::on_task_start(const char* name) {
  Span s = task_span(kSimPid, name, name, "task");
  const std::uint64_t token = s.id();
  open_tasks_.emplace(token, std::move(s));
  return token;
}

void Tracer::on_task_end(std::uint64_t token) {
  open_tasks_.erase(token);  // ~Span ends the span and releases the lane
}

namespace {

/// Integer-only microsecond rendering of an integer-ns time: "12.345".
/// Avoids floating-point formatting so traces are byte-stable everywhere.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  out += buf;
}

/// The body of an event's args object: its integer fields, then its text.
void append_args(std::string& out, const Args& a) {
  for (std::uint8_t i = 0; i < a.nints; ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += a.ints[i].key;
    out += "\":";
    out += std::to_string(a.ints[i].value);
  }
  if (a.nints > 0 && !a.text.empty()) out += ',';
  out += a.text;
}

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

std::string Tracer::to_json() const {
  std::string out;
  out.reserve(256 + events_.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    const Process& p = processes_[i];
    const std::uint32_t pid = static_cast<std::uint32_t>(i + 1);
    sep();
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"args\":{\"name\":\"";
    append_escaped(out, p.name);
    out += "\"}}";
    for (const auto& [tid, tname] : p.threads) {
      sep();
      out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
      out += std::to_string(pid);
      out += ",\"tid\":";
      out += std::to_string(tid);
      out += ",\"args\":{\"name\":\"";
      append_escaped(out, tname);
      out += "\"}}";
    }
  }
  const sim::Time close_at = now();
  for (const Event& e : events_) {
    sep();
    out += "{\"ph\":\"";
    out += e.ph;
    out += "\",\"pid\":";
    out += std::to_string(e.pid);
    out += ",\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    append_us(out, e.start);
    if (e.ph == 'X') {
      out += ",\"dur\":";
      append_us(out, e.open ? close_at - e.start : e.dur);
    } else {
      out += ",\"s\":\"g\"";
    }
    out += ",\"name\":\"";
    out += e.name;
    out += "\",\"cat\":\"";
    out += e.cat;
    out += "\",\"args\":{";
    if (e.ph == 'X') {
      out += "\"span\":";
      out += std::to_string(e.id);
      if (e.parent != 0) {
        out += ",\"parent\":";
        out += std::to_string(e.parent);
      }
      if (!e.args.empty()) out += ',';
    }
    append_args(out, e.args);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace csar::obs
