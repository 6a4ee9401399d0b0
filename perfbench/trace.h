// In-memory span and counter recorder for the benchmark's traced runs,
// and the JSON emitter for perfbench_driver's reports.
//
// perfbench_driver wraps each call into a library module in a ScopedSpan; a
// null Trace* makes every span a no-op, so the untraced run executes the
// same calls. Spans and counters stay in memory until ToJson() writes
// them out at the end of the run; run.py turns them into the per-layer
// metrics.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <charconv>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "io/json_writer.h"

namespace perfbench {

// Minimal JSON emitter. infoshield::JsonWriter prints doubles with six
// significant digits, which suits the canonical output but would round
// measured times and large counters; this one prints every number in its
// shortest exact form. The caller drives the structure.
class JsonOut {
 public:
  JsonOut& Open(char bracket) {
    Separate();
    out_ += bracket;
    first_ = true;
    return *this;
  }
  JsonOut& Close(char bracket) {
    out_ += bracket;
    first_ = false;
    return *this;
  }
  JsonOut& Key(std::string_view key) {
    Separate();
    out_ += '"' + infoshield::EscapeJsonString(key) + "\":";
    first_ = true;
    return *this;
  }
  JsonOut& Number(double value) {
    Separate();
    if (!std::isfinite(value)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    out_.append(buf, end);
    return *this;
  }
  JsonOut& Bool(bool value) {
    Separate();
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonOut& String(std::string_view value) {
    Separate();
    out_ += '"' + infoshield::EscapeJsonString(value) + '"';
    return *this;
  }
  template <typename T>
  JsonOut& Numbers(const std::vector<T>& values) {
    Open('[');
    for (T v : values) Number(static_cast<double>(v));
    return Close(']');
  }
  const std::string& str() const { return out_; }

 private:
  // A comma before every value or key except the first in its container
  // and the value right after a key.
  void Separate() {
    if (!first_) out_ += ',';
    first_ = false;
  }

  std::string out_;
  bool first_ = true;
};

class Trace {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  // since the Trace was created
    double duration_s = 0.0;
    int thread = 0;   // small per-thread id, in order of first use
    int parent = -1;  // index of the enclosing span on the same thread
    int request = 0;  // the operation the span belongs to
  };

  Trace() : origin_(Clock::now()) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  // Tags the spans and counters recorded from now on with `request`.
  void SetRequest(int request) {
    std::lock_guard<std::mutex> lock(mu_);
    request_ = request;
  }

  // Sets (not adds) a named counter of the current request.
  void Count(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_[request_][name] = value;
  }

  // {"spans": [...], "counters": {"<request>": {...}}}.
  std::string ToJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    JsonOut w;
    w.Open('{').Key("spans").Open('[');
    for (const Span& s : spans_) {
      w.Open('{')
          .Key("name").String(s.name)
          .Key("start_s").Number(s.start_s)
          .Key("duration_s").Number(s.duration_s)
          .Key("thread").Number(s.thread)
          .Key("parent").Number(s.parent)
          .Key("request").Number(s.request)
          .Close('}');
    }
    w.Close(']').Key("counters").Open('{');
    for (const auto& [request, counters] : counters_) {
      w.Key(std::to_string(request)).Open('{');
      for (const auto& [name, value] : counters) w.Key(name).Number(value);
      w.Close('}');
    }
    w.Close('}').Close('}');
    return w.str();
  }

 private:
  friend class ScopedSpan;
  using Clock = std::chrono::steady_clock;

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  // Opens a span and makes it the calling thread's innermost one.
  size_t Open(const std::string& name, int* saved_parent) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = thread_ids_.emplace(
        std::this_thread::get_id(), static_cast<int>(thread_ids_.size()));
    Span span;
    span.name = name;
    span.thread = it->second;
    span.request = request_;
    const auto open = innermost_.find(span.thread);
    span.parent = open == innermost_.end() ? -1 : open->second;
    *saved_parent = span.parent;
    innermost_[span.thread] = static_cast<int>(spans_.size());
    span.start_s = Now();
    spans_.push_back(std::move(span));
    return spans_.size() - 1;
  }

  void Close(size_t index, int saved_parent) {
    const double end = Now();
    std::lock_guard<std::mutex> lock(mu_);
    Span& span = spans_[index];
    span.duration_s = end - span.start_s;
    innermost_[span.thread] = saved_parent;
  }

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int request_ = 0;
  std::map<int, std::map<std::string, double>> counters_;
  std::map<std::thread::id, int> thread_ids_;
  std::map<int, int> innermost_;  // thread id -> open span index or -1
};

// Records one span on `trace` for its lifetime; does nothing when
// `trace` is null.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const std::string& name) : trace_(trace) {
    if (trace_ != nullptr) index_ = trace_->Open(name, &saved_parent_);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->Close(index_, saved_parent_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* const trace_;
  size_t index_ = 0;
  int saved_parent_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
