// In-memory span recorder for the traced run. Spans are taken in the
// benchmark's own code, around each call into a library module's public
// functions, so the untraced run pays nothing: with tracing off every call
// is a branch on a bool.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::string name;
    Clock::time_point start, end;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  bool on() const { return on_; }

  /// Records a finished span; returns its id (0 when tracing is off).
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end) {
    if (!on_) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({++next_id_, name, start, end});
  }

  /// Writes every span as one JSON object per line (times in us since the
  /// tracer was created).
  void write_jsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream f(path);
    for (const Span& s : spans_) {
      f << "{\"id\":" << s.id << ",\"name\":\"" << s.name << "\",\"start_us\":"
        << ms_between(epoch_, s.start) * 1e3
        << ",\"end_us\":" << ms_between(epoch_, s.end) * 1e3 << "}\n";
    }
  }

 private:
  bool on_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 0;
};

/// Times `fn` into a span named `name` (recorded only when tracing is on)
/// and returns its duration in ms.
template <class Fn>
double span_ms(Tracer& t, const std::string& name, Fn&& fn) {
  const auto start = Clock::now();
  fn();
  const auto end = Clock::now();
  t.record(name, start, end);
  return ms_between(start, end);
}

/// Times `fn` into a span named `name` when tracing is on; just calls it
/// otherwise. Returns whatever `fn` returns.
template <class Fn>
decltype(auto) traced(Tracer& t, const std::string& name, Fn&& fn) {
  if (!t.on()) return fn();
  struct Finish {
    Tracer& t;
    const std::string& name;
    Clock::time_point start;
    ~Finish() { t.record(name, start, Clock::now()); }
  } finish{t, name, Clock::now()};
  return fn();
}

}  // namespace perfbench
