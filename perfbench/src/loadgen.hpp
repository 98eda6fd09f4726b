// Load generators. Open loop: request k is due at t0 + k / rate whether or
// not earlier requests finished (independent users); each is timed from
// when it was due, so a stall is charged to every request it delays, and
// the generator records how late it sent (start - due) so a stall in the
// generator itself shows up beside the result. Closed loop: each thread
// sends its next request as soon as the previous reply arrives.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "bench_stats.hpp"
#include "tracer.hpp"

namespace perfbench {

struct Sample {
  double due_s = 0.0;        ///< due time, seconds after the phase start
  double latency_ms = 0.0;   ///< reply time - due time
  double lateness_ms = 0.0;  ///< send time - due time
  bool ok = false;
};

struct LoadResult {
  std::vector<Sample> samples;  ///< indexed by request number
  double wall_s = 0.0;          ///< phase start to last reply

  std::vector<double> latencies_ms() const {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const Sample& s : samples) v.push_back(s.latency_ms);
    return v;
  }
  std::vector<double> lateness_ms() const {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const Sample& s : samples) v.push_back(s.lateness_ms);
    return v;
  }
  std::int64_t failed() const {
    std::int64_t n = 0;
    for (const Sample& s : samples) n += s.ok ? 0 : 1;
    return n;
  }
};

/// A request still unsent this long after it was due is abandoned and
/// counted as failed (a timeout), so a stalled program cannot stretch a
/// run past its time limit.
inline constexpr double kGiveUpMs = 1000.0;

/// `call(thread, k)` issues request k on the calling thread's own
/// connection and returns whether it succeeded; an exception counts as a
/// failure. Runs `count` requests at `rate` per second over `threads`
/// threads.
inline LoadResult run_open_loop(
    double rate, std::size_t count, int threads,
    const std::function<bool(int, std::size_t)>& call) {
  LoadResult r;
  r.samples.resize(count);
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= count) return;
        const double due_s = static_cast<double>(k) / rate;
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due_s));
        std::this_thread::sleep_until(due);
        const auto start = Clock::now();
        bool ok = false;
        try {
          ok = ms_between(due, start) <= kGiveUpMs && call(t, k);
        } catch (...) {
          ok = false;
        }
        const auto end = Clock::now();
        r.samples[k] = {due_s, ms_between(due, end), ms_between(due, start),
                        ok};
      }
    });
  }
  for (auto& th : pool) th.join();
  r.wall_s = ms_between(t0, Clock::now()) / 1e3;
  return r;
}

/// Closed loop over `threads` threads until `seconds` have passed.
/// `call(thread, k)` gets a globally unique, increasing-per-thread k.
/// Samples are in completion order per thread, concatenated.
inline LoadResult run_closed_loop(
    double seconds, int threads,
    const std::function<bool(int, std::size_t)>& call) {
  LoadResult r;
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  std::vector<std::vector<Sample>> per(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (Clock::now() < stop) {
        const std::size_t k = next.fetch_add(1);
        const auto start = Clock::now();
        bool ok = false;
        try {
          ok = call(t, k);
        } catch (...) {
          ok = false;
        }
        const auto end = Clock::now();
        per[static_cast<std::size_t>(t)].push_back(
            {ms_between(t0, start) / 1e3, ms_between(start, end), 0.0, ok});
      }
    });
  }
  for (auto& th : pool) th.join();
  r.wall_s = ms_between(t0, Clock::now()) / 1e3;
  for (auto& v : per) r.samples.insert(r.samples.end(), v.begin(), v.end());
  return r;
}

}  // namespace perfbench
