// Order statistics and the rate-ladder rule shared by every phase of the
// benchmark. Header-only so the self-test links it without the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `v` (copied and sorted here): the smallest
/// sample with at least `p` percent of the samples at or below it. `p` is
/// clamped to [0, 100]; an empty input yields NaN.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  p = std::clamp(p, 0.0, 100.0);
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

/// Samples that lie strictly above the nearest-rank percentile `p` — the
/// guide's "at least ten samples beyond it" test for reporting p.
inline std::size_t samples_beyond(const std::vector<double>& v, double p) {
  const double cut = percentile(v, p);
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > cut; }));
}

/// One step of the open-loop rate ladder.
struct LadderStep {
  double offered_rps = 0.0;   ///< scheduled arrival rate
  double achieved_rps = 0.0;  ///< completions / step length
  double p99_ms = 0.0;        ///< latency from due time
  double tail_p50_ms = 0.0;   ///< median latency of the last tenth (by due)
  std::int64_t failed = 0;    ///< non-OK replies, errors, timeouts
};

/// A step meets the limit when nothing failed, its p99 is within the
/// limit, and the requests due in its last tenth were not queued behind a
/// growing backlog (their median is within the limit as well).
inline bool ladder_step_passes(const LadderStep& s, double limit_ms) {
  return s.failed == 0 && s.p99_ms <= limit_ms && s.tail_p50_ms <= limit_ms;
}

/// The highest sustained rate. A rate passes when any attempt at it
/// passed (a failing step may be retried, so a lone stall does not end the
/// climb) and fails when every attempt failed. The answer is the best
/// achieved rate among passing attempts offered below every failing rate;
/// steps may come in any order (a climb followed by bisection). 0 when no
/// step qualifies.
inline double ladder_max_rps(const std::vector<LadderStep>& steps,
                             double limit_ms) {
  auto rate_passes = [&](double rate) {
    return std::any_of(steps.begin(), steps.end(), [&](const LadderStep& s) {
      return s.offered_rps == rate && ladder_step_passes(s, limit_ms);
    });
  };
  double first_fail = INFINITY;
  for (const LadderStep& s : steps) {
    if (!rate_passes(s.offered_rps)) {
      first_fail = std::min(first_fail, s.offered_rps);
    }
  }
  double best = 0.0;
  for (const LadderStep& s : steps) {
    if (ladder_step_passes(s, limit_ms) && s.offered_rps < first_fail) {
      best = std::max(best, s.achieved_rps);
    }
  }
  return best;
}

/// FNV-1a over raw bytes; chained through `h` to digest many buffers.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view s,
                           std::uint64_t h = 1469598103934665603ull) {
  return fnv1a(s.data(), s.size(), h);
}

}  // namespace perfbench
