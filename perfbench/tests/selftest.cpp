// Self-test of the benchmark's own helpers: percentile selection, the
// max-rate ladder rule, and seed-determinism of the generated inputs.
// Run with `python3 perfbench/run.py --selftest`; exits non-zero when any
// expectation fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "inputs.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect(percentile(v, 50) == 50, "p50 of 1..100 is 50");
  expect(percentile(v, 99) == 99, "p99 of 1..100 is 99");
  expect(percentile(v, 100) == 100, "p100 is the maximum");
  expect(percentile(v, 0) == 1, "p0 is the minimum");
  expect(percentile(v, 99.5) == 100, "p99.5 of 100 samples rounds up");
  expect(percentile({7.0}, 99) == 7.0, "one sample is every percentile");
  expect(median({3.0, 1.0, 2.0, 4.0}) == 2.0,
         "nearest-rank median of an even count is the lower middle");
  expect(std::isnan(percentile({}, 50)), "empty input has no percentile");
  expect(samples_beyond(v, 99) == 1, "one sample lies beyond p99 of 100");
  std::vector<double> w;
  for (int i = 1; i <= 1100; ++i) w.push_back(i);
  expect(samples_beyond(w, 99) == 11, "1100 samples leave 11 beyond p99");

}

LadderStep step(double offered, double p99, double tail, std::int64_t failed = 0) {
  LadderStep s;
  s.offered_rps = offered;
  s.achieved_rps = offered * 0.99;
  s.p99_ms = p99;
  s.tail_p50_ms = tail;
  s.failed = failed;
  return s;
}

void test_ladder() {
  const double limit = 20;
  expect(ladder_step_passes(step(600, 5, 3), limit), "fast step passes");
  expect(!ladder_step_passes(step(600, 25, 3), limit), "p99 over limit fails");
  expect(!ladder_step_passes(step(600, 5, 3, 1), limit),
         "a failed request fails the step");
  expect(!ladder_step_passes(step(600, 19, 21), limit),
         "a growing backlog (slow last tenth) fails the step");
  expect(ladder_step_passes(step(600, 20, 20), limit),
         "exactly at the limit passes");

  // Climb 600 -> 750 -> 937.5 (fail), then bisect 838 (pass), 886 (fail),
  // 862 (pass): the answer is the 862 step's achieved rate.
  const std::vector<LadderStep> climb = {
      step(600, 4, 3), step(750, 5, 3), step(937.5, 80, 70),
      step(838, 6, 3), step(886, 40, 30), step(862, 8, 3)};
  expect(ladder_max_rps(climb, limit) == 862 * 0.99,
         "max rate is the best pass below every failure");
  // A pass above a failing rate is noise, not capacity.
  const std::vector<LadderStep> noisy = {step(600, 4, 3), step(750, 30, 3),
                                         step(900, 5, 3)};
  expect(ladder_max_rps(noisy, limit) == 600 * 0.99,
         "a pass above a failure does not count");
  // A failed attempt retried successfully keeps its rate.
  const std::vector<LadderStep> retried = {
      step(600, 4, 3), step(750, 35, 3), step(750, 6, 3),
      step(937.5, 80, 70), step(937.5, 85, 75)};
  expect(ladder_max_rps(retried, limit) == 750 * 0.99,
         "a rate passes when its retry passes");
  expect(ladder_max_rps({step(600, 90, 80)}, limit) == 0,
         "no passing step gives 0");
  expect(ladder_max_rps({}, limit) == 0, "no steps give 0");
}

template <class T>
bool same_span(std::span<const T> x, std::span<const T> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
}

bool same_bytes(const ls::Dataset& a, const ls::Dataset& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same_span(a.X.row_indices(), b.X.row_indices()) &&
         same_span(a.X.col_indices(), b.X.col_indices()) &&
         same_span(a.X.values(), b.X.values()) &&
         same_span(std::span<const ls::real_t>(a.y),
                   std::span<const ls::real_t>(b.y));
}

void test_inputs_deterministic() {
  for (const Family& f : all_families()) {
    const Inputs a = make_inputs(f, 42);
    const Inputs b = make_inputs(f, 42);
    const Inputs c = make_inputs(f, 43);
    expect(a.digest() == b.digest(), f.name + ": one seed, identical inputs");
    bool same = a.jobs.size() == b.jobs.size() &&
                same_bytes(a.served, b.served) &&
                same_bytes(a.stream, b.stream) &&
                a.request_rows == b.request_rows;
    for (std::size_t j = 0; same && j < a.jobs.size(); ++j) {
      same = same_bytes(a.jobs[j].train, b.jobs[j].train) &&
             same_bytes(a.jobs[j].heldout, b.jobs[j].heldout);
    }
    expect(same, f.name + ": datasets and request rows are byte-identical");
    expect(a.digest() != c.digest(), f.name + ": another seed, other inputs");
  }
}

}  // namespace

int main() {
  test_percentile();
  test_ladder();
  test_inputs_deterministic();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? EXIT_FAILURE : EXIT_SUCCESS;
}
