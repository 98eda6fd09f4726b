// What every run measures, against one set of inputs, in one process
// with every library default, in this order:
//
//   jobs    batch SMO training jobs (train_adaptive), each profile
//           repeated; the paper's Fig. 7 / Table VI workload
//   set-up  the serving and training stack, built kSetups times
//   serve   open-loop socket predicts at a low and a high fixed rate and
//           the low rate again through the router
//   ingest  closed-loop labeled-example ingest into the continuous
//           trainer beside an open-loop predict stream on the model it
//           retrains and republishes
//
// The fixed-rate serve phases run in kRounds interleaved rounds, so a
// burst of host contention spreads over all three rates; each metric is
// taken over the samples of every round. The jobs run in kLargeVariants
// rounds; a profile's time is the median of its runs. The traced run
// then probes the layers on their own (the probe() calls and the ingest
// phase's side probes), after all the timed work above, so the traced
// run's end-to-end values are measured the same way as the untraced
// run's.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "inputs.hpp"
#include "report.hpp"
#include "stack.hpp"
#include "tracer.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 36.0;
  bool trace = false;
  /// p99 limit of the max-rate ladder; BENCHMARK.json states it and
  /// run.py passes it, so it has no default here.
  double limit_ms = std::nan("");
  /// Fixed open-loop rates (requests per second). At the low rate
  /// batches hold about one request. The high rate stays below the
  /// capacity the rate ladder measures on a 4-vCPU x86-64 VM even while
  /// the host is loaded (dense 930-1380 req/s, sparse 850-1600), and
  /// batches form there (about 2 rows).
  double lo_rps = 200.0;
  double hi_rps = 600.0;
  /// Load concurrency: threads == connections, at most nproc.
  int connections = 4;
};

constexpr int kRounds = 3;

/// Seconds of RunConfig::seconds given to each measured part, over the
/// whole run (a round gets 1/kRounds of the round-based ones). The two
/// low-rate phases, whose p50s are gated, get the longest windows, so a
/// burst of host contention is a small share of their samples.
struct Budget {
  double jobs, lo, hi, routed, engine_lo, ladder_step, ingest;
  explicit Budget(double s)
      : jobs(0.25 * s),
        lo(0.16 * s),
        hi(0.08 * s),
        routed(0.13 * s),
        engine_lo(0.08 * s),
        ladder_step(0.018 * s),
        ingest(0.25 * s) {}
};

class JobsPhase {
 public:
  JobsPhase(const Inputs& in, const RunConfig& cfg, Tracer& tracer);
  ~JobsPhase();
  JobsPhase(const JobsPhase&) = delete;
  JobsPhase& operator=(const JobsPhase&) = delete;

  /// Round r (0 <= r < kLargeVariants) runs the large group once on its
  /// r-th datasets and the small group for a quarter of the round.
  void round(int r, Report& rep);
  /// Reports ttm_small_s, ttm_large_s and the solver's layer metrics.
  void finish(Report& rep);
  /// Traced run only: times extract_features, decide and materialize on
  /// each job's matrix on their own.
  void probe(Report& rep);

 private:
  struct State;
  std::unique_ptr<State> s_;
};

class ServePhase {
 public:
  ServePhase(const Inputs& in, Stack& stack, const RunConfig& cfg,
             Tracer& tracer);
  ~ServePhase();
  ServePhase(const ServePhase&) = delete;
  ServePhase& operator=(const ServePhase&) = delete;

  void round(Report& rep);
  /// Reports the serve and route metrics of the rounds.
  void finish(Report& rep);
  /// Traced run only: the rate ladder, the in-process engine at the low
  /// rate, the kernel on 1 and 64 rows and the load-time decisions.
  void probe(Report& rep);

 private:
  struct State;
  std::unique_ptr<State> s_;
};

void run_ingest_phase(const Inputs& in, Stack& stack, const RunConfig& cfg,
                      Tracer& tracer, Report& rep);

}  // namespace perfbench
