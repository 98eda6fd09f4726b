#include <algorithm>
#include <map>

#include "bench_stats.hpp"
#include "common/timer.hpp"
#include "data/features.hpp"
#include "phases.hpp"
#include "sched/scheduler.hpp"
#include "svm/batch_predict.hpp"
#include "svm/trainer.hpp"

namespace perfbench {

namespace {

/// Accuracy floors. Labels come from a planted separator with 10% of them
/// flipped, so every model must fit its own training split well; held-out
/// accuracy is pooled over the run's jobs, because the tiny profiles
/// (38 rows) hold out only eight rows each. Chance is 0.5 for both.
constexpr double kTrainAccuracyFloor = 0.8;
constexpr double kHeldoutAccuracyFloor = 0.6;

struct ProfileRuns {
  std::vector<double> job_s, solve_s, iterations, kernel_rows, hit_ratio;
  std::vector<double> features_ms, decide_ms, materialize_ms;
  std::vector<ls::Format> picks;
};

/// Accuracy of `m` on `ds`, scored in batches in a fixed layout (the
/// check must not cost a layout probe per call).
double accuracy(const ls::SvmModel& m, const ls::Dataset& ds) {
  ls::SchedulerOptions fixed;
  fixed.policy = ls::SchedulePolicy::kFixed;
  return ls::BatchPredictor(m, fixed).accuracy(ds);
}

/// Repeats whose layout differs from the profile's most common pick.
int flips(const std::vector<ls::Format>& picks) {
  std::map<ls::Format, int> n;
  int mode = 0;
  for (ls::Format f : picks) mode = std::max(mode, ++n[f]);
  return static_cast<int>(picks.size()) - mode;
}

}  // namespace

struct JobsPhase::State {
  const Inputs& in;
  Tracer& tracer;
  double round_s;
  std::vector<ProfileRuns> runs;
  std::int64_t attempted = 0, failed = 0;
  double heldout_hits = 0, heldout_rows = 0;

  /// One train_adaptive job; the first run on a profile's first dataset
  /// also checks accuracy.
  void run(std::size_t j, Report& rep) {
    const Job& job = in.jobs[j];
    ProfileRuns& r = runs[j];
    const bool first = r.job_s.empty() && job.variant == 0;
    ++attempted;
    try {
      ls::Timer t;
      const ls::TrainResult res = traced(tracer, "svm.train_adaptive", [&] {
        return ls::train_adaptive(job.train, ls::SvmParams{});
      });
      r.job_s.push_back(t.seconds());
      r.solve_s.push_back(res.solve_seconds);
      r.iterations.push_back(static_cast<double>(res.stats.iterations));
      r.kernel_rows.push_back(
          static_cast<double>(res.stats.kernel_rows_computed));
      r.hit_ratio.push_back(res.stats.cache_hit_rate);
      r.picks.push_back(res.decision.format);
      if (!res.stats.converged) {
        ++failed;
        rep.check(false, job.profile + ": SMO did not converge");
      }
      if (first) {
        const double fit = accuracy(res.model, job.train);
        const double acc = accuracy(res.model, job.heldout);
        rep.notes["accuracy.train." + job.profile] = fit;
        rep.notes["accuracy.heldout." + job.profile] = acc;
        rep.check(fit >= kTrainAccuracyFloor,
                  job.profile + ": training accuracy " + std::to_string(fit) +
                      " below floor");
        heldout_hits += acc * static_cast<double>(job.heldout.rows());
        heldout_rows += static_cast<double>(job.heldout.rows());
      }
    } catch (const std::exception& e) {
      ++failed;
      rep.check(false, job.profile + ": " + e.what());
    }
  }
};

JobsPhase::JobsPhase(const Inputs& in, const RunConfig& cfg, Tracer& tracer)
    : s_(new State{in, tracer, Budget(cfg.seconds).jobs / kLargeVariants,
                   std::vector<ProfileRuns>(in.jobs.size())}) {}

JobsPhase::~JobsPhase() = default;

void JobsPhase::round(int r, Report& rep) {
  const std::vector<Job>& jobs = s_->in.jobs;
  // The small group passes over its profiles at least once and for a
  // quarter of the round: its jobs are short, and its sum is what a
  // scheduler change moves.
  ls::Timer group;
  double last_pass = 0.0;
  do {
    ls::Timer pass;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].small) s_->run(j, rep);
    }
    last_pass = pass.seconds();
  } while (group.seconds() + last_pass <= 0.25 * s_->round_s);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!jobs[j].small && jobs[j].variant == r) s_->run(j, rep);
  }
}

void JobsPhase::finish(Report& rep) {
  const Inputs& in = s_->in;
  const Tracer& tracer = s_->tracer;
  rep.count(s_->attempted, s_->failed);
  const double pooled = s_->heldout_hits / s_->heldout_rows;
  rep.notes["accuracy.heldout_pooled"] = pooled;
  rep.check(pooled >= kHeldoutAccuracyFloor,
            "pooled held-out accuracy " + std::to_string(pooled) +
                " below floor");

  // Per profile: the median over all its runs (a small profile's
  // repeats, a large profile's datasets, one solve each).
  std::map<std::string, ProfileRuns> by_profile;
  std::map<std::string, bool> small_profile;
  for (std::size_t j = 0; j < in.jobs.size(); ++j) {
    const ProfileRuns& r = s_->runs[j];
    ProfileRuns& p = by_profile[in.jobs[j].profile];
    small_profile[in.jobs[j].profile] = in.jobs[j].small;
    for (auto [to, from] :
         {std::pair{&p.job_s, &r.job_s}, std::pair{&p.solve_s, &r.solve_s},
          std::pair{&p.iterations, &r.iterations},
          std::pair{&p.kernel_rows, &r.kernel_rows},
          std::pair{&p.hit_ratio, &r.hit_ratio}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    p.picks.insert(p.picks.end(), r.picks.begin(), r.picks.end());
  }

  double ttm_small = 0, ttm_large = 0, solve_ms = 0, iters = 0, rows = 0,
         hit = 0;
  int pick_flips = 0, n_large = 0;
  for (const auto& [profile, r] : by_profile) {
    if (r.job_s.empty()) continue;
    rep.notes["repeats." + profile] = static_cast<double>(r.job_s.size());
    rep.notes["ttm_s." + profile] = median(r.job_s);
    rep.notes["flips." + profile] = flips(r.picks);
    if (small_profile[profile]) {
      pick_flips += flips(r.picks);
      ttm_small += median(r.job_s);
    } else {
      ttm_large += median(r.job_s);
      solve_ms += median(r.solve_s) * 1e3;
      iters += median(r.iterations);
      rows += median(r.kernel_rows);
      hit += median(r.hit_ratio);
      ++n_large;
    }
  }
  rep.e2e("ttm_small_s", ttm_small, "s");
  rep.e2e("ttm_large_s", ttm_large, "s");
  if (!tracer.on()) return;
  rep.layer("sched.pick_flips", pick_flips, "count");
  rep.layer("svm.solve_ms", solve_ms, "ms");
  rep.layer("svm.iterations", iters, "count");
  rep.layer("svm.kernel_rows", rows, "count");
  rep.layer("svm.cache_hit_ratio", n_large ? hit / n_large : 0.0, "ratio");
  rep.layer("svm.solve_us_per_row", rows > 0 ? solve_ms * 1e3 / rows : 0.0,
            "us");
}

void JobsPhase::probe(Report& rep) {
  // train_adaptive decides and materialises internally; these are the
  // same public steps timed on their own, after the timed jobs, kProbes
  // times per profile: a small profile's one dataset kProbes times, a
  // large profile's first kProbes datasets once each. A profile's time is
  // its median; a group's is the sum over its profiles.
  constexpr int kProbes = 3;
  const std::vector<Job>& jobs = s_->in.jobs;
  Tracer& tracer = s_->tracer;
  std::map<std::string, ProfileRuns> by_profile;
  for (const Job& job : jobs) {
    if (job.variant >= kProbes) continue;
    ProfileRuns& r = by_profile[job.profile];
    for (int k = 0; k < (job.small ? kProbes : 1); ++k) {
      const ls::LayoutScheduler sched;
      ls::ScheduleDecision d;
      r.features_ms.push_back(span_ms(tracer, "data.extract_features", [&] {
        (void)ls::extract_features(job.train.X);
      }));
      r.decide_ms.push_back(span_ms(
          tracer, "sched.decide", [&] { d = sched.decide(job.train.X); }));
      r.materialize_ms.push_back(span_ms(
          tracer, "formats.materialize",
          [&] { (void)sched.materialize(job.train.X, d); }));
    }
  }
  double features = 0, decide_small = 0, decide_large = 0, materialize = 0;
  for (const Job& job : jobs) {
    if (job.variant != 0) continue;  // one entry per profile
    const ProfileRuns& r = by_profile[job.profile];
    if (job.small) {
      features += median(r.features_ms);
      decide_small += median(r.decide_ms);
      materialize += median(r.materialize_ms);
    } else {
      decide_large += median(r.decide_ms);
    }
  }
  rep.layer("data.features_ms", features, "ms");
  rep.layer("sched.decide_small_ms", decide_small, "ms");
  rep.layer("sched.decide_large_ms", decide_large, "ms");
  rep.layer("formats.materialize_ms", materialize, "ms");
}

}  // namespace perfbench
