#include <atomic>
#include <cmath>
#include <cstring>

#include "bench_stats.hpp"
#include "loadgen.hpp"
#include "phases.hpp"
#include "sched/scheduler.hpp"
#include "serve/client.hpp"

namespace perfbench {

namespace lsv = ls::serve;

namespace {

/// Bit pattern of a decision value: the batching invariant promises equal
/// bits, not merely close values.
std::uint64_t bits(ls::real_t v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::vector<lsv::ServeClient> connect_all(const std::string& sock, int n) {
  std::vector<lsv::ServeClient> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(lsv::ServeClient::connect_unix(sock));
  }
  return out;
}

/// Support vectors of `m` as the COO matrix a load-time decision sees.
ls::CooMatrix sv_matrix(const ls::SvmModel& m) {
  std::vector<ls::Triplet> t;
  for (std::size_t r = 0; r < m.support_vectors.size(); ++r) {
    const ls::SparseVector& sv = m.support_vectors[r];
    for (std::size_t k = 0; k < sv.indices().size(); ++k) {
      t.push_back({static_cast<ls::index_t>(r), sv.indices()[k],
                   sv.values()[k]});
    }
  }
  return ls::CooMatrix(static_cast<ls::index_t>(m.support_vectors.size()),
                       m.num_features, std::move(t));
}

/// Median per-call time (us) of the served predictor on `rows`.
double score_us(const ls::BatchPredictor& p,
                std::span<const ls::SparseVector> rows, int reps,
                Tracer& tracer, const std::string& span) {
  std::vector<ls::real_t> out(rows.size());
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    us.push_back(1e3 * span_ms(tracer, span,
                               [&] { p.decision_values(rows, out); }));
  }
  return median(us);
}

/// One fixed-rate phase's samples across rounds.
struct RateSeries {
  std::vector<double> latencies, lateness;
  std::int64_t batches = 0, batched_rows = 0;  ///< engine deltas

  double occupancy() const {
    return batches > 0 ? static_cast<double>(batched_rows) /
                             static_cast<double>(batches)
                       : 0.0;
  }
};

}  // namespace

struct ServePhase::State {
  const Inputs& in;
  Stack& stack;
  const RunConfig& cfg;
  Tracer& tracer;
  Budget budget;
  std::string model;
  std::shared_ptr<const ls::serve::LoadedModel> loaded;
  std::vector<ls::SparseVector> rows;
  std::vector<ls::real_t> expected;
  std::vector<lsv::ServeClient> direct, routed;
  std::atomic<std::int64_t> mismatches{0};
  RateSeries lo, hi, rlo, elo;
  ls::route::RouterStats router_start;
  std::int64_t shed_start = 0;

  State(const Inputs& in_, Stack& stack_, const RunConfig& cfg_,
        Tracer& tracer_)
      : in(in_),
        stack(stack_),
        cfg(cfg_),
        tracer(tracer_),
        budget(cfg_.seconds),
        model(stack_.served_name),
        loaded(stack_.engine->model(model)),
        rows(static_cast<std::size_t>(in_.served.rows())),
        expected(rows.size()),
        direct(connect_all(stack_.serve_sock, cfg_.connections)),
        routed(connect_all(stack_.router_sock, cfg_.connections)),
        router_start(stack_.router->stats()),
        shed_start(stack_.engine->stats().shed_total()) {
    // Every row the phase may send, and the decision an offline score on
    // the very version being served gives for it.
    for (ls::index_t i = 0; i < in.served.rows(); ++i) {
      in.served.X.gather_row(i, rows[static_cast<std::size_t>(i)]);
    }
    loaded->predictor.decision_values(rows, expected);
  }

  const ls::SparseVector& request(std::size_t k) const {
    return rows[static_cast<std::size_t>(
        in.request_rows[k % in.request_rows.size()])];
  }

  /// A socket predict through `clients`, checked bit for bit.
  std::function<bool(int, std::size_t)> via(
      std::vector<lsv::ServeClient>& clients, const char* span) {
    return [this, &clients, span](int t, std::size_t k) {
      const auto row = static_cast<std::size_t>(
          in.request_rows[k % in.request_rows.size()]);
      const lsv::PredictResult r = traced(tracer, span, [&] {
        return clients[static_cast<std::size_t>(t)].predict(model, rows[row]);
      });
      if (r.status != lsv::Status::kOk) return false;
      if (bits(r.decision) != bits(expected[row])) ++mismatches;
      return true;
    };
  }

  LoadResult load(double rate, double secs,
                  const std::function<bool(int, std::size_t)>& call,
                  Report& rep) {
    const auto n = static_cast<std::size_t>(std::llround(rate * secs));
    LoadResult r = run_open_loop(rate, n, cfg.connections, call);
    rep.count(static_cast<std::int64_t>(n), r.failed());
    return r;
  }

  void measure(RateSeries& series, double rate, double secs,
               const std::function<bool(int, std::size_t)>& call,
               Report& rep) {
    const lsv::ServeStats before = stack.engine->stats();
    const LoadResult r = load(rate, secs, call, rep);
    const lsv::ServeStats after = stack.engine->stats();
    const auto lat = r.latencies_ms();
    series.latencies.insert(series.latencies.end(), lat.begin(), lat.end());
    const auto late = r.lateness_ms();
    series.lateness.insert(series.lateness.end(), late.begin(), late.end());
    series.batches += after.batches_total - before.batches_total;
    series.batched_rows += after.batched_rows_total - before.batched_rows_total;
  }

  void note(const std::string& name, const RateSeries& series, Report& rep) {
    rep.notes["lateness_p99_ms." + name] = percentile(series.lateness, 99);
    rep.notes["samples." + name] =
        static_cast<double>(series.latencies.size());
    rep.notes["beyond_p99." + name] =
        static_cast<double>(samples_beyond(series.latencies, 99));
  }

  LadderStep step(double rate, Report& rep) {
    const LoadResult r = load(rate, budget.ladder_step,
                              via(direct, "client.predict.direct"), rep);
    LadderStep s;
    s.offered_rps = rate;
    s.failed = r.failed();
    s.p99_ms = percentile(r.latencies_ms(), 99);
    s.achieved_rps = static_cast<double>(r.samples.size()) / r.wall_s;
    std::vector<double> tail;
    for (std::size_t k = r.samples.size() * 9 / 10; k < r.samples.size(); ++k) {
      tail.push_back(r.samples[k].latency_ms);
    }
    s.tail_p50_ms = median(tail);
    return s;
  }
};

ServePhase::ServePhase(const Inputs& in, Stack& stack, const RunConfig& cfg,
                       Tracer& tracer)
    : s_(std::make_unique<State>(in, stack, cfg, tracer)) {}

ServePhase::~ServePhase() = default;

void ServePhase::round(Report& rep) {
  State& s = *s_;
  const double share = 1.0 / kRounds;
  s.measure(s.lo, s.cfg.lo_rps, s.budget.lo * share,
            s.via(s.direct, "client.predict.direct"), rep);
  s.measure(s.hi, s.cfg.hi_rps, s.budget.hi * share,
            s.via(s.direct, "client.predict.direct"), rep);
  s.measure(s.rlo, s.cfg.lo_rps, s.budget.routed * share,
            s.via(s.routed, "client.predict.routed"), rep);
}

void ServePhase::finish(Report& rep) {
  State& s = *s_;
  const double lo_p50 = median(s.lo.latencies);
  rep.e2e("predict_lo_p50_ms", lo_p50, "ms");
  rep.e2e("predict_lo_p99_ms", percentile(s.lo.latencies, 99), "ms");
  rep.e2e("predict_hi_p50_ms", median(s.hi.latencies), "ms");
  rep.e2e("predict_hi_p99_ms", percentile(s.hi.latencies, 99), "ms");
  rep.e2e("routed_lo_p50_ms", median(s.rlo.latencies), "ms");
  s.note("lo", s.lo, rep);
  s.note("hi", s.hi, rep);
  s.note("routed", s.rlo, rep);
  rep.check(s.mismatches.load() == 0,
            std::to_string(s.mismatches.load()) +
                " socket decisions differ from the offline score");
  rep.check(s.stack.engine->model(s.model)->version == s.loaded->version,
            "served model version changed during the serve phase");

  if (!s.tracer.on()) return;
  const ls::route::RouterStats router_end = s.stack.router->stats();
  rep.layer("serve.batch_occupancy_lo", s.lo.occupancy(), "rows");
  rep.layer("serve.batch_occupancy_hi", s.hi.occupancy(), "rows");
  rep.layer("serve.shed",
            static_cast<double>(s.stack.engine->stats().shed_total() -
                                s.shed_start),
            "count");
  rep.layer("route.hop_ms", median(s.rlo.latencies) - lo_p50, "ms");
  rep.layer("route.failovers",
            static_cast<double>(router_end.failover_total -
                                s.router_start.failover_total),
            "count");
  rep.layer("route.exhausted",
            static_cast<double>(router_end.exhausted_total -
                                s.router_start.exhausted_total),
            "count");
}

void ServePhase::probe(Report& rep) {
  State& s = *s_;
  const RunConfig& cfg = s.cfg;
  const std::int64_t mismatches_before = s.mismatches.load();

  // The engine on its own at the low rate, in process: the socket's share
  // of the direct latency is the difference.
  s.measure(s.elo, cfg.lo_rps, s.budget.engine_lo,
            [&s](int, std::size_t k) {
              return traced(s.tracer, "serve.engine.predict", [&] {
                       return s.stack.engine->predict(s.model, s.request(k));
                     }).status == lsv::Status::kOk;
            },
            rep);
  s.note("engine_lo", s.elo, rep);

  // Rate ladder from the high rate: climb by 25% until a rate fails (at
  // most six climbs), then bisect the last passing and first failing rate
  // twice. A failing attempt is retried once before its rate counts as
  // failed, so one stall does not end the climb.
  std::vector<LadderStep> steps;
  auto attempt = [&](double rate) {
    steps.push_back(s.step(rate, rep));
    return ladder_step_passes(steps.back(), cfg.limit_ms);
  };
  auto rate_passes = [&](double rate) {
    return attempt(rate) || attempt(rate);
  };
  double pass = 0, fail = 0;
  if (rate_passes(cfg.hi_rps)) {
    pass = cfg.hi_rps;
    for (int i = 0; i < 6 && fail == 0; ++i) {
      const double rate = pass * 1.25;
      (rate_passes(rate) ? pass : fail) = rate;
    }
    for (int i = 0; i < 2 && fail > 0; ++i) {
      const double rate = std::sqrt(pass * fail);
      (rate_passes(rate) ? pass : fail) = rate;
    }
  }
  rep.e2e("predict_max_rps", ladder_max_rps(steps, cfg.limit_ms), "1/s");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const std::string key = "ladder." + std::to_string(i) + ".";
    rep.notes[key + "offered_rps"] = steps[i].offered_rps;
    rep.notes[key + "p99_ms"] = steps[i].p99_ms;
    rep.notes[key + "tail_p50_ms"] = steps[i].tail_p50_ms;
  }
  const std::int64_t ladder_mismatches =
      s.mismatches.load() - mismatches_before;
  rep.check(ladder_mismatches == 0,
            std::to_string(ladder_mismatches) +
                " ladder decisions differ from the offline score");

  const ls::BatchPredictor& pred = s.loaded->predictor;
  const std::size_t full = std::min<std::size_t>(64, s.rows.size());
  const double b1 = score_us(pred, std::span(s.rows.data(), 1), 200, s.tracer,
                             "kernels.score_b1");
  const double bn = score_us(pred, std::span(s.rows.data(), full), 30,
                             s.tracer, "kernels.score_bN");
  const double engine_p50 = median(s.elo.latencies);
  rep.layer("kernels.score_b1_us", b1, "us");
  rep.layer("kernels.score_bN_us", bn, "us");
  rep.layer("serve.engine_lo_p50_ms", engine_p50, "ms");
  rep.layer("serve.queue_ms", engine_p50 - b1 / 1e3, "ms");
  rep.layer("serve.socket_ms", median(s.lo.latencies) - engine_p50, "ms");

  const ls::LayoutScheduler load_sched(ls::tuned_for_deployment(
      ls::SchedulerOptions{}, s.stack.engine->options().hint));
  for (const auto& [metric, name] :
       {std::pair{"sched.load_decide_served_ms", s.model},
        std::pair{"sched.load_decide_stream_ms", kStreamModel}}) {
    const ls::CooMatrix svs = sv_matrix(s.stack.engine->model(name)->model);
    rep.layer(metric, span_ms(s.tracer, "sched.load_decide",
                              [&] { (void)load_sched.decide(svs); }),
              "ms");
  }
}

}  // namespace perfbench
