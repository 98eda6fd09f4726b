#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <thread>

#include "bench_stats.hpp"
#include "common/wal.hpp"
#include "loadgen.hpp"
#include "phases.hpp"
#include "serve/client.hpp"
#include "train/journal.hpp"

namespace perfbench {

namespace lsv = ls::serve;

namespace {

/// Threads streaming examples; the predict stream gets the rest of the
/// run's connections.
constexpr int kIngestConnections = 2;

struct Published {
  Clock::time_point at;
  std::int64_t version = 0;
  std::int64_t content_gen = 0;
};

/// Polls the engine's hosted stream model and records every install.
class InstallMonitor {
 public:
  explicit InstallMonitor(const lsv::ServeEngine& engine) : engine_(engine) {
    const auto m = engine_.model(kStreamModel);
    seen_.push_back({Clock::now(), m->version, m->content_gen});
    thread_ = std::jthread([this] { loop(); });
  }
  InstallMonitor(const InstallMonitor&) = delete;
  InstallMonitor& operator=(const InstallMonitor&) = delete;
  ~InstallMonitor() { stop(); }

  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  /// Every install seen, oldest first (the first is the one at start).
  const std::vector<Published>& seen() const { return seen_; }

 private:
  void loop() {
    while (!stop_) {
      const auto m = engine_.model(kStreamModel);
      if (m->version != seen_.back().version ||
          m->content_gen != seen_.back().content_gen) {
        seen_.push_back({Clock::now(), m->version, m->content_gen});
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const lsv::ServeEngine& engine_;
  std::vector<Published> seen_;
  std::atomic<bool> stop_{false};
  std::jthread thread_;
};

/// Upper bound on ack-to-serving time: the engine's second new content
/// generation after the ack comes from a retrain that began after it,
/// since retrains (and their publishes) run one at a time. Acks without
/// two later generations are skipped.
std::vector<double> freshness_s(const std::vector<Clock::time_point>& acks,
                                const std::vector<Published>& seen) {
  std::vector<Clock::time_point> gens;
  for (std::size_t i = 1; i < seen.size(); ++i) {
    if (seen[i].content_gen != seen[i - 1].content_gen) {
      gens.push_back(seen[i].at);
    }
  }
  std::vector<double> out;
  for (const auto& a : acks) {
    const auto it = std::upper_bound(gens.begin(), gens.end(), a);
    if (std::distance(it, gens.end()) >= 2) {
      out.push_back(ms_between(a, *(it + 1)) / 1e3);
    }
  }
  return out;
}

}  // namespace

void run_ingest_phase(const Inputs& in, Stack& stack, const RunConfig& cfg,
                      Tracer& tracer, Report& rep) {
  const Budget budget(cfg.seconds);
  lsv::ServeEngine& engine = *stack.engine;
  ls::train::ContinuousTrainer& trainer = *stack.trainer;
  const ls::Dataset& ds = in.stream;
  std::vector<ls::SparseVector> rows(static_cast<std::size_t>(ds.rows()));
  for (ls::index_t i = 0; i < ds.rows(); ++i) {
    ds.X.gather_row(i, rows[static_cast<std::size_t>(i)]);
  }
  auto example = [&](std::int64_t id) -> std::size_t {
    return static_cast<std::size_t>(id % ds.rows());
  };

  const auto before = trainer.model_stats(kStreamModel);
  auto ingest_clients = [&] {
    std::vector<lsv::ServeClient> c;
    for (int i = 0; i < kIngestConnections; ++i) {
      c.push_back(lsv::ServeClient::connect_unix(stack.trainer_sock));
    }
    return c;
  }();
  std::vector<lsv::ServeClient> predict_clients;
  const int predict_conns = cfg.connections - kIngestConnections;
  for (int i = 0; i < predict_conns; ++i) {
    predict_clients.push_back(lsv::ServeClient::connect_unix(stack.serve_sock));
  }

  InstallMonitor monitor(engine);
  trainer.start();

  // Open-loop predicts on the retrained model, beside the ingest stream.
  // A published model is as wide as the widest example in its window, and
  // every window holds the bootstrap rows or a full cycle of the stream,
  // so requests drawn from the bootstrap rows are always in range.
  const std::int64_t accepted =
      std::min<std::int64_t>(Inputs::kBootstrapRows, ds.rows());
  LoadResult predicts;
  std::array<std::atomic<std::int64_t>, 8> refused{};
  std::jthread predict_thread([&] {
    const auto n =
        static_cast<std::size_t>(std::llround(cfg.lo_rps * budget.ingest));
    predicts = run_open_loop(
        cfg.lo_rps, n, predict_conns, [&](int t, std::size_t k) {
          const auto& x = rows[static_cast<std::size_t>(
              in.request_rows[k % in.request_rows.size()] % accepted)];
          const lsv::Status st = traced(tracer, "client.predict.mix", [&] {
                                   return predict_clients[static_cast<std::size_t>(t)]
                                       .predict(kStreamModel, x);
                                 }).status;
          ++refused[static_cast<std::size_t>(st)];
          return st == lsv::Status::kOk;
        });
  });

  std::vector<std::vector<Clock::time_point>> acks(kIngestConnections);
  const LoadResult ingests = run_closed_loop(
      budget.ingest, kIngestConnections, [&](int t, std::size_t k) {
        const std::int64_t id =
            Inputs::kBootstrapRows + static_cast<std::int64_t>(k);
        const std::size_t r = example(id);
        const lsv::Status st = traced(tracer, "client.ingest", [&] {
          return ingest_clients[static_cast<std::size_t>(t)].ingest(
              kStreamModel, id, ds.y[r], rows[r]);
        });
        if (st != lsv::Status::kOk) return false;
        acks[static_cast<std::size_t>(t)].push_back(Clock::now());
        return true;
      });
  predict_thread.join();
  trainer.stop();  // waits for the retrain in flight and its publish
  monitor.stop();
  const auto after = trainer.model_stats(kStreamModel);

  std::vector<Clock::time_point> all_acks;
  for (const auto& v : acks) all_acks.insert(all_acks.end(), v.begin(), v.end());
  std::sort(all_acks.begin(), all_acks.end());
  std::vector<double> ack_ms;
  for (const Sample& s : ingests.samples) {
    if (s.ok) ack_ms.push_back(s.latency_ms);
  }
  const auto fresh = freshness_s(all_acks, monitor.seen());
  const auto mix = predicts.latencies_ms();

  rep.count(static_cast<std::int64_t>(ingests.samples.size()),
            ingests.failed());
  rep.count(static_cast<std::int64_t>(predicts.samples.size()),
            predicts.failed());
  // Every metric is taken over the whole phase, so a WAL rotation, a
  // retrain or a publish that lands in part of it is in the result.
  rep.e2e("ingest_p50_ms", median(ack_ms), "ms");
  rep.e2e("ingest_p99_ms", percentile(ack_ms, 99), "ms");
  rep.e2e("ingest_rps", static_cast<double>(ack_ms.size()) / ingests.wall_s,
          "1/s");
  rep.e2e("freshness_p50_s", median(fresh), "s");
  rep.e2e("mix_predict_p99_ms", percentile(mix, 99), "ms");
  rep.notes["beyond_p99.ingest"] =
      static_cast<double>(samples_beyond(ack_ms, 99));
  rep.notes["beyond_p99.mix"] = static_cast<double>(samples_beyond(mix, 99));
  rep.notes["samples.freshness"] = static_cast<double>(fresh.size());
  rep.notes["samples.ingest"] = static_cast<double>(ack_ms.size());
  rep.notes["samples.mix"] = static_cast<double>(mix.size());
  rep.notes["lateness_p99_ms.mix"] = percentile(predicts.lateness_ms(), 99);
  rep.notes["installs.ingest"] =
      static_cast<double>(monitor.seen().size() - 1);

  const std::int64_t absorbed = (after.ingested - before.ingested) +
                                (after.duplicates_total -
                                 before.duplicates_total);
  rep.check(absorbed == static_cast<std::int64_t>(ack_ms.size()),
            "acks (" + std::to_string(ack_ms.size()) +
                ") differ from ingested plus duplicates (" +
                std::to_string(absorbed) + ")");
  for (std::size_t i = 1; i < refused.size(); ++i) {
    if (refused[i] > 0) {
      rep.notes[std::string("mix.status.") +
                lsv::status_name(static_cast<lsv::Status>(i))] =
          static_cast<double>(refused[i].load());
    }
  }
  rep.check(predicts.failed() == 0,
            std::to_string(predicts.failed()) + " predicts lost beside ingest");
  rep.check(ingests.failed() == 0,
            std::to_string(ingests.failed()) + " ingests refused");
  const auto& seen = monitor.seen();
  for (std::size_t i = 1; i < seen.size(); ++i) {
    rep.check(seen[i].version > seen[i - 1].version,
              "served stream version went from " +
                  std::to_string(seen[i - 1].version) + " to " +
                  std::to_string(seen[i].version));
  }
  rep.check(!fresh.empty(), "no ack saw two later retrains served");
  rep.check(after.publish_failures_total == before.publish_failures_total,
            "a trainer publish failed");

  if (!tracer.on()) return;
  rep.layer("train.trains",
            static_cast<double>(after.trains_total - before.trains_total),
            "count");
  rep.layer("train.publishes",
            static_cast<double>(after.publishes_total - before.publishes_total),
            "count");
  rep.layer("train.publish_failures",
            static_cast<double>(after.publish_failures_total -
                                before.publish_failures_total),
            "count");
  rep.layer("train.duplicates",
            static_cast<double>(after.duplicates_total -
                                before.duplicates_total),
            "count");

  // Side probes, one public call at a time, sized like the live stream.
  {
    ls::train::ContinuousTrainer side{ls::train::TrainerOptions{}};
    ls::train::TrainerModelConfig c;
    c.name = kStreamModel;
    c.model_path = "side.model";
    c.wal_dir = "wal_side";
    side.add_model(c);
    std::vector<double> ms;
    const auto window = static_cast<std::int64_t>(after.window_size);
    for (std::int64_t id = 0; id < window; ++id) {
      const std::size_t r = example(id);
      ls::SparseVector x = rows[r];
      ms.push_back(span_ms(tracer, "train.ingest", [&] {
        (void)side.ingest(kStreamModel, std::move(x), ds.y[r], nullptr, id);
      }));
    }
    rep.layer("train.ingest_inproc_ms", median(ms), "ms");
    rep.layer("train.retrain_ms",
              span_ms(tracer, "train.train_once",
                      [&] { (void)side.train_once(kStreamModel); }),
              "ms");
  }
  {
    ls::WalOptions wo;
    const ls::train::TrainerOptions defaults;
    wo.segment_bytes = defaults.wal_segment_bytes;
    wo.retain_records = ls::train::TrainerModelConfig{}.window_capacity * 2;
    wo.sync = defaults.wal_sync;
    ls::WriteAheadLog wal("wal_probe", wo);
    std::vector<double> ms;
    for (std::int64_t id = 0; id < 1000; ++id) {
      const std::size_t r = example(id);
      const std::string rec =
          ls::train::encode_journal_example(id, id, ds.y[r], rows[r]);
      ms.push_back(span_ms(tracer, "wal.append", [&] { wal.append(rec); }));
    }
    rep.layer("wal.append_ms", median(ms), "ms");
  }
  {
    lsv::ServeEngine probe{lsv::ServeOptions{}};
    rep.layer("serve.load_ms",
              span_ms(tracer, "serve.load_model", [&] {
                probe.load_model(kStreamModel, stack.stream_model_path);
              }),
              "ms");
  }
}

}  // namespace perfbench
