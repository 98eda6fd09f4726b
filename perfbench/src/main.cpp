// perfbench — the repository benchmark.
//
//   perfbench --workload dense|sparse --seed N --seconds S --trace 0|1
//             --limit-ms L [--commit ID]
//
// Runs the training jobs, set-up three times (reporting the median), the
// serve rounds and the ingest phase (see phases.hpp). It works in a fresh
// directory run-<pid> below the current one, which it fills with model
// files, journals and sockets and removes before it exits. Prints one
// metadata line and, last, the result: {"correct", "attempted", "failed",
// "metrics"} with every metric measured. --trace 1 adds the per-layer
// metrics, taken around each call into a library module, and writes the
// spans to spans_<workload>.jsonl in the current directory.
// Normally started by run.py, which builds it and passes the ladder's
// latency limit from BENCHMARK.json.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_stats.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "kernels/simd.hpp"
#include "phases.hpp"
#include "sched/cost_model.hpp"
#include "svm/serialize.hpp"

namespace {

using namespace perfbench;

/// Set-ups per run; the median is reported.
constexpr int kSetups = 3;

struct Args {
  RunConfig cfg;
  std::string commit = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.cfg.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.cfg.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.cfg.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.cfg.trace = v == "1";
    } else if (k == "--limit-ms") {
      a.cfg.limit_ms = std::stod(v);
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      throw std::runtime_error("unknown option " + k);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  if (!(a.cfg.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  if (!(a.cfg.limit_ms > 0)) throw std::runtime_error("--limit-ms is required");
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_metrics(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

/// One run, in the current directory; returns the metadata line and the
/// result line.
std::pair<std::string, std::string> run(const RunConfig& cfg,
                                        const std::string& commit,
                                        const std::filesystem::path& spans) {
  const Family& family = family_by_name(cfg.workload);
  Tracer tracer(cfg.trace);
  Report rep;

  ls::Timer gen;
  const Inputs in = make_inputs(family, cfg.seed);
  rep.notes["input_gen_s"] = gen.seconds();
  // The process-wide calibration is measured on first use; each set-up
  // below re-runs that same measurement so it pays what a fresh process
  // pays, and the jobs never pay it.
  (void)ls::CostCalibration::instance();

  JobsPhase jobs(in, cfg, tracer);
  for (int r = 0; r < kLargeVariants; ++r) jobs.round(r, rep);
  jobs.finish(rep);

  const std::string served_path = "served.model";
  ls::save_model_file(served_path, in.served_model);
  std::vector<double> setup_s, calibrate_ms;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    ls::Timer t;
    calibrate_ms.push_back(span_ms(tracer, "sched.calibrate", [] {
      (void)ls::CostCalibration::measure();
    }));
    stack = build_stack(in, family.served, served_path, k, tracer);
    setup_s.push_back(t.seconds());
  }
  rep.e2e("setup_s", median(setup_s), "s");
  if (tracer.on()) {
    rep.layer("sched.calibrate_ms", median(calibrate_ms), "ms");
  }

  ServePhase serve(in, *stack, cfg, tracer);
  for (int r = 0; r < kRounds; ++r) serve.round(rep);
  serve.finish(rep);
  run_ingest_phase(in, *stack, cfg, tracer, rep);
  if (tracer.on()) {
    serve.probe(rep);
    jobs.probe(rep);
    tracer.write_jsonl(spans.string());
  }

  for (const std::string& p : rep.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  // A metric without samples has no value to report: fail the run rather
  // than print something that is not a number.
  for (const auto* metrics : {&rep.end_to_end, &rep.per_layer}) {
    for (const auto& [name, m] : *metrics) {
      if (!std::isfinite(m.value)) {
        throw std::runtime_error(name + " was not measured");
      }
    }
  }

  char host[256] = {0};
  ::gethostname(host, sizeof host - 1);
  const char* wait_policy = std::getenv("OMP_WAIT_POLICY");
  std::string meta =
      "{\"meta\": {\"workload\": " + json_string(cfg.workload) +
      ", \"seed\": " + std::to_string(cfg.seed) +
      ", \"trace\": " + (cfg.trace ? "1" : "0") +
      ", \"host\": " + json_string(host) +
      ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"simd\": " +
      json_string(std::string(
          ls::simd::level_name(ls::simd::active_level()))) +
      ", \"omp_threads\": " + std::to_string(ls::num_threads()) +
      ", \"omp_wait_policy\": " +
      json_string(wait_policy ? wait_policy : "default") +
      ", \"commit\": " + json_string(commit) +
      ", \"inputs_digest\": \"" + std::to_string(in.digest()) + "\"" +
      ", \"limit_ms\": " + json_number(cfg.limit_ms) +
      ", \"hi_rps\": " + json_number(cfg.hi_rps) +
      ", \"end_to_end\": " + json_metrics(rep.end_to_end) +
      ", \"notes\": {";
  bool first = true;
  for (const auto& [k, v] : rep.notes) {
    meta += (first ? "" : ", ") + json_string(k) + ": " + json_number(v);
    first = false;
  }
  meta += "}}}";
  // Everything measured; run.py keeps the names BENCHMARK.json lists for
  // the mode (end-to-end untraced, per-layer traced).
  std::map<std::string, Metric> measured = rep.end_to_end;
  measured.insert(rep.per_layer.begin(), rep.per_layer.end());
  const std::string result =
      std::string("{\"correct\": ") + (rep.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(rep.attempted) +
      ", \"failed\": " + std::to_string(rep.failed) +
      ", \"metrics\": " + json_metrics(measured) + "}";
  return {meta, result};
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  fs::path home, dir;
  int code = 0;
  try {
    const Args args = parse(argc, argv);
    home = fs::current_path();
    dir = home / ("run-" + std::to_string(::getpid()));
    fs::create_directory(dir);
    fs::current_path(dir);
    const auto [meta, result] =
        run(args.cfg, args.commit,
            home / ("spans_" + args.cfg.workload + ".jsonl"));
    std::printf("%s\n%s\n", meta.c_str(), result.c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    code = 1;
  }
  if (!dir.empty()) {
    std::error_code ec;
    fs::current_path(home, ec);
    fs::remove_all(dir, ec);
  }
  return code;
}
