// Seeded inputs of one benchmark run. Everything the program receives is
// made here from the workload's data family and the run's seed: Table V
// profile stand-ins via DatasetProfile::generate, rows and planted labels
// derived from them, and the two models the serving tier starts with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "svm/model.hpp"

namespace perfbench {

/// Which Table V profiles a workload draws on. The paper's claim is that
/// matrix statistics decide the best layout, so the two workloads split
/// the evaluated profiles by density.
struct Family {
  std::string name;
  /// Training jobs whose layout decision costs as much as the solve.
  std::vector<std::string> small;
  /// Training jobs whose solve dominates.
  std::vector<std::string> large;
  /// Profile whose model the serving tier hosts for the predict phases.
  std::string served;
  /// Profile whose rows stream into the continuous trainer. Its window
  /// must retrain within the trainer's default cadence (mnist does, at the
  /// default 4096-example window), or freshness measures the solver alone.
  std::string stream;
};

/// The workloads' families; throws std::runtime_error for unknown names.
const Family& family_by_name(const std::string& name);
const std::vector<Family>& all_families();

/// Seeded datasets per large-group profile. A large job's solve time
/// varies by up to 2x with the data (its SMO iteration count does), so the
/// run times one solve on each of several datasets and reports their
/// median rather than one dataset's time.
constexpr int kLargeVariants = 5;

struct Job {
  std::string profile;
  bool small = false;
  int variant = 0;      ///< which of the profile's seeded datasets
  ls::Dataset train;    ///< 80% of the seeded profile
  ls::Dataset heldout;  ///< the other 20%, for the accuracy floor
};

struct Inputs {
  std::vector<Job> jobs;  ///< small group, then large (kLargeVariants each)
  ls::Dataset served;            ///< rows the predict phases send
  ls::SvmModel served_model;     ///< model trained on `served`
  std::vector<std::int64_t> request_rows;  ///< row of request k (cyclic)
  ls::Dataset stream;            ///< rows + labels the ingest phase sends
  ls::SvmModel bootstrap_model;  ///< trained on the first kBootstrapRows
  static constexpr std::int64_t kBootstrapRows = 512;

  /// Digest over every byte the program receives; equal seeds must give
  /// equal digests.
  std::uint64_t digest() const;
};

Inputs make_inputs(const Family& family, std::uint64_t seed);

}  // namespace perfbench
