#include "inputs.hpp"

#include <stdexcept>

#include "bench_stats.hpp"
#include "common/rng.hpp"
#include "data/profiles.hpp"
#include "svm/trainer.hpp"

namespace perfbench {

const std::vector<Family>& all_families() {
  static const std::vector<Family> families = {
      {"dense",
       {"breast_cancer", "leukemia"},
       {"gisette", "aloi"},
       "gisette",
       "mnist"},
      {"sparse",
       {"mnist", "sector"},
       {"adult", "connect-4", "trefethen"},
       "sector",
       "mnist"},
  };
  return families;
}

const Family& family_by_name(const std::string& name) {
  for (const Family& f : all_families()) {
    if (f.name == name) return f;
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

namespace {

/// Per-profile seed: the run seed mixed with the profile's name, so adding
/// a profile to a family does not reshuffle the others' data.
std::uint64_t profile_seed(std::uint64_t seed, const std::string& name) {
  return fnv1a(name, fnv1a(&seed, sizeof seed));
}

ls::Dataset generate(const std::string& profile, std::uint64_t seed) {
  return ls::profile_by_name(profile).generate(profile_seed(seed, profile));
}

/// Models the benchmark hands the serving tier are trained in a fixed
/// layout, so the same seed yields the same model bytes regardless of
/// which layout the empirical scheduler would pick on this machine.
ls::SvmModel train_input_model(const ls::Dataset& ds) {
  return ls::train_fixed_format(ds, ls::SvmParams{}, ls::Format::kCSR).model;
}

std::uint64_t digest_model(const ls::SvmModel& m, std::uint64_t h) {
  h = fnv1a(&m.rho, sizeof m.rho, h);
  h = fnv1a(&m.num_features, sizeof m.num_features, h);
  h = fnv1a(m.coef.data(), m.coef.size() * sizeof(ls::real_t), h);
  for (const ls::SparseVector& sv : m.support_vectors) {
    h = fnv1a(sv.indices().data(), sv.indices().size_bytes(), h);
    h = fnv1a(sv.values().data(), sv.values().size_bytes(), h);
  }
  return h;
}

std::uint64_t digest_dataset(const ls::Dataset& ds, std::uint64_t h) {
  const ls::index_t shape[2] = {ds.rows(), ds.cols()};
  h = fnv1a(shape, sizeof shape, h);
  h = fnv1a(ds.X.row_indices().data(), ds.X.row_indices().size_bytes(), h);
  h = fnv1a(ds.X.col_indices().data(), ds.X.col_indices().size_bytes(), h);
  h = fnv1a(ds.X.values().data(), ds.X.values().size_bytes(), h);
  return fnv1a(ds.y.data(), ds.y.size() * sizeof(ls::real_t), h);
}

}  // namespace

Inputs make_inputs(const Family& family, std::uint64_t seed) {
  Inputs in;
  for (const bool small : {true, false}) {
    for (const std::string& p : small ? family.small : family.large) {
      for (int v = 0; v < (small ? 1 : kLargeVariants); ++v) {
        const std::uint64_t s = seed + 0x9E3779B97F4A7C15ull * v;
        auto [train, heldout] = generate(p, s).split(0.8, s);
        in.jobs.push_back({p, small, v, std::move(train), std::move(heldout)});
      }
    }
  }

  in.served = generate(family.served, seed);
  in.served_model = train_input_model(in.served);
  ls::Rng rng(seed ^ 0x5E12EDull);
  in.request_rows.resize(4096);
  for (auto& r : in.request_rows) r = rng.uniform_int(0, in.served.rows() - 1);

  in.stream = generate(family.stream, seed ^ 0x57EAull);
  // The bootstrap rows are the first ingest ids, which cycle the stream.
  std::vector<ls::index_t> boot(
      static_cast<std::size_t>(Inputs::kBootstrapRows));
  for (std::size_t i = 0; i < boot.size(); ++i) {
    boot[i] = static_cast<ls::index_t>(i) % in.stream.rows();
  }
  in.bootstrap_model = train_input_model(in.stream.subset(boot, ".boot"));
  return in;
}

std::uint64_t Inputs::digest() const {
  std::uint64_t h = fnv1a("perfbench-inputs");
  for (const Job& j : jobs) {
    h = fnv1a(j.profile, h);
    h = digest_dataset(j.train, h);
    h = digest_dataset(j.heldout, h);
  }
  h = digest_dataset(served, h);
  h = digest_model(served_model, h);
  h = fnv1a(request_rows.data(), request_rows.size() * sizeof(std::int64_t),
            h);
  h = digest_dataset(stream, h);
  return digest_model(bootstrap_model, h);
}

}  // namespace perfbench
