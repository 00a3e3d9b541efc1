/// Ablation abl-factorized: what pushing training statistics below the
/// join buys (DESIGN.md §14). A star-shaped training set — fact table with
/// n = K·F rows (two dense features plus the join key) against a dimension
/// table with K rows × D features — is fed to the same trainers two ways:
///
///   arm 0 (materialized)  — the dimension features are gathered through
///                           the key into a dense n×(2+D) matrix before
///                           every fit: the joined-matrix path, whose
///                           bytes grow linearly with the fan-out F.
///   arm 1 (factorized)    — the trainers read the dimension features as
///                           K-entry LUTs behind the shared key column
///                           (ml::TrainingSource): bytes grow only with
///                           the fact side, sub-linear in the feature set
///                           as F rises.
///
/// Grid: (arm, fan_out) with F ∈ {1, 10, 100}. Headline counters:
/// `train_bytes` (what the fit actually touched — linear vs sub-linear in
/// F is the acceptance shape) and wall time per fit. The
/// mlcs.factorized.* registry series (fit counts, source vs materialized
/// bytes, peak source bytes) land in the metrics block of
/// BENCH_ablation_factorized.json. Scale knobs: MLCS_FACTORIZED_KEYS
/// (dimension rows, default 256), MLCS_STORAGE_COLS (dimension features,
/// default 16), MLCS_FACTORIZED_TREES (forest size, default 4).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_main.h"
#include "common/random.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "ml/training_source.h"

namespace {

using namespace mlcs;
using bench::EnvSize;

/// One star-shaped training set at a given fan-out: the fact side keeps
/// its two dense features and the key column; the dimension side is D
/// K-entry LUTs. Built once per fan-out, shared by both arms so they
/// train on bit-identical inputs.
struct StarData {
  size_t num_keys = 0;
  std::vector<uint32_t> keys;            // n entries, sorted runs
  std::vector<std::vector<double>> fact; // 2 dense n-vectors
  std::vector<std::vector<double>> dim;  // D K-entry LUTs
  ml::Labels y;
};

const StarData& DataForFanOut(size_t fan_out) {
  static std::map<size_t, StarData>* cache = new std::map<size_t, StarData>();
  auto it = cache->find(fan_out);
  if (it != cache->end()) return it->second;

  StarData d;
  d.num_keys = EnvSize("MLCS_FACTORIZED_KEYS", 256);
  size_t dim_features = EnvSize("MLCS_STORAGE_COLS", 16);
  size_t n = d.num_keys * fan_out;
  Rng rng(1234 + fan_out);
  d.dim.resize(dim_features);
  for (auto& lut : d.dim) {
    lut.resize(d.num_keys);
    for (double& v : lut) v = static_cast<double>(rng.NextInt(-20, 20));
  }
  d.keys.resize(n);
  d.fact.resize(2);
  d.fact[0].resize(n);
  d.fact[1].resize(n);
  d.y.resize(n);
  for (size_t r = 0; r < n; ++r) {
    d.keys[r] = static_cast<uint32_t>(r / fan_out);  // precinct-clustered
    d.fact[0][r] = static_cast<double>(rng.NextInt(-50, 50));
    d.fact[1][r] = static_cast<double>(rng.NextBounded(8));
    d.y[r] = static_cast<int32_t>(
        (d.keys[r] + static_cast<size_t>(d.fact[0][r] + 50)) % 3);
  }
  return (*cache)[fan_out] = std::move(d);
}

/// The joined-matrix path: gather every dimension LUT through the key
/// column into dense n-vectors (this copy IS the join materialization the
/// factorized path avoids, so it stays inside the timed region).
ml::Matrix Materialize(const StarData& d) {
  ml::Matrix x;
  (void)x.AddColumn(d.fact[0]);
  (void)x.AddColumn(d.fact[1]);
  size_t n = d.keys.size();
  for (const auto& lut : d.dim) {
    std::vector<double> gathered(n);
    for (size_t r = 0; r < n; ++r) gathered[r] = lut[d.keys[r]];
    (void)x.AddColumn(std::move(gathered));
  }
  return x;
}

/// The below-the-join path: dense fact features borrowed, dimension
/// features as K-entry LUT copies behind one shared key column.
ml::TrainingSource FactorizedSource(const StarData& d) {
  ml::TrainingSource src;
  (void)src.AddDenseFeature(&d.fact[0]);
  (void)src.AddDenseFeature(&d.fact[1]);
  (void)src.SetKeys(d.keys, d.num_keys);
  for (const auto& lut : d.dim) (void)src.AddFactorizedFeature(lut);
  return src;
}

ml::RandomForestOptions ForestOptions() {
  ml::RandomForestOptions opt;
  opt.n_estimators = static_cast<int>(EnvSize("MLCS_FACTORIZED_TREES", 4));
  opt.max_depth = 8;
  opt.seed = 7;
  return opt;
}

void ReportBytes(benchmark::State& state, size_t bytes) {
  state.counters["train_bytes"] =
      benchmark::Counter(static_cast<double>(bytes));
  state.counters["fan_out"] =
      benchmark::Counter(static_cast<double>(state.range(1)));
}

/// Random-forest training, materialized vs factorized, at rising fan-out.
void BM_TrainForestGrid(benchmark::State& state) {
  const StarData& d = DataForFanOut(static_cast<size_t>(state.range(1)));
  size_t bytes = 0;
  for (auto _ : state) {
    ml::RandomForest forest(ForestOptions());
    if (state.range(0) == 0) {
      ml::Matrix x = Materialize(d);
      bytes = x.rows() * x.cols() * sizeof(double);
      if (!forest.Fit(x, d.y).ok()) {
        state.SkipWithError("materialized fit failed");
        break;
      }
    } else {
      ml::TrainingSource src = FactorizedSource(d);
      bytes = src.FactorizedBytes();
      if (!forest.FitSource(src, d.y).ok()) {
        state.SkipWithError("factorized fit failed");
        break;
      }
    }
    benchmark::DoNotOptimize(forest);
  }
  ReportBytes(state, bytes);
}
BENCHMARK(BM_TrainForestGrid)
    ->ArgNames({"factorized", "fan_out"})
    ->ArgsProduct({{0, 1}, {1, 10, 100}})
    ->Unit(benchmark::kMillisecond);

/// Logistic-regression training (gradient sums through standardized
/// per-key LUTs) on the same grid.
void BM_TrainLogRegGrid(benchmark::State& state) {
  const StarData& d = DataForFanOut(static_cast<size_t>(state.range(1)));
  ml::LogisticRegressionOptions opt;
  opt.epochs = 8;
  size_t bytes = 0;
  for (auto _ : state) {
    ml::LogisticRegression model(opt);
    if (state.range(0) == 0) {
      ml::Matrix x = Materialize(d);
      bytes = x.rows() * x.cols() * sizeof(double);
      if (!model.Fit(x, d.y).ok()) {
        state.SkipWithError("materialized fit failed");
        break;
      }
    } else {
      ml::TrainingSource src = FactorizedSource(d);
      bytes = src.FactorizedBytes();
      if (!model.FitSource(src, d.y).ok()) {
        state.SkipWithError("factorized fit failed");
        break;
      }
    }
    benchmark::DoNotOptimize(model);
  }
  ReportBytes(state, bytes);
}
BENCHMARK(BM_TrainLogRegGrid)
    ->ArgNames({"factorized", "fan_out"})
    ->ArgsProduct({{0, 1}, {1, 10, 100}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

MLCS_BENCH_MAIN(ablation_factorized)
