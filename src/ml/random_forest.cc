#include "ml/random_forest.h"

#include <cmath>

#include "common/parallel_for.h"
#include "common/random.h"

namespace mlcs::ml {

RandomForest::RandomForest(RandomForestOptions options) : options_(options) {}

Status RandomForest::Fit(const Matrix& x, const Labels& y) {
  MLCS_RETURN_IF_ERROR(internal::CheckFitInputs(x, y));
  return FitSource(TrainingSource::FromMatrix(x), y);
}

Status RandomForest::FitSource(const TrainingSource& x, const Labels& y) {
  MLCS_RETURN_IF_ERROR(internal::CheckFitInputs(x, y));
  if (options_.n_estimators <= 0) {
    return Status::InvalidArgument("n_estimators must be positive");
  }
  classes_ = internal::DistinctClasses(y);
  num_features_ = x.cols();
  MLCS_ASSIGN_OR_RETURN(std::vector<uint32_t> codes,
                        internal::ClassCodes(classes_, y));

  size_t max_features =
      options_.max_features != 0
          ? options_.max_features
          : std::max<size_t>(
                1, static_cast<size_t>(std::sqrt(
                       static_cast<double>(x.cols()))));

  size_t n = x.rows();
  size_t num_trees = static_cast<size_t>(options_.n_estimators);
  trees_.clear();
  trees_.resize(num_trees);

  // Pre-draw per-tree bootstrap samples so results are deterministic
  // regardless of fit parallelism.
  Rng seeder(options_.seed);
  std::vector<uint64_t> tree_seeds(num_trees);
  for (auto& s : tree_seeds) s = seeder.NextU64();

  auto fit_one = [&](size_t t) -> Status {
    DecisionTreeOptions topt;
    topt.max_depth = options_.max_depth;
    topt.min_samples_split = options_.min_samples_split;
    topt.min_samples_leaf = options_.min_samples_leaf;
    topt.max_features = max_features;
    topt.num_bins = options_.num_bins;
    topt.exact_splits = options_.exact_splits;
    topt.seed = tree_seeds[t];
    auto tree = std::make_unique<DecisionTree>(topt);

    Rng rng(tree_seeds[t] ^ 0xB0075E7ULL);
    std::vector<uint32_t> rows(n);
    if (options_.bootstrap) {
      // Counting sort of the draws: the tree depends only on which rows
      // were drawn how often, and ascending rows read columns in order.
      std::vector<uint32_t> draws(n, 0);
      for (size_t i = 0; i < n; ++i) ++draws[rng.NextBounded(n)];
      size_t i = 0;
      for (size_t r = 0; r < n; ++r) {
        for (uint32_t k = 0; k < draws[r]; ++k) {
          rows[i++] = static_cast<uint32_t>(r);
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
    }
    MLCS_RETURN_IF_ERROR(
        tree->FitSourceOnRows(x, codes, std::move(rows), classes_));
    trees_[t] = std::move(tree);
    return Status::OK();
  };

  // One tree per handoff on the shared pool. The caller fits trees too, so
  // a fit inside a pool task (an SQL statement the server runs) cannot
  // wait on a tree no thread picks up.
  Status fit_status = Status::OK();
  if (options_.parallel_fit && num_trees > 1) {
    fit_status = ParallelItems(MorselPolicy{}, num_trees, fit_one);
  } else {
    for (size_t t = 0; t < num_trees && fit_status.ok(); ++t) {
      fit_status = fit_one(t);
    }
  }
  if (!fit_status.ok()) {
    trees_.clear();
    classes_.clear();
    Flatten();
    return fit_status;
  }
  Flatten();
  CountTrainingSourceFit(x);
  return Status::OK();
}

void RandomForest::Flatten() {
  flat_ = FlatForest(classes_.size());
  for (const auto& tree : trees_) flat_.Append(tree->flat());
}

Result<Labels> RandomForest::Predict(const Matrix& x) const {
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  return flat_.Predict(x, classes_);
}

Result<std::vector<double>> RandomForest::PredictProba(const Matrix& x,
                                                       int32_t cls) const {
  MLCS_ASSIGN_OR_RETURN(size_t cls_idx, internal::ClassIndex(classes_, cls));
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  return flat_.PredictProba(x, cls_idx);
}

Result<std::vector<double>> RandomForest::PredictConfidence(
    const Matrix& x) const {
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  return flat_.PredictConfidence(x);
}

Result<std::vector<double>> RandomForest::FeatureImportances() const {
  if (!fitted()) return Status::InvalidArgument("model is not fitted");
  std::vector<double> out(num_features_, 0.0);
  for (const auto& tree : trees_) {
    const auto& imp = tree->feature_importances();
    for (size_t f = 0; f < out.size() && f < imp.size(); ++f) {
      out[f] += imp[f];
    }
  }
  double total = 0;
  for (double v : out) total += v;
  if (total > 0) {
    for (double& v : out) v /= total;
  }
  return out;
}

std::string RandomForest::ParamsString() const {
  return "n_estimators=" + std::to_string(options_.n_estimators) +
         " max_depth=" + std::to_string(options_.max_depth) +
         " max_features=" + std::to_string(options_.max_features) +
         " bootstrap=" + (options_.bootstrap ? "true" : "false");
}

void RandomForest::Serialize(ByteWriter* writer) const {
  writer->WriteI32(options_.n_estimators);
  writer->WriteI32(options_.max_depth);
  writer->WriteVarint(options_.min_samples_split);
  writer->WriteVarint(options_.min_samples_leaf);
  writer->WriteVarint(options_.max_features);
  writer->WriteBool(options_.bootstrap);
  writer->WriteI32(options_.num_bins);
  writer->WriteBool(options_.exact_splits);
  writer->WriteBool(options_.parallel_fit);
  writer->WriteU64(options_.seed);
  writer->WriteVarint(classes_.size());
  for (int32_t c : classes_) writer->WriteI32(c);
  writer->WriteVarint(num_features_);
  writer->WriteVarint(trees_.size());
  for (const auto& tree : trees_) tree->Serialize(writer);
}

Result<std::unique_ptr<RandomForest>> RandomForest::DeserializeBody(
    ByteReader* reader) {
  RandomForestOptions options;
  MLCS_ASSIGN_OR_RETURN(options.n_estimators, reader->ReadI32());
  MLCS_ASSIGN_OR_RETURN(options.max_depth, reader->ReadI32());
  MLCS_ASSIGN_OR_RETURN(uint64_t mss, reader->ReadVarint());
  options.min_samples_split = mss;
  MLCS_ASSIGN_OR_RETURN(uint64_t msl, reader->ReadVarint());
  options.min_samples_leaf = msl;
  MLCS_ASSIGN_OR_RETURN(uint64_t mf, reader->ReadVarint());
  options.max_features = mf;
  MLCS_ASSIGN_OR_RETURN(options.bootstrap, reader->ReadBool());
  MLCS_ASSIGN_OR_RETURN(options.num_bins, reader->ReadI32());
  MLCS_ASSIGN_OR_RETURN(options.exact_splits, reader->ReadBool());
  MLCS_ASSIGN_OR_RETURN(options.parallel_fit, reader->ReadBool());
  MLCS_ASSIGN_OR_RETURN(options.seed, reader->ReadU64());
  auto forest = std::make_unique<RandomForest>(options);
  MLCS_ASSIGN_OR_RETURN(uint64_t num_classes, reader->ReadVarint());
  MLCS_RETURN_IF_ERROR(
      internal::CheckCount(*reader, num_classes, sizeof(int32_t), "classes"));
  forest->classes_.resize(num_classes);
  for (auto& c : forest->classes_) {
    MLCS_ASSIGN_OR_RETURN(c, reader->ReadI32());
  }
  MLCS_ASSIGN_OR_RETURN(uint64_t nf, reader->ReadVarint());
  forest->num_features_ = nf;
  MLCS_ASSIGN_OR_RETURN(uint64_t num_trees, reader->ReadVarint());
  // A tree body is at least its fixed-width options plus four counts.
  constexpr size_t kMinTreeBytes = 4 + 1 + 1 + 1 + 4 + 1 + 8 + 4;
  MLCS_RETURN_IF_ERROR(
      internal::CheckCount(*reader, num_trees, kMinTreeBytes, "trees"));
  forest->trees_.reserve(num_trees);
  for (uint64_t t = 0; t < num_trees; ++t) {
    MLCS_ASSIGN_OR_RETURN(auto tree, DecisionTree::DeserializeBody(reader));
    // The flat forest shares one class space and feature layout.
    if (tree->classes() != forest->classes_ ||
        tree->num_features() != forest->num_features_) {
      return Status::ParseError(
          "corrupt forest: tree classes or feature count differ from the "
          "forest's");
    }
    forest->trees_.push_back(std::move(tree));
  }
  forest->Flatten();
  return forest;
}

}  // namespace mlcs::ml
