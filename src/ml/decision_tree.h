#ifndef MLCS_ML_DECISION_TREE_H_
#define MLCS_ML_DECISION_TREE_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "ml/flat_forest.h"
#include "ml/model.h"
#include "ml/training_source.h"

namespace mlcs::ml {

struct DecisionTreeOptions {
  int max_depth = 16;
  size_t min_samples_split = 2;
  size_t min_samples_leaf = 1;
  /// Features considered per split; 0 = all (plain CART). Random forests
  /// set this to ~sqrt(d).
  size_t max_features = 0;
  /// Histogram splitter granularity (bins per feature per node). The
  /// histogram splitter is O(n·d) per node — the right trade for the
  /// paper-scale datasets; `exact_splits` switches to the O(n log n · d)
  /// sort-based CART splitter for small data / tests.
  int num_bins = 32;
  bool exact_splits = false;
  uint64_t seed = 42;
};

/// CART decision-tree classifier (gini impurity). NaN feature values are
/// routed to the left child at both fit and predict time.
class DecisionTree : public Model {
 public:
  explicit DecisionTree(DecisionTreeOptions options = {});

  ModelType type() const override { return ModelType::kDecisionTree; }
  Status Fit(const Matrix& x, const Labels& y) override;
  Result<Labels> Predict(const Matrix& x) const override;
  Result<std::vector<double>> PredictProba(const Matrix& x,
                                           int32_t cls) const override;
  Result<std::vector<double>> PredictConfidence(
      const Matrix& x) const override;
  const std::vector<int32_t>& classes() const override { return classes_; }
  std::string ParamsString() const override;
  void Serialize(ByteWriter* writer) const override;

  /// Statistics-provider path (DESIGN.md §14): trains through a
  /// TrainingSource. Dimension features compute their split statistics as
  /// per-key class-count aggregates (one group-by below the join per node,
  /// shared across all factorized features) instead of per-row scans;
  /// results are bit-identical to Fit on the equivalent dense matrix.
  Status FitSource(const TrainingSource& x, const Labels& y);
  /// Fits on a row subset (duplicates allowed: bootstrap draws) against
  /// precomputed class codes (`codes[r]` indexes `class_set`, see
  /// internal::ClassCodes) — lets a random forest bootstrap without copying
  /// the source, share one code pass across its trees and keep every
  /// tree's class-index space aligned. The tree depends only on the
  /// multiset of rows, not their order; ascending order reads the columns
  /// sequentially.
  Status FitSourceOnRows(const TrainingSource& x,
                         const std::vector<uint32_t>& codes,
                         std::vector<uint32_t> rows,
                         const std::vector<int32_t>& class_set);

  size_t num_features() const { return num_features_; }
  size_t num_nodes() const { return tree_.num_nodes(); }
  /// The fitted tree in the predict kernel's layout (a forest of one).
  const FlatForest& flat() const { return tree_; }

  /// Per-feature importance: total gini impurity decrease weighted by node
  /// size, normalized to sum to 1 (sklearn's feature_importances_).
  /// Empty before fitting; all-zero when the tree is a single leaf.
  const std::vector<double>& feature_importances() const {
    return feature_importances_;
  }

  static Result<std::unique_ptr<DecisionTree>> DeserializeBody(
      ByteReader* reader);

  const DecisionTreeOptions& options() const { return options_; }

 private:
  struct SplitResult {
    bool found = false;
    size_t feature = 0;
    double threshold = 0;
    double impurity_decrease = 0;
  };

  uint32_t BuildNode(const TrainingSource& x, const uint32_t* codes,
                     std::vector<uint32_t>& rows, int depth, Rng& rng);
  SplitResult FindBestSplit(const TrainingSource& x, const uint32_t* codes,
                            const std::vector<uint32_t>& rows,
                            const std::vector<size_t>& features) const;
  SplitResult BestSplitHistogram(const FeatureView& col,
                                 const uint32_t* codes,
                                 const std::vector<uint32_t>& rows,
                                 size_t feature) const;
  SplitResult BestSplitExact(const FeatureView& col, const uint32_t* codes,
                             const std::vector<uint32_t>& rows,
                             size_t feature) const;
  /// Aggregate-statistics splitters for factorized features: derive the
  /// split from the node's per-key class counts (`key_counts`, flattened
  /// [key × class]) and the feature's K-entry LUT — O(K) per feature
  /// instead of O(rows), bit-identical because every accumulated quantity
  /// is an integer-valued double.
  SplitResult BestSplitHistogramAgg(const std::vector<double>& lut,
                                    const std::vector<int64_t>& key_counts,
                                    size_t feature) const;
  SplitResult BestSplitExactAgg(const std::vector<double>& lut,
                                const std::vector<int64_t>& key_counts,
                                size_t feature) const;
  /// Boundary scan shared by the per-row and aggregate histogram
  /// splitters (`counts` is the [bin × class] histogram).
  SplitResult ScanHistogram(const std::vector<double>& counts, size_t bins,
                            double lo, double hi, size_t feature) const;
  uint32_t MakeLeaf(const uint32_t* codes, const std::vector<uint32_t>& rows);

  DecisionTreeOptions options_;
  std::vector<int32_t> classes_;
  size_t num_features_ = 0;
  FlatForest tree_;
  std::vector<double> feature_importances_;
};

}  // namespace mlcs::ml

#endif  // MLCS_ML_DECISION_TREE_H_
