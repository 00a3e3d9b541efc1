#ifndef MLCS_ML_FLAT_FOREST_H_
#define MLCS_ML_FLAT_FOREST_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ml/matrix.h"

namespace mlcs::ml {

/// One node of a FlatForest. A split (feature >= 0) sends NaN and values
/// <= threshold to `left`, the rest to `right`; both are indices into the
/// forest's node array. A leaf (feature < 0) keeps its class distribution
/// at leaf_probs()[left, left + num_classes).
struct FlatNode {
  double threshold = 0;
  int32_t feature = -1;
  uint32_t left = 0;
  uint32_t right = 0;
};

/// Tree ensemble laid out for prediction (DESIGN.md §16): every tree's
/// nodes back to back in one array, every leaf's class distribution in one
/// float array. A DecisionTree is a FlatForest of one tree, built node by
/// node as it fits or loads; a RandomForest appends its trees' once per fit
/// or load, never per call.
///
/// Builders must keep the invariants the predict kernel relies on: a
/// split's feature is below the predicted matrix's column count (callers
/// check the count against the fit-time one), its children come after it
/// in the same tree (so every walk ends), and each tree has at least one
/// node.
class FlatForest {
 public:
  FlatForest() = default;
  explicit FlatForest(size_t num_classes) : num_classes_(num_classes) {}

  /// Starts a new tree; the next node added is its root.
  void BeginTree() { roots_.push_back(static_cast<uint32_t>(nodes_.size())); }
  /// Appends a split whose children are set later; returns its index.
  uint32_t AddSplit(int32_t feature, double threshold);
  void SetChildren(uint32_t split, uint32_t left, uint32_t right);
  /// Appends a leaf holding `probs` (one entry per class); returns its
  /// index.
  uint32_t AddLeaf(const std::vector<float>& probs);
  /// Appends every tree of `other` (same class count), rebasing indices.
  void Append(const FlatForest& other);

  size_t num_nodes() const { return nodes_.size(); }
  const FlatNode& node(size_t i) const { return nodes_[i]; }
  const float* leaf_probs(const FlatNode& leaf) const {
    return leaf_probs_.data() + leaf.left;
  }

  /// The three Model outputs. `x` must have the fit-time column count.
  Result<Labels> Predict(const Matrix& x,
                         const std::vector<int32_t>& classes) const;
  Result<std::vector<double>> PredictProba(const Matrix& x,
                                           size_t class_index) const;
  Result<std::vector<double>> PredictConfidence(const Matrix& x) const;

 private:
  /// Class distribution averaged over the trees, rows × classes row-major,
  /// summed in tree order so it is bit-identical to adding the trees'
  /// per-row distributions one after another. Rows run in morsels on the
  /// global pool; the result does not depend on the thread count.
  Result<std::vector<double>> Distribution(const Matrix& x) const;

  size_t num_classes_ = 0;
  std::vector<uint32_t> roots_;
  std::vector<FlatNode> nodes_;
  std::vector<float> leaf_probs_;
};

}  // namespace mlcs::ml

#endif  // MLCS_ML_FLAT_FOREST_H_
