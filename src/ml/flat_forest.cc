#include "ml/flat_forest.h"

#include <algorithm>

#include "common/parallel_for.h"

namespace mlcs::ml {

namespace {

/// Rows gathered row-major per traversal block: 64 rows × d features stay
/// in L2 while every tree walks them, and the top of each tree stays hot
/// across the block.
constexpr size_t kBlockRows = 64;
/// Rows per morsel of the global pool. Batches up to this size (serving's
/// micro-batches) run inline on the caller with no task handoff.
constexpr size_t kMorselRows = 1024;

}  // namespace

uint32_t FlatForest::AddSplit(int32_t feature, double threshold) {
  FlatNode node;
  node.feature = feature;
  node.threshold = threshold;
  nodes_.push_back(node);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void FlatForest::SetChildren(uint32_t split, uint32_t left, uint32_t right) {
  nodes_[split].left = left;
  nodes_[split].right = right;
}

uint32_t FlatForest::AddLeaf(const std::vector<float>& probs) {
  FlatNode node;
  node.left = static_cast<uint32_t>(leaf_probs_.size());
  leaf_probs_.insert(leaf_probs_.end(), probs.begin(), probs.end());
  nodes_.push_back(node);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void FlatForest::Append(const FlatForest& other) {
  const auto node_base = static_cast<uint32_t>(nodes_.size());
  const auto leaf_base = static_cast<uint32_t>(leaf_probs_.size());
  for (uint32_t root : other.roots_) roots_.push_back(node_base + root);
  for (FlatNode node : other.nodes_) {
    if (node.feature >= 0) {
      node.left += node_base;
      node.right += node_base;
    } else {
      node.left += leaf_base;
    }
    nodes_.push_back(node);
  }
  leaf_probs_.insert(leaf_probs_.end(), other.leaf_probs_.begin(),
                     other.leaf_probs_.end());
}

Result<std::vector<double>> FlatForest::Distribution(const Matrix& x) const {
  const size_t d = x.cols();
  const size_t k = num_classes_;
  std::vector<double> dist(x.rows() * k, 0.0);
  const double inv = 1.0 / static_cast<double>(roots_.size());
  MorselPolicy policy;
  policy.morsel_rows = kMorselRows;
  MLCS_RETURN_IF_ERROR(ParallelMorsels(
      policy, x.rows(), [&](size_t, size_t begin, size_t end) {
        std::vector<double> block(std::min(kBlockRows, end - begin) * d);
        for (size_t b = begin; b < end; b += kBlockRows) {
          const size_t rows = std::min(kBlockRows, end - b);
          for (size_t c = 0; c < d; ++c) {
            const double* col = x.column(c).data() + b;
            for (size_t r = 0; r < rows; ++r) block[r * d + c] = col[r];
          }
          double* out = dist.data() + b * k;
          // Tree-outer: each row's sum gains the trees in order.
          for (uint32_t root : roots_) {
            for (size_t r = 0; r < rows; ++r) {
              const double* row = block.data() + r * d;
              const FlatNode* node = &nodes_[root];
              while (node->feature >= 0) {
                // !(v > t) is NaN-or-(v <= t): NaN routes left.
                node = &nodes_[row[node->feature] > node->threshold
                                   ? node->right
                                   : node->left];
              }
              const float* probs = leaf_probs_.data() + node->left;
              double* sums = out + r * k;
              for (size_t c = 0; c < k; ++c) sums[c] += probs[c];
            }
          }
          for (size_t i = 0; i < rows * k; ++i) out[i] *= inv;
        }
        return Status::OK();
      }));
  return dist;
}

Result<Labels> FlatForest::Predict(const Matrix& x,
                                   const std::vector<int32_t>& classes) const {
  MLCS_ASSIGN_OR_RETURN(std::vector<double> dist, Distribution(x));
  const size_t k = num_classes_;
  Labels out(x.rows());
  for (size_t r = 0; r < out.size(); ++r) {
    const double* d = dist.data() + r * k;
    size_t best = 0;
    for (size_t c = 1; c < k; ++c) {
      if (d[c] > d[best]) best = c;
    }
    out[r] = classes[best];
  }
  return out;
}

Result<std::vector<double>> FlatForest::PredictProba(
    const Matrix& x, size_t class_index) const {
  MLCS_ASSIGN_OR_RETURN(std::vector<double> dist, Distribution(x));
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < out.size(); ++r) {
    out[r] = dist[r * num_classes_ + class_index];
  }
  return out;
}

Result<std::vector<double>> FlatForest::PredictConfidence(
    const Matrix& x) const {
  MLCS_ASSIGN_OR_RETURN(std::vector<double> dist, Distribution(x));
  const size_t k = num_classes_;
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < out.size(); ++r) {
    double best = 0;
    for (size_t c = 0; c < k; ++c) best = std::max(best, dist[r * k + c]);
    out[r] = best;
  }
  return out;
}

}  // namespace mlcs::ml
