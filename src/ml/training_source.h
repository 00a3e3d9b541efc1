#ifndef MLCS_ML_TRAINING_SOURCE_H_
#define MLCS_ML_TRAINING_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ml/matrix.h"

namespace mlcs::ml {

/// Read access to one feature of a TrainingSource. Either a dense per-row
/// array (fact-table feature) or a per-key lookup table addressed through
/// the source's shared key column (dimension-table feature reached through
/// a join key — the factorized representation that never materializes the
/// join). `view[r]` returns the exact double the dense path would hold at
/// row r, so trainers running through views stay bit-identical to the
/// matrix path.
class FeatureView {
 public:
  FeatureView() = default;

  double operator[](size_t r) const {
    return factorized_ ? lut_[keys_[r]] : dense_[r];
  }
  bool factorized() const { return factorized_; }

 private:
  friend class TrainingSource;
  FeatureView(const double* dense, const double* lut, const uint32_t* keys,
              bool factorized)
      : dense_(dense), lut_(lut), keys_(keys), factorized_(factorized) {}

  const double* dense_ = nullptr;
  const double* lut_ = nullptr;
  const uint32_t* keys_ = nullptr;
  bool factorized_ = false;
};

/// The statistics-provider seam between relational data and the trainers
/// (DESIGN.md §14). A TrainingSource presents n rows × d features like a
/// Matrix, but dimension-side features are stored once per join key (a
/// K-entry LUT) plus one shared n-entry key column, instead of n gathered
/// copies — O(|fact| + |dim|) bytes instead of O(|join output|). Trainers
/// consume it through FeatureView (per-row reads, bit-identical to dense)
/// or through the per-key LUT directly (the tree splitters aggregate
/// class counts by key below the join and derive split statistics from
/// the K-sized table).
///
/// Build either by borrowing a fitted Matrix (FromMatrix — the dense
/// fallback funnels through the same trainer code) or feature by feature:
/// dense features via AddDenseFeature, then SetKeys once, then factorized
/// features via AddFactorizedFeature.
class TrainingSource {
 public:
  TrainingSource() = default;
  TrainingSource(TrainingSource&&) = default;
  TrainingSource& operator=(TrainingSource&&) = default;
  TrainingSource(const TrainingSource&) = delete;
  TrainingSource& operator=(const TrainingSource&) = delete;

  /// Dense view over an existing matrix. Borrows the columns — `x` must
  /// outlive the source.
  static TrainingSource FromMatrix(const Matrix& x);

  /// Borrows `column` (caller keeps it alive) as a dense feature.
  Status AddDenseFeature(const std::vector<double>* column);
  /// Adopts `column` as a dense feature.
  Status AddOwnedDenseFeature(std::vector<double> column);
  /// Sets the shared join-key column: `keys[r]` in [0, num_keys). Must be
  /// called once, before any AddFactorizedFeature.
  Status SetKeys(std::vector<uint32_t> keys, size_t num_keys);
  /// Adds a per-key feature: `lut.size() == num_keys()`. Row r's value is
  /// lut[keys()[r]].
  Status AddFactorizedFeature(std::vector<double> lut);

  size_t rows() const { return rows_; }
  size_t cols() const { return features_.size(); }
  FeatureView view(size_t f) const;
  bool factorized(size_t f) const { return features_[f].is_factorized; }
  /// Per-key values of a factorized feature (undefined for dense ones).
  const std::vector<double>& lut(size_t f) const { return features_[f].lut; }
  /// Shared key column; nullptr when the source has no factorized features.
  const uint32_t* keys() const {
    return keys_.empty() ? nullptr : keys_.data();
  }
  size_t num_keys() const { return num_keys_; }
  size_t num_factorized() const;

  /// Bytes a dense n×d materialization of this feature set would hold —
  /// what the joined-matrix path touches.
  size_t MaterializedBytes() const {
    return rows_ * features_.size() * sizeof(double);
  }
  /// Bytes actually backing this source: n per dense feature, K per
  /// factorized feature, plus the shared key column.
  size_t FactorizedBytes() const;

 private:
  struct Feature {
    const std::vector<double>* dense = nullptr;  // borrowed when set
    std::vector<double> owned;                   // owns dense storage
    std::vector<double> lut;                     // factorized storage
    bool is_factorized = false;
  };

  Status CheckRows(size_t n);

  size_t rows_ = 0;
  bool rows_set_ = false;
  size_t num_keys_ = 0;
  std::vector<uint32_t> keys_;
  std::vector<Feature> features_;
};

/// Bumps the mlcs.factorized.* metrics for one completed factorized (or
/// dense-fallback) fit: fit count, bytes the source held, and bytes the
/// materialized path would have held.
void CountTrainingSourceFit(const TrainingSource& source);

/// Process-wide factorized-training toggle. Defaults on;
/// MLCS_DISABLE_FACTORIZED=1 starts it off (common/settings.h). Gates both
/// the pipeline's factorized training path and the optimizer's
/// aggregate-pushdown-below-join rewrite, so one switch reverts the whole
/// factorized stack to the materialized fallback.
bool FactorizedEnabled();
/// Returns the previous value (test helper for save/restore).
bool SetFactorizedEnabled(bool enabled);

}  // namespace mlcs::ml

#endif  // MLCS_ML_TRAINING_SOURCE_H_
