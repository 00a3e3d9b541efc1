#include "ml/training_source.h"

#include "common/settings.h"
#include "obs/metrics.h"

namespace mlcs::ml {

bool FactorizedEnabled() { return settings::g_disable_factorized.Get() == 0; }

bool SetFactorizedEnabled(bool enabled) {
  bool was = FactorizedEnabled();
  settings::g_disable_factorized.Set(enabled ? 0 : 1);
  return was;
}

TrainingSource TrainingSource::FromMatrix(const Matrix& x) {
  TrainingSource source;
  source.rows_ = x.rows();
  source.rows_set_ = true;
  source.features_.reserve(x.cols());
  for (size_t c = 0; c < x.cols(); ++c) {
    Feature f;
    f.dense = &x.column(c);
    source.features_.push_back(std::move(f));
  }
  return source;
}

Status TrainingSource::CheckRows(size_t n) {
  if (!rows_set_) {
    rows_ = n;
    rows_set_ = true;
    return Status::OK();
  }
  if (n != rows_) {
    return Status::InvalidArgument(
        "training source length " + std::to_string(n) +
        " does not match row count " + std::to_string(rows_));
  }
  return Status::OK();
}

Status TrainingSource::AddDenseFeature(const std::vector<double>* column) {
  MLCS_RETURN_IF_ERROR(CheckRows(column->size()));
  Feature f;
  f.dense = column;
  features_.push_back(std::move(f));
  return Status::OK();
}

Status TrainingSource::AddOwnedDenseFeature(std::vector<double> column) {
  MLCS_RETURN_IF_ERROR(CheckRows(column.size()));
  Feature f;
  f.owned = std::move(column);
  features_.push_back(std::move(f));
  return Status::OK();
}

Status TrainingSource::SetKeys(std::vector<uint32_t> keys, size_t num_keys) {
  if (!keys_.empty()) {
    return Status::InvalidArgument("training source keys already set");
  }
  if (num_keys == 0) {
    return Status::InvalidArgument("training source needs at least one key");
  }
  MLCS_RETURN_IF_ERROR(CheckRows(keys.size()));
  for (uint32_t k : keys) {
    if (k >= num_keys) {
      return Status::InvalidArgument(
          "key code " + std::to_string(k) + " out of range [0, " +
          std::to_string(num_keys) + ")");
    }
  }
  keys_ = std::move(keys);
  num_keys_ = num_keys;
  return Status::OK();
}

Status TrainingSource::AddFactorizedFeature(std::vector<double> lut) {
  if (keys_.empty()) {
    return Status::InvalidArgument(
        "SetKeys must precede AddFactorizedFeature");
  }
  if (lut.size() != num_keys_) {
    return Status::InvalidArgument(
        "LUT size " + std::to_string(lut.size()) + " does not match key count " +
        std::to_string(num_keys_));
  }
  Feature f;
  f.lut = std::move(lut);
  f.is_factorized = true;
  features_.push_back(std::move(f));
  return Status::OK();
}

FeatureView TrainingSource::view(size_t f) const {
  const Feature& feature = features_[f];
  if (feature.is_factorized) {
    return FeatureView(nullptr, feature.lut.data(), keys_.data(), true);
  }
  const std::vector<double>& dense =
      feature.dense != nullptr ? *feature.dense : feature.owned;
  return FeatureView(dense.data(), nullptr, nullptr, false);
}

size_t TrainingSource::num_factorized() const {
  size_t count = 0;
  for (const Feature& f : features_) count += f.is_factorized ? 1 : 0;
  return count;
}

size_t TrainingSource::FactorizedBytes() const {
  size_t bytes = keys_.size() * sizeof(uint32_t);
  for (const Feature& f : features_) {
    bytes += (f.is_factorized ? num_keys_ : rows_) * sizeof(double);
  }
  return bytes;
}

void CountTrainingSourceFit(const TrainingSource& source) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("mlcs.factorized.fits")->Add(1);
  if (source.num_factorized() > 0) {
    registry.GetCounter("mlcs.factorized.factorized_fits")->Add(1);
  }
  registry.GetCounter("mlcs.factorized.source_bytes")
      ->Add(source.FactorizedBytes());
  registry.GetCounter("mlcs.factorized.materialized_bytes")
      ->Add(source.MaterializedBytes());
  registry.GetGauge("mlcs.factorized.peak_source_bytes")
      ->UpdateMax(static_cast<int64_t>(source.FactorizedBytes()));
}

}  // namespace mlcs::ml
