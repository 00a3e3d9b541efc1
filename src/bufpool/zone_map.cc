#include "bufpool/zone_map.h"

#include <cmath>

#include "common/settings.h"

namespace mlcs::bufpool {

namespace {

/// Largest integer magnitude a double represents exactly. Min/max stored
/// as int64 but compared against a double literal (or vice versa) beyond
/// this bound could round across the decision boundary, so ZoneAdmits
/// fails open there.
constexpr double kExactDoubleBound = 9007199254740992.0;  // 2^53

template <typename T>
bool AdmitRange(const T& lo, const T& hi, const T& v, ZoneOp op) {
  switch (op) {
    case ZoneOp::kEq:
      return lo <= v && v <= hi;
    case ZoneOp::kNe:
      // Only skippable when every non-null row equals the literal.
      return !(lo == v && hi == v);
    case ZoneOp::kLt:
      return lo < v;
    case ZoneOp::kLe:
      return lo <= v;
    case ZoneOp::kGt:
      return hi > v;
    case ZoneOp::kGe:
      return hi >= v;
  }
  return true;
}

bool IsIntegral(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt32 || t == TypeId::kInt64;
}

int64_t IntOf(const Value& v) {
  switch (v.type()) {
    case TypeId::kBool:
      return v.bool_value() ? 1 : 0;
    case TypeId::kInt32:
      return v.int32_value();
    default:
      return v.int64_value();
  }
}

double DoubleOf(const Value& v) {
  return v.type() == TypeId::kDouble ? v.double_value()
                                     : static_cast<double>(IntOf(v));
}

}  // namespace

ZoneMap ComputeZoneMap(const Column& column) {
  ZoneMap zone;
  zone.null_count = column.null_count();
  size_t n = column.size();
  if (column.type() == TypeId::kBlob || zone.null_count >= n) {
    return zone;  // unsummarizable payload or no non-null values
  }
  if (column.encoding() == ColumnEncoding::kDict) {
    // Zone over DECODED values: code order need not be value order (the
    // dictionary may be unsorted), so min/max come from the dictionary
    // entries actually referenced by this block's non-null rows — exact
    // per block even when blocks share a dictionary.
    const auto& codes = column.codes();
    std::vector<uint8_t> used(column.dict()->size(), 0);
    for (size_t i = 0; i < n; ++i) {
      if (!column.IsNull(i)) used[codes[i]] = 1;
    }
    std::vector<uint32_t> sel;
    for (size_t e = 0; e < used.size(); ++e) {
      if (used[e] != 0) sel.push_back(static_cast<uint32_t>(e));
    }
    ZoneMap z = ComputeZoneMap(*column.dict()->Take(sel));
    z.null_count = zone.null_count;
    return z;
  }
  if (column.encoding() == ColumnEncoding::kRle) {
    if (!column.has_nulls()) {
      // Every run value is a real row value: the per-run min/max is the
      // per-row min/max at O(runs) cost.
      return ComputeZoneMap(*column.run_values());
    }
    return ComputeZoneMap(*column.Decode());
  }
  switch (column.type()) {
    case TypeId::kBool: {
      uint8_t lo = 1, hi = 0;
      const auto& data = column.bool_data();
      for (size_t i = 0; i < n; ++i) {
        if (column.IsNull(i)) continue;
        uint8_t v = data[i] != 0 ? 1 : 0;
        if (v < lo) lo = v;
        if (v > hi) hi = v;
      }
      zone.min = Value::Bool(lo != 0);
      zone.max = Value::Bool(hi != 0);
      break;
    }
    case TypeId::kInt32: {
      const auto& data = column.i32_data();
      bool first = true;
      int32_t lo = 0, hi = 0;
      for (size_t i = 0; i < n; ++i) {
        if (column.IsNull(i)) continue;
        if (first || data[i] < lo) lo = data[i];
        if (first || data[i] > hi) hi = data[i];
        first = false;
      }
      zone.min = Value::Int32(lo);
      zone.max = Value::Int32(hi);
      break;
    }
    case TypeId::kInt64: {
      const auto& data = column.i64_data();
      bool first = true;
      int64_t lo = 0, hi = 0;
      for (size_t i = 0; i < n; ++i) {
        if (column.IsNull(i)) continue;
        if (first || data[i] < lo) lo = data[i];
        if (first || data[i] > hi) hi = data[i];
        first = false;
      }
      zone.min = Value::Int64(lo);
      zone.max = Value::Int64(hi);
      break;
    }
    case TypeId::kDouble: {
      const auto& data = column.f64_data();
      bool first = true;
      double lo = 0, hi = 0;
      for (size_t i = 0; i < n; ++i) {
        if (column.IsNull(i)) continue;
        if (std::isnan(data[i])) return zone;  // NaN defeats ordering
        if (first || data[i] < lo) lo = data[i];
        if (first || data[i] > hi) hi = data[i];
        first = false;
      }
      zone.min = Value::Double(lo);
      zone.max = Value::Double(hi);
      break;
    }
    case TypeId::kVarchar: {
      const auto& data = column.str_data();
      const std::string* lo = nullptr;
      const std::string* hi = nullptr;
      for (size_t i = 0; i < n; ++i) {
        if (column.IsNull(i)) continue;
        if (lo == nullptr || data[i] < *lo) lo = &data[i];
        if (hi == nullptr || data[i] > *hi) hi = &data[i];
      }
      zone.min = Value::Varchar(*lo);
      zone.max = Value::Varchar(*hi);
      break;
    }
    case TypeId::kBlob:
      return zone;
  }
  zone.has_minmax = true;
  return zone;
}

bool ZoneAdmits(const ZoneMap& zone, uint64_t block_rows, ZoneOp op,
                const Value& literal) {
  if (literal.is_null()) return false;  // `x <op> NULL` is never TRUE
  if (zone.null_count >= block_rows) return false;  // every row is NULL
  if (!zone.has_minmax) return true;  // BLOB / NaN: nothing provable
  TypeId mt = zone.min.type();
  TypeId lt = literal.type();
  if (IsIntegral(mt) && IsIntegral(lt)) {
    return AdmitRange<int64_t>(IntOf(zone.min), IntOf(zone.max),
                               IntOf(literal), op);
  }
  bool numeric_zone = IsIntegral(mt) || mt == TypeId::kDouble;
  bool numeric_lit = IsIntegral(lt) || lt == TypeId::kDouble;
  if (numeric_zone && numeric_lit) {
    double lo = DoubleOf(zone.min);
    double hi = DoubleOf(zone.max);
    double v = DoubleOf(literal);
    if (std::isnan(v)) return true;
    if (std::fabs(lo) >= kExactDoubleBound ||
        std::fabs(hi) >= kExactDoubleBound ||
        std::fabs(v) >= kExactDoubleBound) {
      return true;  // rounding could flip the inequality
    }
    return AdmitRange<double>(lo, hi, v, op);
  }
  if (mt == TypeId::kVarchar && lt == TypeId::kVarchar) {
    return AdmitRange<std::string>(zone.min.string_value(),
                                   zone.max.string_value(),
                                   literal.string_value(), op);
  }
  return true;  // mixed string/numeric comparison: fail open
}

bool ZoneMapSkippingEnabled() {
  return settings::g_disable_zonemaps.Get() == 0;
}

void SetZoneMapSkippingEnabled(bool enabled) {
  settings::g_disable_zonemaps.Set(enabled ? 0 : 1);
}

}  // namespace mlcs::bufpool
