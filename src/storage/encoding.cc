#include "storage/encoding.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash_index.h"
#include "common/settings.h"
#include "obs/metrics.h"

namespace mlcs {

namespace {

/// mlcs.encode.* series; pointers cached so hot paths skip the registry
/// lock.
obs::Counter* ColumnsEncodedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "mlcs.encode.columns_encoded");
  return counter;
}

obs::Counter* EncodedBytesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("mlcs.encode.encoded_bytes");
  return counter;
}

obs::Counter* DecodeEventsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("mlcs.encode.decode_events");
  return counter;
}

obs::Counter* CodePathHitsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("mlcs.encode.code_path_hits");
  return counter;
}

/// Hash of one value: the word exec::HashCombineColumnRange mixes for it
/// (integers sign-extended, strings through HashBytes), mixed into the seed.
template <typename T>
uint64_t ValueHash(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return MixHash(kHashSeed, HashBytes(v.data(), v.size()));
  } else {
    return MixHash(kHashSeed, static_cast<uint64_t>(static_cast<int64_t>(v)));
  }
}

/// Profiles and encodes one typed payload. Returns nullptr when neither
/// encoding clears the policy thresholds — the caller keeps the plain
/// column. `make_col` turns a std::vector<T> back into a plain column of
/// the right type.
template <typename T, typename MakeCol>
ColumnPtr EncodeTypedImpl(const Column& column, const std::vector<T>& v,
                          const EncodingPolicy& policy, bool dict_eligible,
                          const MakeCol& make_col) {
  size_t n = v.size();
  const uint8_t* valid = column.validity_data();
  auto row_null = [&](size_t i) { return valid != nullptr && valid[i] == 0; };
  // Runs use null-equality: two rows are equal iff both null or both valid
  // with equal payloads.
  auto rows_equal = [&](size_t a, size_t b) {
    bool a_null = row_null(a);
    bool b_null = row_null(b);
    if (a_null || b_null) return a_null && b_null;
    return v[a] == v[b];
  };
  // One profiling pass: run count plus first-seen ids of the distinct
  // non-null values (`first_row[id]` holds the value, `ids[i]` row i's
  // id), abandoned once the distinct count is provably over the cap.
  size_t runs = 1;
  bool dict_possible = dict_eligible;
  HashIndex index;
  std::vector<uint32_t> first_row;
  std::vector<uint32_t> ids;
  if (dict_eligible) ids.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && !rows_equal(i - 1, i)) ++runs;
    if (!dict_possible || row_null(i)) continue;
    uint32_t id = index.FindOrInsert(
        ValueHash(v[i]), [&](uint32_t k) { return v[first_row[k]] == v[i]; });
    if (id == first_row.size()) {
      first_row.push_back(static_cast<uint32_t>(i));
      if (first_row.size() > policy.max_dict_size) {
        dict_possible = false;  // spill to plain; stop paying for the ids
        index = HashIndex();
        first_row = {};
        ids = {};
        continue;
      }
    }
    ids[i] = id;
  }
  if (runs <= static_cast<size_t>(static_cast<double>(n) *
                                  policy.max_run_fraction)) {
    // RLE: one value slot per run (null runs keep a default slot; the
    // per-row validity is authoritative).
    std::vector<T> run_vals;
    std::vector<uint32_t> run_lens;
    run_vals.reserve(runs);
    run_lens.reserve(runs);
    size_t start = 0;
    for (size_t i = 1; i <= n; ++i) {
      if (i < n && rows_equal(i - 1, i)) continue;
      run_vals.push_back(row_null(start) ? T{} : v[start]);
      run_lens.push_back(static_cast<uint32_t>(i - start));
      start = i;
    }
    std::vector<uint8_t> validity;
    if (valid != nullptr) validity.assign(valid, valid + n);
    Result<ColumnPtr> rle =
        Column::MakeRle(column.type(), make_col(std::move(run_vals)),
                        std::move(run_lens), std::move(validity));
    return rle.ok() ? rle.ValueOrDie() : nullptr;
  }
  size_t non_null = n - column.null_count();
  if (dict_possible &&
      first_row.size() <= static_cast<size_t>(static_cast<double>(non_null) *
                                              policy.max_dict_fraction)) {
    // Dictionary: sorted unique values; each row's code is its id's rank.
    std::vector<uint32_t> order(first_row.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return v[first_row[a]] < v[first_row[b]];
    });
    std::vector<T> uniq;
    uniq.reserve(order.size());
    std::vector<uint32_t> rank(order.size());
    for (size_t r = 0; r < order.size(); ++r) {
      uniq.push_back(v[first_row[order[r]]]);
      rank[order[r]] = static_cast<uint32_t>(r);
    }
    std::vector<uint32_t> codes = std::move(ids);
    for (size_t i = 0; i < n; ++i) {
      codes[i] = row_null(i) ? 0 : rank[codes[i]];
    }
    std::vector<uint8_t> validity;
    if (valid != nullptr) validity.assign(valid, valid + n);
    Result<ColumnPtr> dict = Column::MakeDictionary(
        column.type(), std::move(codes), make_col(std::move(uniq)),
        std::move(validity));
    return dict.ok() ? dict.ValueOrDie() : nullptr;
  }
  return nullptr;
}

}  // namespace

ColumnPtr EncodeColumn(const ColumnPtr& column, const EncodingPolicy& policy) {
  if (column == nullptr || column->is_encoded()) return column;
  size_t n = column->size();
  if (n < policy.min_rows) return column;
  ColumnPtr encoded;
  switch (column->type()) {
    case TypeId::kBool:
      encoded = EncodeTypedImpl(
          *column, column->bool_data(), policy, /*dict_eligible=*/false,
          [](std::vector<uint8_t> v) { return Column::FromBool(std::move(v)); });
      break;
    case TypeId::kInt32:
      encoded = EncodeTypedImpl(
          *column, column->i32_data(), policy, /*dict_eligible=*/true,
          [](std::vector<int32_t> v) {
            return Column::FromInt32(std::move(v));
          });
      break;
    case TypeId::kInt64:
      encoded = EncodeTypedImpl(
          *column, column->i64_data(), policy, /*dict_eligible=*/true,
          [](std::vector<int64_t> v) {
            return Column::FromInt64(std::move(v));
          });
      break;
    case TypeId::kVarchar:
      encoded = EncodeTypedImpl(*column, column->str_data(), policy,
                                /*dict_eligible=*/true,
                                [](std::vector<std::string> v) {
                                  return Column::FromStrings(std::move(v));
                                });
      break;
    case TypeId::kDouble:  // float runs are rare and NaN poisons equality
    case TypeId::kBlob:    // serialized model payloads: never encoded
      return column;
  }
  if (encoded == nullptr) return column;
  ColumnsEncodedCounter()->Add(1);
  EncodedBytesCounter()->Add(encoded->ByteSize());
  return encoded;
}

TablePtr EncodeTable(const TablePtr& table, const EncodingPolicy& policy) {
  if (table == nullptr || !EncodingEnabled()) return table;
  bool changed = false;
  std::vector<ColumnPtr> columns;
  columns.reserve(table->num_columns());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    ColumnPtr encoded = EncodeColumn(table->column(c), policy);
    changed = changed || encoded != table->column(c);
    columns.push_back(std::move(encoded));
  }
  if (!changed) return table;
  return std::make_shared<Table>(table->schema(), std::move(columns));
}

TablePtr DecodeTable(const TablePtr& table) {
  if (table == nullptr) return table;
  bool changed = false;
  std::vector<ColumnPtr> columns;
  columns.reserve(table->num_columns());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    const ColumnPtr& col = table->column(c);
    if (col != nullptr && col->is_encoded()) {
      columns.push_back(col->Decode());
      changed = true;
    } else {
      columns.push_back(col);
    }
  }
  if (!changed) return table;
  return std::make_shared<Table>(table->schema(), std::move(columns));
}

bool EncodingEnabled() {
  return settings::g_disable_encoding.Get() == 0;
}

void SetEncodingEnabled(bool enabled) {
  settings::g_disable_encoding.Set(enabled ? 0 : 1);
}

uint64_t EncodeColumnsEncoded() { return ColumnsEncodedCounter()->Value(); }
uint64_t EncodeEncodedBytes() { return EncodedBytesCounter()->Value(); }
uint64_t EncodeDecodeEvents() { return DecodeEventsCounter()->Value(); }
uint64_t EncodeCodePathHits() { return CodePathHitsCounter()->Value(); }

void CountDecodeEvent() { DecodeEventsCounter()->Add(1); }
void CountCodePathHit() { CodePathHitsCounter()->Add(1); }

}  // namespace mlcs
