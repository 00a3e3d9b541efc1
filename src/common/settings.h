#ifndef MLCS_COMMON_SETTINGS_H_
#define MLCS_COMMON_SETTINGS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>

namespace mlcs {

/// One process-wide configuration knob (DESIGN.md §18): a name, an integer
/// value inside [min, max], a default, and where the current value came
/// from. The eleven `MLCS_*` environment variables are the entries of one
/// table (`settings::All()`), surfaced to SQL as `mlcs_settings()` and
/// written whole into every BENCH_<name>.json.
///
/// An entry reads its environment variable once, at its first Get() — not
/// at static-init time, so a program may setenv() a knob in main() before
/// the subsystem that reads it is first used. Every knob has one grammar:
/// a whole decimal string (digits only) inside the entry's range; flags
/// are entries with range [0, 1]. An empty variable counts as unset. A
/// malformed or out-of-range value keeps the default and prints one line
/// to stderr. Set() overrides the value at any time (source "set").
///
/// Lock-free by design: the lock facade itself reads MLCS_LOCK_DEBUG
/// through an entry, so nothing here may take an mlcs::Mutex or log
/// through MLCS_LOG. Get() on a resolved entry is one relaxed load.
class Setting {
 public:
  enum class Source : uint8_t { kDefault = 0, kEnv = 1, kSet = 2 };

  /// `default_fn`, when given, computes the default at first use (e.g.
  /// the hardware thread count) instead of `default_value`.
  constexpr Setting(const char* name, int64_t default_value, int64_t min,
                    int64_t max, int64_t (*default_fn)() = nullptr)
      : name_(name),
        default_value_(default_value),
        min_(min),
        max_(max),
        default_fn_(default_fn) {}

  int64_t Get() const {
    int64_t v = value_.load(std::memory_order_relaxed);
    return v != kUnread ? v : Resolve();
  }
  /// Overrides the value; false (value unchanged) outside [min, max].
  bool Set(int64_t value);

  const char* name() const { return name_; }
  int64_t min() const { return min_; }
  int64_t max() const { return max_; }
  int64_t default_value() const;
  /// Where Get()'s value came from (resolves the entry first).
  Source source() const;

 private:
  static constexpr int64_t kUnread = std::numeric_limits<int64_t>::min();

  /// First use: reads and parses the environment variable once.
  int64_t Resolve() const;

  const char* name_;
  int64_t default_value_;
  int64_t min_;
  int64_t max_;
  int64_t (*default_fn_)();
  mutable std::atomic<int64_t> value_{kUnread};
  mutable std::atomic<uint8_t> source_{0};
};

const char* SettingSourceName(Setting::Source source);

namespace settings {

// The table, one entry per knob (ranges and meaning: DESIGN.md §18).
extern Setting g_threads;                // MLCS_THREADS
extern Setting g_block_rows;             // MLCS_BLOCK_ROWS
extern Setting g_buffer_pool_bytes;      // MLCS_BUFFER_POOL_BYTES
extern Setting g_flight_recorder_bytes;  // MLCS_FLIGHT_RECORDER_BYTES
extern Setting g_slow_query_ms;          // MLCS_SLOW_QUERY_MS
extern Setting g_crash_dump;             // MLCS_CRASH_DUMP
extern Setting g_lock_debug;             // MLCS_LOCK_DEBUG
extern Setting g_disable_optimizer;      // MLCS_DISABLE_OPTIMIZER
extern Setting g_disable_zonemaps;       // MLCS_DISABLE_ZONEMAPS
extern Setting g_disable_encoding;       // MLCS_DISABLE_ENCODING
extern Setting g_disable_factorized;     // MLCS_DISABLE_FACTORIZED

/// Every entry, in the table's order.
std::span<Setting* const> All();

}  // namespace settings

}  // namespace mlcs

#endif  // MLCS_COMMON_SETTINGS_H_
