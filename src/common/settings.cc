#include "common/settings.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace mlcs {

namespace {

int64_t HardwareThreads() {
  return std::max<int64_t>(1, std::thread::hardware_concurrency());
}

#if !defined(NDEBUG) || defined(MLCS_ENABLE_LOCK_DEBUG)
constexpr int64_t kLockDebugDefault = 1;  // Debug and sanitizer builds
#else
constexpr int64_t kLockDebugDefault = 0;  // Release: bare std::mutex
#endif

/// The one knob grammar: true when `text` is a whole decimal string
/// (digits only, no sign, no suffix) whose value lies in [min, max].
bool ParseSettingValue(const char* text, int64_t min, int64_t max,
                       int64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  int64_t v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    int digit = *p - '0';
    if (v > (std::numeric_limits<int64_t>::max() - digit) / 10) return false;
    v = v * 10 + digit;
  }
  if (v < min || v > max) return false;
  *out = v;
  return true;
}

}  // namespace

const char* SettingSourceName(Setting::Source source) {
  switch (source) {
    case Setting::Source::kDefault:
      return "default";
    case Setting::Source::kEnv:
      return "env";
    case Setting::Source::kSet:
      return "set";
  }
  return "?";
}

int64_t Setting::default_value() const {
  return default_fn_ != nullptr ? default_fn_() : default_value_;
}

int64_t Setting::Resolve() const {
  int64_t value = default_value();
  Source source = Source::kDefault;
  const char* env = std::getenv(name_);
  if (env != nullptr && *env != '\0') {
    int64_t parsed = 0;
    if (ParseSettingValue(env, min_, max_, &parsed)) {
      value = parsed;
      source = Source::kEnv;
    } else {
      // Not MLCS_LOG: logging takes an mlcs::Mutex, which reads
      // MLCS_LOCK_DEBUG through this very code.
      std::fprintf(stderr,
                   "mlcs: ignoring %s=\"%s\": expected a whole decimal "
                   "number in [%lld, %lld]; using %lld\n",
                   name_, env, static_cast<long long>(min_),
                   static_cast<long long>(max_),
                   static_cast<long long>(value));
    }
  }
  int64_t expected = kUnread;
  if (value_.compare_exchange_strong(expected, value,
                                     std::memory_order_relaxed)) {
    source_.store(static_cast<uint8_t>(source), std::memory_order_relaxed);
    return value;
  }
  return expected;  // a racing resolver or Set() got there first
}

bool Setting::Set(int64_t value) {
  if (value < min_ || value > max_) return false;
  value_.store(value, std::memory_order_relaxed);
  source_.store(static_cast<uint8_t>(Source::kSet),
                std::memory_order_relaxed);
  return true;
}

Setting::Source Setting::source() const {
  Get();
  return static_cast<Source>(source_.load(std::memory_order_relaxed));
}

namespace settings {

// constinit: usable from any static initializer (the crash handler reads
// MLCS_CRASH_DUMP from one), whatever the translation-unit order.
constinit Setting g_threads("MLCS_THREADS", 0, 1, 4096, HardwareThreads);
constinit Setting g_block_rows("MLCS_BLOCK_ROWS", 4096, 1, int64_t{1} << 30);
constinit Setting g_buffer_pool_bytes("MLCS_BUFFER_POOL_BYTES",
                                      int64_t{256} << 20, 0,
                                      int64_t{1} << 50);
constinit Setting g_flight_recorder_bytes("MLCS_FLIGHT_RECORDER_BYTES",
                                          int64_t{4} << 20, 0,
                                          int64_t{1} << 40);
constinit Setting g_slow_query_ms("MLCS_SLOW_QUERY_MS", 250, 0,
                                  int64_t{1} << 40);
constinit Setting g_crash_dump("MLCS_CRASH_DUMP", 0, 0, 1);
constinit Setting g_lock_debug("MLCS_LOCK_DEBUG", kLockDebugDefault, 0, 1);
constinit Setting g_disable_optimizer("MLCS_DISABLE_OPTIMIZER", 0, 0, 1);
constinit Setting g_disable_zonemaps("MLCS_DISABLE_ZONEMAPS", 0, 0, 1);
constinit Setting g_disable_encoding("MLCS_DISABLE_ENCODING", 0, 0, 1);
constinit Setting g_disable_factorized("MLCS_DISABLE_FACTORIZED", 0, 0, 1);

std::span<Setting* const> All() {
  static Setting* const kAll[] = {
      &g_threads,          &g_block_rows,        &g_buffer_pool_bytes,
      &g_flight_recorder_bytes, &g_slow_query_ms, &g_crash_dump,
      &g_lock_debug,       &g_disable_optimizer, &g_disable_zonemaps,
      &g_disable_encoding, &g_disable_factorized};
  return kAll;
}

}  // namespace settings

}  // namespace mlcs
