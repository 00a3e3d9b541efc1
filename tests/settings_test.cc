// The settings table (common/settings.h, DESIGN.md §18): one grammar for
// every MLCS_* knob, the setter and its `mlcs_settings()` row, and the
// read-at-first-use contract programs rely on when they setenv() a knob in
// main().

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "bufpool/buffer_pool.h"
#include "bufpool/stored_table.h"
#include "common/settings.h"
#include "obs/flight_recorder.h"
#include "sql/database.h"

namespace mlcs {
namespace {

/// Reads `value` for the knob `entry` names through a fresh, never-read
/// entry with the same name and range — the parse path of the real entry
/// at its first use, without touching the process-wide one. Returns the
/// value; `source` and `stderr_text` report how it was resolved.
int64_t ReadFresh(const Setting& entry, const char* value,
                  Setting::Source* source, std::string* stderr_text) {
  setenv(entry.name(), value, 1);
  Setting fresh(entry.name(), entry.default_value(), entry.min(),
                entry.max());
  testing::internal::CaptureStderr();
  int64_t v = fresh.Get();
  *stderr_text = testing::internal::GetCapturedStderr();
  *source = fresh.source();
  unsetenv(entry.name());
  return v;
}

/// A malformed value keeps the default, says so on one stderr line, and
/// counts as the default's source.
void ExpectRejected(const Setting& entry, const char* value) {
  Setting::Source source;
  std::string err;
  EXPECT_EQ(ReadFresh(entry, value, &source, &err), entry.default_value())
      << entry.name() << "=" << value;
  EXPECT_EQ(source, Setting::Source::kDefault);
  EXPECT_NE(err.find(std::string("ignoring ") + entry.name() + "=\"" +
                     value + "\""),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find('\n'), err.size() - 1) << "one line: " << err;
}

void ExpectAccepted(const Setting& entry, const char* value,
                    int64_t expected) {
  Setting::Source source;
  std::string err;
  EXPECT_EQ(ReadFresh(entry, value, &source, &err), expected)
      << entry.name() << "=" << value;
  EXPECT_EQ(source, Setting::Source::kEnv);
  EXPECT_EQ(err, "");
}

TEST(SettingsTest, SizeSuffixesAreRejectedNotTruncated) {
  ExpectRejected(settings::g_buffer_pool_bytes, "1G");  // was a 1-byte pool
  ExpectRejected(settings::g_flight_recorder_bytes, "4MiB");  // was 4 bytes
  ExpectAccepted(settings::g_buffer_pool_bytes, "1073741824", 1 << 30);
}

TEST(SettingsTest, GarbageDoesNotSilentlyDisableRecording) {
  // "abc" used to read as 0, which turned tracing and the slow-query log
  // off; now the 4 MiB default stays.
  ExpectRejected(settings::g_flight_recorder_bytes, "abc");
  EXPECT_GT(settings::g_flight_recorder_bytes.default_value(), 0);
}

TEST(SettingsTest, TrailingGarbageAndSignsAreRejected) {
  ExpectRejected(settings::g_block_rows, "12abc");  // was 12
  ExpectRejected(settings::g_block_rows, "-1");     // was 2^64 - 1
  ExpectRejected(settings::g_block_rows, "+5");
  ExpectRejected(settings::g_block_rows, " 5");
  ExpectRejected(settings::g_block_rows, "0");  // below the range
  ExpectRejected(settings::g_slow_query_ms, "0.5");
  ExpectRejected(settings::g_threads, "99999999999999999999999");  // > 2^63
  ExpectRejected(settings::g_crash_dump, "1e0");
  ExpectAccepted(settings::g_block_rows, "12", 12);
}

TEST(SettingsTest, FlagsTakeZeroOrOne) {
  // Any non-empty value used to disable encoding, "0" included.
  ExpectAccepted(settings::g_disable_encoding, "0", 0);
  ExpectAccepted(settings::g_disable_encoding, "1", 1);
  // Only a leading '0' used to turn the detector off, so "false" enabled it.
  ExpectRejected(settings::g_lock_debug, "false");
  ExpectAccepted(settings::g_lock_debug, "0", 0);
  // Any value starting with '1' used to arm fatal-signal dumps.
  ExpectRejected(settings::g_crash_dump, "10");
  ExpectAccepted(settings::g_crash_dump, "1", 1);
}

TEST(SettingsTest, EmptyValueCountsAsUnset) {
  Setting::Source source;
  std::string err;
  EXPECT_EQ(ReadFresh(settings::g_block_rows, "", &source, &err),
            settings::g_block_rows.default_value());
  EXPECT_EQ(source, Setting::Source::kDefault);
  EXPECT_EQ(err, "");
}

TEST(SettingsTest, DefaultsMatchTheSubsystems) {
  EXPECT_EQ(settings::g_block_rows.default_value(),
            static_cast<int64_t>(bufpool::StoredTable::kDefaultBlockRows));
  EXPECT_EQ(settings::g_buffer_pool_bytes.default_value(),
            static_cast<int64_t>(bufpool::BufferPool::kDefaultByteBudget));
  EXPECT_EQ(settings::g_slow_query_ms.default_value(),
            static_cast<int64_t>(obs::FlightRecorder::kDefaultSlowQueryMs));
  EXPECT_GE(settings::g_threads.default_value(), 1);
}

TEST(SettingsTest, TableHasTheElevenKnobs) {
  std::set<std::string> names;
  for (const Setting* s : settings::All()) names.insert(s->name());
  EXPECT_EQ(names, (std::set<std::string>{
                       "MLCS_THREADS", "MLCS_BLOCK_ROWS",
                       "MLCS_BUFFER_POOL_BYTES", "MLCS_FLIGHT_RECORDER_BYTES",
                       "MLCS_SLOW_QUERY_MS", "MLCS_CRASH_DUMP",
                       "MLCS_LOCK_DEBUG", "MLCS_DISABLE_OPTIMIZER",
                       "MLCS_DISABLE_ZONEMAPS", "MLCS_DISABLE_ENCODING",
                       "MLCS_DISABLE_FACTORIZED"}));
}

TEST(SettingsTest, SetterShowsInSqlTableWithSourceSet) {
  const int64_t before = settings::g_block_rows.Get();
  ASSERT_TRUE(settings::g_block_rows.Set(128));
  EXPECT_FALSE(settings::g_block_rows.Set(0));  // out of range: unchanged
  Database db;
  auto t = db.Query(
                 "SELECT value, default_value, source FROM mlcs_settings() "
                 "WHERE name = 'MLCS_BLOCK_ROWS'")
               .ValueOrDie();
  settings::g_block_rows.Set(before);
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(128));
  EXPECT_EQ(t->GetValue(0, 1).ValueOrDie(), Value::Int64(4096));
  EXPECT_EQ(t->GetValue(0, 2).ValueOrDie(), Value::Varchar("set"));

  auto all = db.Query("SELECT * FROM mlcs_settings()").ValueOrDie();
  EXPECT_EQ(all->num_rows(), settings::All().size());
  EXPECT_EQ(all->schema().num_fields(), 4u);
}

TEST(SettingsDeathTest, EntryReadsTheEnvironmentAtFirstUse) {
  // A fresh process, so the entry is unread: the pattern of a program that
  // setenv()s a knob in main() before the subsystem's first use. A budget
  // of 0 turns the flight recorder off, which shows the recorder took its
  // budget from the entry at that first use.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("MLCS_FLIGHT_RECORDER_BYTES", "0", 1);
        bool ok = !obs::FlightRecorder::RecordingEnabled() &&
                  settings::g_flight_recorder_bytes.source() ==
                      Setting::Source::kEnv;
        std::exit(ok ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace mlcs
