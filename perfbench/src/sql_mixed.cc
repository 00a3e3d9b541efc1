// sql_mixed: one closed-loop client runs a seeded mix of read queries over
// a disk-backed 1 M-voter table, interleaved with 1 000-row INSERT
// batches into a resident table and periodic checkpoints of that table.
//
// Set-up writes voters (1 M x 16 columns) and precincts with
// Database::SaveTo and re-attaches them with LoadFrom, so every scan goes
// through the buffer pool. It then loads every voter column once into an
// ample pool, reads the bytes the pool charges for them (encoded blocks)
// and sets the global budget to kPoolShare of that: the columns of the
// narrow queries fit, the wide query evicts.
//
// Read mix, per round of ten reads in a seeded order. Each kind walks a
// seeded permutation of its small parameter set, so every run draws each
// parameter equally often, SQL texts repeat and the plan cache sees hits
// as well as misses:
//   filter+aggregate  COUNT/SUM over a two-predicate filter      20 %
//   group by precinct COUNT/SUM per precinct for one party        30 %
//   join + group by   voters JOIN precincts, per party            20 %
//   order by … limit  top 10 voters of one precinct by age        20 %
//   full order by     every column of 1/40 of the voters, sorted  10 %
// The two fastest kinds make up 40 % and the group-by 30 %, so the median
// latency falls inside the group-by's share, not on the edge between two
// kinds where it would jump from run to run. For the same reason the tail
// is p95, the middle of the full sorts' share, not p99.
// After every 5 reads one INSERT batch; after every 10 batches a SaveTo
// checkpoint of the write side (its own Database, started afresh after
// each checkpoint).
//
// Output check: every read result equals the value computed here from the
// generated columns; at the end fresh Database::LoadFrom calls of the
// checkpoints must read back every inserted row.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "bufpool/buffer_pool.h"
#include "common/random.h"
#include "io/voter_gen.h"
#include "sql/database.h"

namespace perfbench {
namespace {

using mlcs::Result;
using mlcs::Status;
using mlcs::TablePtr;

constexpr size_t kVoters = 1000000;
constexpr size_t kColumns = 16;
constexpr size_t kPrecincts = 2751;
constexpr int kReadsPerInsert = 5;
constexpr int kInsertsPerCheckpoint = 10;
constexpr int kInsertRows = 1000;
/// Buffer-pool budget as a share of the bytes the pool charges for every
/// voter column.
constexpr double kPoolShare = 0.85;
/// Budget while those bytes are measured: room for the whole table.
constexpr size_t kMeasureBudget = size_t{1} << 30;
/// Bytes of one inserted row as typed: BIGINT, INTEGER, DOUBLE, INTEGER.
constexpr double kUserBytesPerRow = 8 + 4 + 8 + 4;
constexpr int kTopPrecincts = 64;  // precincts the ORDER BY … LIMIT uses
constexpr int kYears = 40;         // years_registered domain: 0..39

enum Kind { kFilterAgg, kGroupBy, kJoinGroupBy, kTopN, kFullSort, kKinds };
constexpr std::array<const char*, kKinds> kKindNames = {
    "filter_agg", "group_by", "join_group_by", "order_limit", "full_sort"};
/// Reads of each kind per round of ten; each round runs them in a seeded
/// order, so every run has the same mix whatever its seed.
constexpr std::array<int, kKinds> kKindsPerRound = {2, 3, 2, 2, 1};
/// Parameter values of each kind (filter_agg: income bracket x age
/// threshold; group_by: party; join: urban threshold; order_limit: one of
/// kTopPrecincts precincts; full_sort: years_registered).
constexpr std::array<int, kKinds> kParams = {11 * 6, 3, 11, kTopPrecincts,
                                             kYears};
constexpr double kTailPercentile = 95;

int64_t CellInt(const mlcs::Table& t, size_t row, size_t col) {
  auto v = t.GetValue(row, col);
  if (!v.ok() || v.ValueOrDie().is_null()) return INT64_MIN;
  auto i = v.ValueOrDie().AsInt64();
  return i.ok() ? i.ValueOrDie() : INT64_MIN;
}

/// Directory size in bytes (regular files, recursively).
double DirBytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<double>(it->file_size(ec));
    }
  }
  return total;
}

class SqlMixed : public Workload {
 public:
  SqlMixed(const Args& args, Report* report)
      : seed_(args.seed),
        dir_(args.scratch + "/sql_mixed"),
        report_(report) {}

  Status Setup() override {
    read_db_.reset();
    write_db_.reset();
    mlcs::bufpool::BufferPool::Global().Clear();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
    if (ec) return Status::IoError("cannot create " + dir_);

    mlcs::io::VoterDataOptions data;
    data.num_voters = kVoters;
    data.num_columns = kColumns;
    data.num_precincts = kPrecincts;
    data.seed = seed_;
    MLCS_ASSIGN_OR_RETURN(voters_, mlcs::io::GenerateVoters(data));
    MLCS_ASSIGN_OR_RETURN(precincts_, mlcs::io::GeneratePrecincts(data));
    {
      mlcs::Database staging;
      MLCS_RETURN_IF_ERROR(
          staging.catalog().CreateTable("voters", voters_, true));
      MLCS_RETURN_IF_ERROR(
          staging.catalog().CreateTable("precincts", precincts_, true));
      MLCS_RETURN_IF_ERROR(staging.SaveTo(dir_ + "/base"));
    }
    read_db_ = std::make_unique<mlcs::Database>();
    MLCS_RETURN_IF_ERROR(read_db_->LoadFrom(dir_ + "/base"));
    auto& pool = mlcs::bufpool::BufferPool::Global();
    pool.Clear();
    pool.set_byte_budget(kMeasureBudget);
    std::string every_column;
    for (const mlcs::Field& f : voters_->schema().fields()) {
      every_column += (every_column.empty() ? "" : ", ") +
                      std::string("SUM(") + f.name + ")";
    }
    MLCS_RETURN_IF_ERROR(
        read_db_->Query("SELECT " + every_column + " FROM voters").status());
    pool.set_byte_budget(
        static_cast<size_t>(static_cast<double>(pool.bytes_cached()) *
                            kPoolShare));

    MLCS_RETURN_IF_ERROR(NewEpoch());
    rng_ = mlcs::Rng(seed_ * 7919 + 3);
    round_.clear();
    for (int k = 0; k < kKinds; ++k) {
      params_[k].resize(kParams[k]);
      for (int i = 0; i < kParams[k]; ++i) params_[k][i] = i;
      Shuffle(&params_[k]);
      next_param_[k] = 0;
    }
    inserted_ = 0;
    batches_ = 0;
    checkpoints_.clear();
    ComputeExpected();
    return Status::OK();
  }

  void Measure(double seconds, Phase* phase) override {
    double write_ms = 0;
    uint64_t written = 0;
    double evictions = Evictions();
    phase->tail_percentile = kTailPercentile;
    Clock::time_point start = Clock::now();
    do {
      for (int r = 0; r < kReadsPerInsert; ++r) Read(phase);
      Clock::time_point w = Clock::now();
      uint64_t rows = Insert(phase);
      if (rows > 0 && ++batches_ % kInsertsPerCheckpoint == 0) {
        Clock::time_point c = Clock::now();
        if (Checkpoint(phase)) {
          phase->samples["storage.checkpoint_ms"].push_back(MsSince(c));
        }
      }
      write_ms += MsSince(w);
      written += rows;
    } while (MsSince(start) < seconds * 1e3);
    phase->seconds += MsSince(start) / 1e3;
    if (write_ms > 0) {
      phase->samples["storage.write_rows_per_s"].push_back(
          static_cast<double>(written) / (write_ms / 1e3));
    }
    if (seconds > 0) {  // the warm-up's few reads may miss the wide scan
      ++report_->attempted;
      if (Evictions() == evictions) {
        report_->Fail("the buffer pool evicted nothing: the wide scans fit "
                      "its budget",
                      false);
      }
    }
    if (!checkpoints_.empty() && checkpoints_.back() > 0) {
      double disk = DirBytes(CheckpointDir(checkpoints_.size() - 1));
      phase->layers["storage.bytes_per_user_byte"] =
          disk / (static_cast<double>(checkpoints_.back()) * kUserBytesPerRow);
    }
  }

  void Finish() override {
    // Checkpoint the open epoch, then read every checkpoint back into a
    // fresh database: together they must hold every row inserted.
    if (!Checkpoint(nullptr)) return;
    uint64_t total = 0;
    for (size_t k = 0; k < checkpoints_.size(); ++k) {
      ++report_->attempted;
      mlcs::Database fresh;
      if (!report_->Check(fresh.LoadFrom(CheckpointDir(k)),
                          "checkpoint load")) {
        return;
      }
      auto count = fresh.Query("SELECT COUNT(*) FROM events");
      if (!report_->Check(count.status(), "checkpoint count")) return;
      int64_t n = CellInt(*count.ValueOrDie(), 0, 0);
      if (n != static_cast<int64_t>(checkpoints_[k])) {
        report_->Fail("checkpoint " + std::to_string(k) + " holds " +
                          std::to_string(n) + " rows, not " +
                          std::to_string(checkpoints_[k]),
                      true);
      }
      total += static_cast<uint64_t>(std::max<int64_t>(n, 0));
    }
    if (total != inserted_) {
      report_->Fail("checkpoints hold " + std::to_string(total) + " rows, " +
                        std::to_string(inserted_) + " inserted",
                    true);
    }
  }

 private:
  struct Expected {
    // filter_agg [income 0..10][age threshold index] → (count, sum age)
    std::array<std::array<std::pair<int64_t, int64_t>, 6>, 11> filter_agg{};
    // group_by [party 0..2] → precinct → (count, sum years)
    std::array<std::map<int64_t, std::pair<int64_t, int64_t>>, 3> group_by;
    // join_group_by [urban threshold 0..10] → party → (count, sum dem)
    std::array<std::map<int64_t, std::pair<int64_t, int64_t>>, 11> join;
    // order_limit: precinct → voter ids, oldest first
    std::map<int64_t, std::vector<int64_t>> top;
    // full_sort [years] → voter ids in (age, voter_id) order
    std::array<std::vector<int64_t>, kYears> sorted;
  };

  static int AgeThreshold(int i) { return 20 + 10 * i; }

  static double Evictions() {
    return RegistryValues()["mlcs.bufpool.evictions"];
  }

  const std::vector<int32_t>& Col(size_t i) const {
    return voters_->column(i)->i32_data();
  }

  void ComputeExpected() {
    exp_ = Expected();
    const auto& id = Col(0);
    const auto& precinct = Col(1);
    const auto& age = Col(2);
    const auto& party = Col(5);
    const auto& income = Col(6);
    const auto& urban = Col(7);
    const auto& years = Col(8);
    const auto& dem = precincts_->column(1)->i32_data();
    // Precincts the ORDER BY … LIMIT queries pick from (seeded).
    mlcs::Rng pick(seed_ + 11);
    top_precincts_.clear();
    for (int i = 0; i < kTopPrecincts; ++i) {
      top_precincts_.push_back(static_cast<int>(pick.NextBounded(kPrecincts)));
    }
    std::map<int64_t, std::vector<std::pair<int32_t, int32_t>>> top_rows;
    for (int p : top_precincts_) top_rows[p];
    std::array<std::vector<std::pair<int32_t, int32_t>>, kYears> by_year;
    for (size_t r = 0; r < id.size(); ++r) {
      for (int t = 0; t < 6; ++t) {
        if (age[r] > AgeThreshold(t)) {
          auto& cell = exp_.filter_agg[income[r]][t];
          ++cell.first;
          cell.second += age[r];
        }
      }
      auto& g = exp_.group_by[party[r]][precinct[r]];
      ++g.first;
      g.second += years[r];
      for (int u = 0; u <= urban[r]; ++u) {
        auto& j = exp_.join[u][party[r]];
        ++j.first;
        j.second += dem[precinct[r]];
      }
      auto it = top_rows.find(precinct[r]);
      if (it != top_rows.end()) it->second.push_back({age[r], id[r]});
      by_year[years[r]].push_back({age[r], id[r]});
    }
    for (auto& [p, rows] : top_rows) {
      // ORDER BY age DESC, voter_id
      std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
      });
      auto& ids = exp_.top[p];
      for (size_t i = 0; i < rows.size() && i < 10; ++i) {
        ids.push_back(rows[i].second);
      }
    }
    for (int y = 0; y < kYears; ++y) {
      std::sort(by_year[y].begin(), by_year[y].end());  // age, voter_id
      for (const auto& row : by_year[y]) exp_.sorted[y].push_back(row.second);
    }
  }

  /// Runs one read query of a seeded kind; checks its result.
  void Read(Phase* phase) {
    if (round_.empty()) {
      for (int k = 0; k < kKinds; ++k) {
        round_.insert(round_.end(), kKindsPerRound[k], k);
      }
      Shuffle(&round_);
    }
    int kind = round_.back();
    round_.pop_back();
    int param = params_[kind][next_param_[kind]];
    next_param_[kind] = (next_param_[kind] + 1) % params_[kind].size();
    std::string sql;
    int a = param, b = 0;
    switch (kind) {
      case kFilterAgg:
        a = param / 6;
        b = param % 6;
        sql = "SELECT COUNT(*) AS n, SUM(age) AS s FROM voters WHERE "
              "income_bracket = " + std::to_string(a) +
              " AND age > " + std::to_string(AgeThreshold(b));
        break;
      case kGroupBy:
        sql = "SELECT precinct_id, COUNT(*) AS n, SUM(years_registered) AS s "
              "FROM voters WHERE party_reg = " + std::to_string(a) +
              " GROUP BY precinct_id";
        break;
      case kJoinGroupBy:
        sql = "SELECT party_reg, COUNT(*) AS n, SUM(dem_votes) AS d FROM "
              "voters JOIN precincts ON precinct_id = precinct_id WHERE "
              "urban_score >= " + std::to_string(a) + " GROUP BY party_reg";
        break;
      case kTopN:
        a = top_precincts_[param];
        sql = "SELECT voter_id, age FROM voters WHERE precinct_id = " +
              std::to_string(a) + " ORDER BY age DESC, voter_id LIMIT 10";
        break;
      default:
        sql = "SELECT * FROM voters WHERE years_registered = " +
              std::to_string(a) + " ORDER BY age, voter_id";
        break;
    }
    ++report_->attempted;
    Clock::time_point start = Clock::now();
    Result<TablePtr> result = phase->spans.Call(
        std::string("bench.sql.") + kKindNames[kind],
        [&] { return read_db_->Query(sql); });
    double ms = MsSince(start);
    if (!report_->Check(result.status(), sql)) return;
    std::string wrong = CheckRead(kind, a, b, *result.ValueOrDie());
    if (!wrong.empty()) {
      report_->Fail(sql + ": " + wrong, /*wrong_answer=*/true);
      return;
    }
    phase->op_ms.push_back(ms);
    ++phase->good_ops;
  }

  /// Fisher-Yates with the workload's generator.
  void Shuffle(std::vector<int>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng_.NextBounded(i)]);
    }
  }

  /// "" when `t` is the right answer, else what is wrong.
  std::string CheckRead(int kind, int a, int b, const mlcs::Table& t) const {
    auto pairs = [&](const std::map<int64_t, std::pair<int64_t, int64_t>>& e)
        -> std::string {
      if (t.num_rows() != e.size()) return "group count";
      for (size_t r = 0; r < t.num_rows(); ++r) {
        auto it = e.find(CellInt(t, r, 0));
        if (it == e.end() || it->second.first != CellInt(t, r, 1) ||
            it->second.second != CellInt(t, r, 2)) {
          return "group " + std::to_string(CellInt(t, r, 0));
        }
      }
      return "";
    };
    switch (kind) {
      case kFilterAgg: {
        const auto& e = exp_.filter_agg[a][b];
        if (t.num_rows() != 1 || CellInt(t, 0, 0) != e.first ||
            (e.first > 0 && CellInt(t, 0, 1) != e.second)) {
          return "count/sum";
        }
        return "";
      }
      case kGroupBy:
        return pairs(exp_.group_by[a]);
      case kJoinGroupBy:
        return pairs(exp_.join[a]);
      case kTopN: {
        const auto& e = exp_.top.at(a);
        if (t.num_rows() != e.size()) return "row count";
        for (size_t r = 0; r < e.size(); ++r) {
          if (CellInt(t, r, 0) != e[r]) {
            return "order at row " + std::to_string(r);
          }
        }
        return "";
      }
      default: {
        const auto& e = exp_.sorted[a];
        if (t.num_rows() != e.size()) return "row count";
        if (t.num_columns() != kColumns) return "column count";
        // Results may come back encoded: compare decoded payloads.
        mlcs::ColumnPtr id_col = t.column(0)->Decode();
        if (id_col->type() != mlcs::TypeId::kInt32) return "voter_id type";
        const auto& ids = id_col->i32_data();
        for (size_t r = 0; r < e.size(); ++r) {
          if (ids[r] != e[r]) return "order at row " + std::to_string(r);
        }
        // Every cell of the row must match the generated row.
        for (size_t c = 1; c < kColumns; ++c) {
          mlcs::ColumnPtr col = t.column(c)->Decode();
          if (col->type() != mlcs::TypeId::kInt32) return "column type";
          const auto& got = col->i32_data();
          const auto& want = Col(c);
          for (size_t r = 0; r < e.size(); ++r) {
            if (got[r] != want[e[r]]) return "cell (" + std::to_string(r) +
                                             "," + std::to_string(c) + ")";
          }
        }
        return "";
      }
    }
  }

  /// One INSERT batch of kInsertRows seeded rows; returns rows inserted.
  uint64_t Insert(Phase* phase) {
    std::string sql = "INSERT INTO events VALUES ";
    for (int i = 0; i < kInsertRows; ++i) {
      uint64_t id = inserted_ + static_cast<uint64_t>(i);
      if (i > 0) sql += ", ";
      uint64_t voter = rng_.NextBounded(kVoters);
      uint64_t score = rng_.NextBounded(100000);
      uint64_t precinct = rng_.NextBounded(kPrecincts);
      char row[96];
      std::snprintf(row, sizeof(row), "(%llu, %llu, %llu.%03llu, %llu)",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(voter),
                    static_cast<unsigned long long>(score / 1000),
                    static_cast<unsigned long long>(score % 1000),
                    static_cast<unsigned long long>(precinct));
      sql += row;
    }
    ++report_->attempted;
    auto r = phase->spans.Call("bench.sql.insert",
                               [&] { return write_db_->Query(sql); });
    if (!report_->Check(r.status(), "insert batch")) return 0;
    inserted_ += kInsertRows;
    epoch_rows_ += kInsertRows;
    return kInsertRows;
  }

  /// Starts a write epoch: a fresh write-side database with an empty
  /// `events` table. Each epoch is checkpointed to a directory of its own,
  /// so every checkpoint writes the same amount however long the run is.
  Status NewEpoch() {
    write_db_ = std::make_unique<mlcs::Database>();
    epoch_rows_ = 0;
    return write_db_
        ->Query("CREATE TABLE events (id BIGINT, voter_id INTEGER, "
                "score DOUBLE, precinct_id INTEGER)")
        .status();
  }

  std::string CheckpointDir(size_t k) const {
    return dir_ + "/ckpt/" + std::to_string(k);
  }

  /// SaveTo of the open epoch, then a new epoch; `phase` null for the
  /// final checkpoint.
  bool Checkpoint(Phase* phase) {
    std::string path = CheckpointDir(checkpoints_.size());
    auto save = [&] { return write_db_->SaveTo(path); };
    Status st = phase != nullptr ? phase->spans.Call("bench.sql.checkpoint",
                                                     save)
                                 : save();
    ++report_->attempted;
    if (!report_->Check(st, "checkpoint")) return false;
    checkpoints_.push_back(epoch_rows_);
    return report_->Check(NewEpoch(), "new write epoch");
  }

  const uint64_t seed_;
  const std::string dir_;
  Report* report_;
  mlcs::Rng rng_;
  TablePtr voters_;
  TablePtr precincts_;
  std::vector<int> top_precincts_;
  std::vector<int> round_;  // kinds of the current round still to run
  std::array<std::vector<int>, kKinds> params_;  // seeded orders
  std::array<size_t, kKinds> next_param_{};
  Expected exp_;
  std::unique_ptr<mlcs::Database> read_db_;
  std::unique_ptr<mlcs::Database> write_db_;
  uint64_t inserted_ = 0;
  uint64_t epoch_rows_ = 0;            // rows inserted in the open epoch
  std::vector<uint64_t> checkpoints_;  // rows of each checkpointed epoch
  uint64_t batches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSqlMixed(const Args& args, Report* report) {
  return std::make_unique<SqlMixed>(args, report);
}

}  // namespace perfbench
