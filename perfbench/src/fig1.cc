// Figure-1 workloads: the paper's voter-classification pipeline.
//
//   fig1_indb      250 k voters x 96 columns, 2 751 precincts, loaded once;
//                  each operation is one RunInDatabase with 8 trees of
//                  depth 10 (the paper's in-database bar). Fit and predict
//                  inside UDFs dominate.
//   fig1_channels  the same kind of data (100 k voters, so that a run holds
//                  several passes) through all eight Figure-1 channels with
//                  a 1-tree, depth-4 model, so loading and wrangling (the
//                  gray sub-bar) dominate. One operation is one pass over
//                  the eight channels; the socket channels query a
//                  TableServer on loopback that runs the wrangling join.
//
// Output check: precinct_predictions is identical on every iteration
// (fig1_indb) and across the eight channels of every pass (fig1_channels).
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "client/server.h"
#include "io/csv.h"
#include "io/h5b.h"
#include "io/npy.h"
#include "io/voter_gen.h"
#include "pipeline/voter_pipeline.h"
#include "sql/database.h"

namespace perfbench {
namespace {

using mlcs::Result;
using mlcs::Status;
using mlcs::pipeline::PipelineConfig;
using mlcs::pipeline::PipelineResult;

PipelineConfig Fig1Config(size_t voters, uint64_t seed, int trees,
                          int depth) {
  PipelineConfig config;
  config.data.num_voters = voters;
  config.data.num_columns = 96;
  config.data.num_precincts = 2751;
  config.data.seed = seed;
  config.seed = seed;
  config.n_estimators = trees;
  config.max_depth = depth;
  return config;
}

/// Size of the classifier BLOB the last in-db run stored (read from the
/// catalog, not by a query, so it adds nothing to the traced phase).
double ModelBytes(mlcs::Database* db) {
  auto models = db->catalog().ReadTable("voter_models");
  if (!models.ok() || models.ValueOrDie()->num_rows() == 0) return 0;
  auto v = models.ValueOrDie()->GetValue(0, 0);
  return v.ok() ? static_cast<double>(v.ValueOrDie().blob_value().size())
                : 0;
}

/// Keeps the first precinct_predictions seen as the reference and checks
/// every later one against it.
class PredictionCheck {
 public:
  explicit PredictionCheck(Report* report) : report_(report) {}

  void Check(const PipelineResult& r) {
    if (r.precinct_predictions == nullptr) {
      report_->Fail(r.method + ": no precinct predictions", true);
      return;
    }
    if (reference_ == nullptr) {
      reference_ = r.precinct_predictions;
      return;
    }
    if (!reference_->Equals(*r.precinct_predictions)) {
      report_->Fail(r.method + ": precinct predictions differ", true);
    }
  }

 private:
  Report* report_;
  mlcs::TablePtr reference_;
};

class Fig1InDb : public Workload {
 public:
  Fig1InDb(const Args& args, Report* report)
      : config_(Fig1Config(250000, args.seed, 8, 10)),
        report_(report),
        check_(report) {}

  Status Setup() override {
    db_.reset();
    db_ = std::make_unique<mlcs::Database>();
    return mlcs::pipeline::LoadVoterData(db_.get(), config_);
  }

  void Measure(double seconds, Phase* phase) override {
    Clock::time_point start = Clock::now();
    do {
      ++report_->attempted;
      Clock::time_point op_start = Clock::now();
      auto r = phase->spans.Call("bench.fig1.in_db", [&] {
        return mlcs::pipeline::RunInDatabase(db_.get(), config_);
      });
      double ms = MsSince(op_start);
      if (!report_->Check(r.status(), "RunInDatabase")) continue;
      const PipelineResult& result = r.ValueOrDie();
      check_.Check(result);
      phase->op_ms.push_back(ms);
      ++phase->good_ops;
      phase->samples["ml.train_s"].push_back(result.train_seconds);
      phase->samples["ml.predict_s"].push_back(result.predict_seconds);
      phase->samples["pipeline.wrangle_s"].push_back(
          result.load_wrangle_seconds);
    } while (MsSince(start) < seconds * 1e3);
    phase->seconds += MsSince(start) / 1e3;
    phase->layers["ml.model_bytes"] = ModelBytes(db_.get());
  }

 private:
  const PipelineConfig config_;
  Report* report_;
  PredictionCheck check_;
  std::unique_ptr<mlcs::Database> db_;
};

class Fig1Channels : public Workload {
 public:
  Fig1Channels(const Args& args, Report* report)
      : config_(Fig1Config(100000, args.seed, 1, 4)),
        dir_(args.scratch + "/fig1_channels"),
        report_(report) {}

  ~Fig1Channels() override { StopServer(); }

  Status Setup() override {
    StopServer();
    db_.reset();
    server_db_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_ + "/voters_npy", ec);
    std::filesystem::create_directories(dir_ + "/precincts_npy", ec);
    if (ec) return Status::IoError("cannot create " + dir_);

    MLCS_ASSIGN_OR_RETURN(mlcs::TablePtr voters,
                          mlcs::io::GenerateVoters(config_.data));
    MLCS_ASSIGN_OR_RETURN(mlcs::TablePtr precincts,
                          mlcs::io::GeneratePrecincts(config_.data));
    // Stage the external channels' inputs (the paper's files pre-exist).
    MLCS_RETURN_IF_ERROR(mlcs::io::WriteCsv(*voters, dir_ + "/voters.csv"));
    MLCS_RETURN_IF_ERROR(
        mlcs::io::WriteCsv(*precincts, dir_ + "/precincts.csv"));
    MLCS_RETURN_IF_ERROR(
        mlcs::io::SaveTableAsNpyDir(*voters, dir_ + "/voters_npy"));
    MLCS_RETURN_IF_ERROR(
        mlcs::io::SaveTableAsNpyDir(*precincts, dir_ + "/precincts_npy"));
    MLCS_RETURN_IF_ERROR(mlcs::io::WriteH5b(*voters, dir_ + "/voters.h5b"));
    MLCS_RETURN_IF_ERROR(
        mlcs::io::WriteH5b(*precincts, dir_ + "/precincts.h5b"));

    // In-process databases (in-db and sqlite-like channels) and the
    // server's database share the generated, read-only tables.
    db_ = std::make_unique<mlcs::Database>();
    server_db_ = std::make_unique<mlcs::Database>();
    for (mlcs::Database* db : {db_.get(), server_db_.get()}) {
      MLCS_RETURN_IF_ERROR(db->catalog().CreateTable("voters", voters, true));
      MLCS_RETURN_IF_ERROR(
          db->catalog().CreateTable("precincts", precincts, true));
    }
    MLCS_RETURN_IF_ERROR(
        mlcs::pipeline::RegisterVoterUdfs(server_db_.get()));
    server_ = std::make_unique<mlcs::client::TableServer>(server_db_.get());
    return server_->Start(0);
  }

  void Measure(double seconds, Phase* phase) override {
    using mlcs::client::WireProtocol;
    // One entry per Figure-1 channel: per-layer metric name and the run.
    struct Channel {
      const char* metric;
      std::function<Result<PipelineResult>()> run;
    };
    const std::string d = dir_ + "/";
    uint16_t port = server_->port();
    std::vector<Channel> channels = {
        {"pipeline.wrangle_s",
         [&] { return mlcs::pipeline::RunInDatabase(db_.get(), config_); }},
        {"io.npy_s",
         [&] {
           return mlcs::pipeline::RunFromNpyDir(d + "voters_npy",
                                                d + "precincts_npy", config_);
         }},
        {"io.h5b_s",
         [&] {
           return mlcs::pipeline::RunFromH5b(d + "voters.h5b",
                                             d + "precincts.h5b", config_);
         }},
        {"io.csv_s",
         [&] {
           return mlcs::pipeline::RunFromCsv(d + "voters.csv",
                                             d + "precincts.csv", config_);
         }},
        {"client.pg-text_s",
         [&] {
           return mlcs::pipeline::RunFromSocket("127.0.0.1", port,
                                                WireProtocol::kPgText,
                                                config_);
         }},
        {"client.mysql-binary_s",
         [&] {
           return mlcs::pipeline::RunFromSocket("127.0.0.1", port,
                                                WireProtocol::kMyBinary,
                                                config_);
         }},
        {"client.columnar_s",
         [&] {
           return mlcs::pipeline::RunFromSocket("127.0.0.1", port,
                                                WireProtocol::kColumnar,
                                                config_);
         }},
        {"io.sqlite_like_s",
         [&] { return mlcs::pipeline::RunSqliteLike(db_.get(), config_); }},
    };

    Clock::time_point start = Clock::now();
    do {
      Clock::time_point pass_start = Clock::now();
      bool pass_ok = true;
      for (const Channel& ch : channels) {
        ++report_->attempted;
        auto r = phase->spans.Call(std::string("bench.channel.") + ch.metric,
                                   ch.run);
        if (!report_->Check(r.status(), ch.metric)) {
          pass_ok = false;
          continue;
        }
        const PipelineResult& result = r.ValueOrDie();
        uint64_t wrong_before = report_->wrong;
        check_.Check(result);
        if (report_->wrong != wrong_before) pass_ok = false;
        phase->samples[ch.metric].push_back(result.load_wrangle_seconds);
        phase->samples["ml.train_s"].push_back(result.train_seconds);
        phase->samples["ml.predict_s"].push_back(result.predict_seconds);
      }
      if (!pass_ok) continue;
      phase->op_ms.push_back(MsSince(pass_start));
      ++phase->good_ops;
    } while (MsSince(start) < seconds * 1e3);
    phase->seconds += MsSince(start) / 1e3;
    phase->layers["ml.model_bytes"] = ModelBytes(db_.get());
  }

 private:
  void StopServer() {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
  }

  const PipelineConfig config_;
  const std::string dir_;
  Report* report_;
  PredictionCheck check_{report_};  // across channels and passes
  std::unique_ptr<mlcs::Database> db_;
  std::unique_ptr<mlcs::Database> server_db_;
  std::unique_ptr<mlcs::client::TableServer> server_;
};

}  // namespace

std::unique_ptr<Workload> MakeFig1InDb(const Args& args, Report* report) {
  return std::make_unique<Fig1InDb>(args, report);
}

std::unique_ptr<Workload> MakeFig1Channels(const Args& args,
                                           Report* report) {
  return std::make_unique<Fig1Channels>(args, report);
}

}  // namespace perfbench
