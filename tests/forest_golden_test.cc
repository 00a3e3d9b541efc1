// Bit-identity net for the tree learners: FNV-1a hashes of the pickled
// bytes and of every prediction output of fixed-seed models trained on a
// generated voter slice. The constants were recorded from the reference
// (per-row, per-tree) implementation; any change to fit or predict that
// moves a single bit of a threshold, leaf probability or averaged
// distribution fails here.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "io/voter_gen.h"
#include "ml/decision_tree.h"
#include "ml/pickle.h"
#include "ml/random_forest.h"

namespace mlcs::ml {
namespace {

constexpr size_t kTrainRows = 3000;
constexpr size_t kTotalRows = 5000;  // predict set is not a multiple of 64
constexpr size_t kPrecincts = 40;

uint64_t Fnv1a(const void* data, size_t size,
               uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
uint64_t HashVector(const std::vector<T>& v) {
  return Fnv1a(v.data(), v.size() * sizeof(T));
}

struct VoterSlice {
  Matrix train;
  Labels train_labels;
  Matrix all;
};

/// 95 integer voter features (everything but voter_id) with a sprinkle of
/// NaNs, and a three-class label drawn from the precinct lean. Labels are
/// deliberately non-contiguous so class-index remapping is exercised.
const VoterSlice& Slice() {
  static const VoterSlice slice = [] {
    io::VoterDataOptions opt;
    opt.num_voters = kTotalRows;
    opt.num_precincts = kPrecincts;
    opt.seed = 11;
    TablePtr voters = io::GenerateVoters(opt).ValueOrDie();
    std::vector<std::string> features;
    for (size_t c = 1; c < voters->num_columns(); ++c) {
      features.push_back(voters->schema().field(c).name);
    }
    Matrix x = Matrix::FromTable(*voters, features).ValueOrDie();
    for (size_t r = 0; r < x.rows(); r += 37) {
      x.Set(r, (r / 37) % 8 + 1, std::numeric_limits<double>::quiet_NaN());
    }
    Rng rng(5);
    Labels y(x.rows());
    for (size_t r = 0; r < x.rows(); ++r) {
      size_t precinct = static_cast<size_t>(x.At(r, 0));
      double share = io::PrecinctDemShare(opt.seed, precinct, kPrecincts);
      double u = rng.NextDouble();
      y[r] = u < 0.1 ? 2 : (u < 0.1 + 0.9 * share ? 7 : -3);
    }
    std::vector<uint32_t> train_rows(kTrainRows);
    for (size_t r = 0; r < kTrainRows; ++r) {
      train_rows[r] = static_cast<uint32_t>(r);
    }
    VoterSlice out;
    out.train = x.SelectRows(train_rows);
    out.train_labels.assign(y.begin(), y.begin() + kTrainRows);
    out.all = std::move(x);
    return out;
  }();
  return slice;
}

struct Hashes {
  uint64_t pickle;
  uint64_t labels;
  uint64_t confidence;
  uint64_t proba;  // all classes' PredictProba, chained in class order
};

Hashes HashModel(const Model& model) {
  const Matrix& x = Slice().all;
  Hashes h{};
  h.pickle = [&] {
    std::string bytes = pickle::Dumps(model);
    return Fnv1a(bytes.data(), bytes.size());
  }();
  h.labels = HashVector(model.Predict(x).ValueOrDie());
  h.confidence = HashVector(model.PredictConfidence(x).ValueOrDie());
  h.proba = 0xcbf29ce484222325ULL;
  for (int32_t cls : model.classes()) {
    std::vector<double> p = model.PredictProba(x, cls).ValueOrDie();
    h.proba = Fnv1a(p.data(), p.size() * sizeof(double), h.proba);
  }
  return h;
}

void ExpectHashes(const Model& model, const Hashes& want) {
  Hashes got = HashModel(model);
  EXPECT_EQ(got.pickle, want.pickle) << "pickle bytes changed";
  EXPECT_EQ(got.labels, want.labels) << "Predict output changed";
  EXPECT_EQ(got.confidence, want.confidence)
      << "PredictConfidence output changed";
  EXPECT_EQ(got.proba, want.proba) << "PredictProba output changed";

  // A model loaded back from its bytes predicts exactly the same.
  auto loaded = pickle::Loads(pickle::Dumps(model));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Hashes back = HashModel(*loaded.ValueOrDie());
  EXPECT_EQ(back.pickle, want.pickle);
  EXPECT_EQ(back.labels, want.labels);
  EXPECT_EQ(back.confidence, want.confidence);
  EXPECT_EQ(back.proba, want.proba);
}

RandomForest FitForest(bool exact, int depth) {
  RandomForestOptions opt;
  opt.n_estimators = 8;
  opt.max_depth = depth;
  opt.exact_splits = exact;
  opt.bootstrap = true;
  opt.seed = 2024;
  RandomForest forest(opt);
  Status st = forest.Fit(Slice().train, Slice().train_labels);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return forest;
}

TEST(ForestGoldenTest, HistogramDepth10) {
  ExpectHashes(FitForest(/*exact=*/false, 10),
               {0xfe6145a3ca397d22ULL, 0xa7abbae4334b069dULL,
                0x4cf2b8314b584a5bULL, 0x8402ba0729d28248ULL});
}

TEST(ForestGoldenTest, HistogramDepth16) {
  ExpectHashes(FitForest(/*exact=*/false, 16),
               {0x631c3a3ef112dc93ULL, 0x2c84f85dc5d6049dULL,
                0xeed4f67651d6ae21ULL, 0x51fe086da023a07dULL});
}

TEST(ForestGoldenTest, ExactDepth10) {
  ExpectHashes(FitForest(/*exact=*/true, 10),
               {0x21cd26aa5beccc37ULL, 0x82374caf5b6f5231ULL,
                0xe8a981af29b01baaULL, 0x03bc159ed47f70c9ULL});
}

TEST(ForestGoldenTest, ExactDepth16) {
  ExpectHashes(FitForest(/*exact=*/true, 16),
               {0xaecea7915463d21fULL, 0xabfde1cfc9ec6fc0ULL,
                0xefa557455d43f733ULL, 0x2b816585512975c7ULL});
}

TEST(ForestGoldenTest, SingleDecisionTree) {
  DecisionTreeOptions opt;
  opt.max_depth = 12;
  opt.seed = 99;
  DecisionTree tree(opt);
  ASSERT_TRUE(tree.Fit(Slice().train, Slice().train_labels).ok());
  ExpectHashes(tree,
               {0x8c852c32084eb2eaULL, 0x1afe38b4ba062020ULL,
                0xec87c07c09f7a762ULL, 0xdf62c08e91628d66ULL});
}

}  // namespace
}  // namespace mlcs::ml
