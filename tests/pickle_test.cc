#include "ml/pickle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"

namespace mlcs::ml {
namespace {

void MakeBlobs(size_t n, Matrix* x, Labels* y) {
  Rng rng(17);
  *x = Matrix(n, 2);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    int32_t cls = static_cast<int32_t>(rng.NextBounded(2));
    x->Set(i, 0, cls * 4.0 + rng.NextGaussian());
    x->Set(i, 1, cls * 4.0 + rng.NextGaussian());
    (*y)[i] = cls;
  }
}

class PickleRoundTripTest : public ::testing::TestWithParam<ModelType> {};

/// Property: dumps → loads preserves type, classes and all predictions,
/// for every model family — the paper's model-BLOB storage invariant.
TEST_P(PickleRoundTripTest, DumpsLoadsPreservesPredictions) {
  Matrix x;
  Labels y;
  MakeBlobs(300, &x, &y);
  ModelPtr model;
  switch (GetParam()) {
    case ModelType::kDecisionTree:
      model = std::make_shared<DecisionTree>();
      break;
    case ModelType::kRandomForest: {
      RandomForestOptions opt;
      opt.n_estimators = 4;
      model = std::make_shared<RandomForest>(opt);
      break;
    }
    case ModelType::kLogisticRegression:
      model = std::make_shared<LogisticRegression>();
      break;
    case ModelType::kNaiveBayes:
      model = std::make_shared<NaiveBayes>();
      break;
    case ModelType::kKnn:
      model = std::make_shared<Knn>();
      break;
  }
  ASSERT_TRUE(model->Fit(x, y).ok());

  std::string blob = pickle::Dumps(*model);
  EXPECT_GT(blob.size(), 8u);
  ModelPtr back = pickle::Loads(blob).ValueOrDie();
  EXPECT_EQ(back->type(), model->type());
  EXPECT_EQ(back->classes(), model->classes());
  EXPECT_EQ(back->Predict(x).ValueOrDie(), model->Predict(x).ValueOrDie());
  auto pa = model->PredictConfidence(x).ValueOrDie();
  auto pb = back->PredictConfidence(x).ValueOrDie();
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_NEAR(pa[i], pb[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllModels, PickleRoundTripTest,
                         ::testing::Values(ModelType::kDecisionTree,
                                           ModelType::kRandomForest,
                                           ModelType::kLogisticRegression,
                                           ModelType::kNaiveBayes,
                                           ModelType::kKnn));

TEST(PickleTest, RejectsGarbage) {
  EXPECT_FALSE(pickle::Loads("not a model").ok());
  EXPECT_FALSE(pickle::Loads("").ok());
}

TEST(PickleTest, RejectsUnknownTypeTag) {
  ByteWriter w;
  w.WriteU32(0x4D4C504B);
  w.WriteU8(0x7E);
  auto r = pickle::Loads(std::string(
      reinterpret_cast<const char*>(w.data().data()), w.size()));
  EXPECT_FALSE(r.ok());
}

TEST(PickleTest, RejectsTruncatedPayload) {
  Matrix x;
  Labels y;
  MakeBlobs(100, &x, &y);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  std::string blob = pickle::Dumps(tree);
  std::string truncated = blob.substr(0, blob.size() / 2);
  EXPECT_FALSE(pickle::Loads(truncated).ok());
}

TEST(PickleTest, DoubleRoundTripIsStable) {
  Matrix x;
  Labels y;
  MakeBlobs(100, &x, &y);
  NaiveBayes nb;
  ASSERT_TRUE(nb.Fit(x, y).ok());
  std::string once = pickle::Dumps(nb);
  ModelPtr back = pickle::Loads(once).ValueOrDie();
  std::string twice = pickle::Dumps(*back);
  EXPECT_EQ(once, twice);
}

// -- Load-time invariants of tree BLOBs ------------------------------------
// Model BLOBs arrive from SQL (INSERTed rows fed to predict UDFs), so each
// invariant the flat predict kernel relies on must come back as a
// ParseError instead of an out-of-bounds read or an endless walk.

constexpr uint32_t kPickleMagic = 0x4D4C504B;

struct RawNode {
  int32_t feature = -1;
  double threshold = 0;
  uint32_t left = 0;
  uint32_t right = 0;
  std::vector<double> probs;
};

RawNode Split(int32_t feature, uint32_t left, uint32_t right) {
  RawNode n;
  n.feature = feature;
  n.threshold = 0.5;
  n.left = left;
  n.right = right;
  return n;
}

RawNode Leaf(std::vector<double> probs) {
  RawNode n;
  n.probs = std::move(probs);
  return n;
}

/// A DecisionTree body in the pickle layout, node list as given.
void WriteTreeBody(ByteWriter* w, const std::vector<int32_t>& classes,
                   uint64_t num_features, const std::vector<RawNode>& nodes) {
  w->WriteI32(4);        // max_depth
  w->WriteVarint(2);     // min_samples_split
  w->WriteVarint(1);     // min_samples_leaf
  w->WriteVarint(0);     // max_features
  w->WriteI32(32);       // num_bins
  w->WriteBool(false);   // exact_splits
  w->WriteU64(42);       // seed
  w->WriteVarint(classes.size());
  for (int32_t c : classes) w->WriteI32(c);
  w->WriteVarint(num_features);
  w->WriteVarint(0);  // importances
  w->WriteVarint(nodes.size());
  for (const RawNode& n : nodes) {
    w->WriteI32(n.feature);
    w->WriteDouble(n.threshold);
    w->WriteU32(n.left);
    w->WriteU32(n.right);
    w->WriteVarint(n.probs.size());
    for (double p : n.probs) w->WriteDouble(p);
  }
}

std::string TreeBlob(const std::vector<RawNode>& nodes,
                     uint64_t num_features = 2) {
  ByteWriter w;
  w.WriteU32(kPickleMagic);
  w.WriteU8(static_cast<uint8_t>(ModelType::kDecisionTree));
  WriteTreeBody(&w, {0, 1}, num_features, nodes);
  return w.TakeString();
}

/// A stump: x0 <= 0.5 → class 0, else class 1.
std::vector<RawNode> Stump() {
  return {Split(0, 1, 2), Leaf({1, 0}), Leaf({0, 1})};
}

/// Forest header with the given tree bodies appended verbatim.
std::string ForestBlob(const std::vector<int32_t>& classes,
                       uint64_t num_features,
                       const std::vector<std::string>& tree_bodies) {
  ByteWriter w;
  w.WriteU32(kPickleMagic);
  w.WriteU8(static_cast<uint8_t>(ModelType::kRandomForest));
  w.WriteI32(static_cast<int32_t>(tree_bodies.size()));  // n_estimators
  w.WriteI32(4);                                         // max_depth
  w.WriteVarint(2);
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteBool(true);  // bootstrap
  w.WriteI32(32);
  w.WriteBool(false);
  w.WriteBool(true);  // parallel_fit
  w.WriteU64(42);
  w.WriteVarint(classes.size());
  for (int32_t c : classes) w.WriteI32(c);
  w.WriteVarint(num_features);
  w.WriteVarint(tree_bodies.size());
  for (const std::string& body : tree_bodies) {
    w.WriteRaw(body.data(), body.size());
  }
  return w.TakeString();
}

std::string TreeBody(const std::vector<int32_t>& classes,
                     uint64_t num_features,
                     const std::vector<RawNode>& nodes) {
  ByteWriter w;
  WriteTreeBody(&w, classes, num_features, nodes);
  return w.TakeString();
}

void ExpectParseError(const std::string& blob) {
  auto r = pickle::Loads(blob);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError)
      << r.status().ToString();
}

TEST(PickleTreeInvariantTest, HandBuiltStumpLoadsAndPredicts) {
  // The helpers write a well-formed BLOB; every rejection below changes
  // exactly one thing about it.
  Matrix x(2, 2);
  x.Set(0, 0, 0.0);
  x.Set(1, 0, 1.0);
  ModelPtr tree = pickle::Loads(TreeBlob(Stump())).ValueOrDie();
  EXPECT_EQ(tree->Predict(x).ValueOrDie(), (Labels{0, 1}));
  ModelPtr forest =
      pickle::Loads(ForestBlob({0, 1}, 2,
                               {TreeBody({0, 1}, 2, Stump()),
                                TreeBody({0, 1}, 2, Stump())}))
          .ValueOrDie();
  EXPECT_EQ(forest->Predict(x).ValueOrDie(), (Labels{0, 1}));
}

TEST(PickleTreeInvariantTest, RejectsSplitFeatureOutOfRange) {
  std::vector<RawNode> nodes = Stump();
  nodes[0].feature = 2;  // the model has features 0 and 1
  ExpectParseError(TreeBlob(nodes));
}

TEST(PickleTreeInvariantTest, RejectsLeafDistributionSizeMismatch) {
  std::vector<RawNode> nodes = Stump();
  nodes[2].probs = {1.0};  // two classes, one probability
  ExpectParseError(TreeBlob(nodes));
}

TEST(PickleTreeInvariantTest, RejectsChildNotAfterParent) {
  // A self-loop (the walk would never end) and a back edge to the root.
  std::vector<RawNode> self_loop = Stump();
  self_loop[0].left = 0;
  ExpectParseError(TreeBlob(self_loop));
  std::vector<RawNode> back_edge = {Split(0, 1, 2), Split(1, 0, 3),
                                    Leaf({1, 0}), Leaf({0, 1})};
  ExpectParseError(TreeBlob(back_edge));
}

TEST(PickleTreeInvariantTest, RejectsEmptyNodeArrayOnFittedTree) {
  ExpectParseError(TreeBlob({}));
}

TEST(PickleTreeInvariantTest, RejectsForestTreeMismatch) {
  ExpectParseError(ForestBlob({0, 1}, 2, {TreeBody({0, 2}, 2, Stump())}));
  ExpectParseError(ForestBlob({0, 1}, 2, {TreeBody({0, 1}, 3, Stump())}));
}

TEST(PickleTreeInvariantTest, RejectsCountsBeyondPayload) {
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  auto tree_with = [](uint64_t classes, uint64_t importances,
                      uint64_t nodes) {
    ByteWriter w;
    w.WriteU32(kPickleMagic);
    w.WriteU8(static_cast<uint8_t>(ModelType::kDecisionTree));
    w.WriteI32(4);
    w.WriteVarint(2);
    w.WriteVarint(1);
    w.WriteVarint(0);
    w.WriteI32(32);
    w.WriteBool(false);
    w.WriteU64(42);
    w.WriteVarint(classes);
    for (uint64_t c = 0; c < std::min<uint64_t>(classes, 2); ++c) {
      w.WriteI32(static_cast<int32_t>(c));
    }
    w.WriteVarint(2);  // num_features
    w.WriteVarint(importances);
    w.WriteVarint(nodes);
    return w.TakeString();
  };
  ExpectParseError(tree_with(kHuge, 0, 0));
  ExpectParseError(tree_with(2, kHuge, 0));
  ExpectParseError(tree_with(2, 0, kHuge));

  // Forest-level counts: classes, then trees.
  ByteWriter w;
  w.WriteU32(kPickleMagic);
  w.WriteU8(static_cast<uint8_t>(ModelType::kRandomForest));
  w.WriteI32(8);
  w.WriteI32(4);
  w.WriteVarint(2);
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteBool(true);
  w.WriteI32(32);
  w.WriteBool(false);
  w.WriteBool(true);
  w.WriteU64(42);
  std::string header = w.TakeString();
  ByteWriter classes;
  classes.WriteVarint(kHuge);
  ExpectParseError(header + classes.TakeString());
  ByteWriter trees;
  trees.WriteVarint(2);
  trees.WriteI32(0);
  trees.WriteI32(1);
  trees.WriteVarint(2);  // num_features
  trees.WriteVarint(kHuge);
  ExpectParseError(header + trees.TakeString());
}

}  // namespace
}  // namespace mlcs::ml
