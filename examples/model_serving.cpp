/// Online inference serving (the request-path complement to the paper's
/// in-database training): a model trained and stored as a table row is
/// served over the network by the micro-batching InferenceServer, and a
/// client predicts against it with the columnar wire layout.
///
/// The walk-through shows the serving contract end to end — normal
/// predictions, what an unknown model answers, and how explicit
/// backpressure (`overloaded`) looks from the client side.
///
/// Usage: ./build/examples/model_serving
#include <cstdio>
#include <string>
#include <vector>

#include "client/client.h"
#include "common/random.h"
#include "ml/logistic_regression.h"
#include "modelstore/model_store.h"
#include "serve/inference_server.h"
#include "sql/database.h"

namespace {

constexpr size_t kFeatures = 4;

mlcs::ml::Matrix MakeGaussianRows(size_t n, int cls, uint64_t seed) {
  mlcs::Rng rng(seed);
  mlcs::ml::Matrix x(n, kFeatures);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < kFeatures; ++c) {
      x.Set(r, c, rng.NextGaussian() + cls * 2.0);
    }
  }
  return x;
}

}  // namespace

int main() {
  using namespace mlcs;

  // 1. Train a classifier and store it as a row in the model table —
  //    exactly what the training examples do; serving starts from there.
  Database db;
  modelstore::ModelStore store(&db);
  if (!store.Init().ok()) {
    std::fprintf(stderr, "model store init failed\n");
    return 1;
  }
  {
    ml::Matrix x(256, kFeatures);
    ml::Labels y(256);
    Rng rng(11);
    for (size_t r = 0; r < 256; ++r) {
      int cls = static_cast<int>(r % 2);
      for (size_t c = 0; c < kFeatures; ++c) {
        x.Set(r, c, rng.NextGaussian() + cls * 2.0);
      }
      y[r] = cls;
    }
    ml::LogisticRegression model;
    if (!model.Fit(x, y).ok() ||
        !store.SaveModel("churn_lr", model, 0.97, 256).ok()) {
      std::fprintf(stderr, "train/save failed\n");
      return 1;
    }
  }
  std::printf("trained and stored model 'churn_lr'\n");

  // 2. Start the inference server on an ephemeral loopback port. Requests
  //    arriving within the linger window coalesce into one vectorized
  //    Predict call; the bounded queue turns overload into explicit
  //    `overloaded` answers instead of unbounded latency.
  serve::InferenceServer server(&db, &store);
  if (!server.Start(0).ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }
  std::printf("inference server listening on 127.0.0.1:%u\n", server.port());

  // 3. Predict over the columnar layout (the default — contiguous
  //    per-column doubles, decoded server-side by bulk copy).
  client::Client client;
  if (!client.Connect("127.0.0.1", server.port()).ok()) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  ml::Matrix class1 = MakeGaussianRows(5, 1, 21);
  auto labels = client.Predict("churn_lr", class1);
  if (!labels.ok()) {
    std::fprintf(stderr, "predict failed: %s\n",
                 labels.status().ToString().c_str());
    return 1;
  }
  std::printf("predicted labels for 5 class-1 rows:");
  for (int32_t l : labels.ValueOrDie()) std::printf(" %d", l);
  std::printf("\n");

  // 4. The error surface is part of the protocol: an unknown model is a
  //    `model_not_found` answer, not a dropped connection.
  auto missing = client.Call("no_such_model", class1);
  if (!missing.ok()) {
    std::fprintf(stderr, "call failed: %s\n",
                 missing.status().ToString().c_str());
    return 1;
  }
  std::printf("asking for an unknown model answers: %s (%s)\n",
              serve::ServeCodeToString(missing.ValueOrDie().code),
              missing.ValueOrDie().message.c_str());

  server.Stop();
  auto stats = server.stats();
  std::printf("served %llu ok responses in %llu vectorized batches\n",
              static_cast<unsigned long long>(stats.responses_ok),
              static_cast<unsigned long long>(stats.batches_executed));
  std::printf("model_serving finished OK\n");
  return 0;
}
