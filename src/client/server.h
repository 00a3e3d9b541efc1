#ifndef MLCS_CLIENT_SERVER_H_
#define MLCS_CLIENT_SERVER_H_

#include "serve/inference_server.h"
#include "sql/database.h"

namespace mlcs::client {

/// A TCP table server fronting a Database — the "separate database server
/// + socket connection" deployment the paper benchmarks against. It is the
/// one server (serve::InferenceServer) without a model store: it answers
/// SQL and export frames, and a predict frame answers kModelNotFound.
class TableServer : public serve::InferenceServer {
 public:
  explicit TableServer(Database* db) : serve::InferenceServer(db, nullptr) {}
};

}  // namespace mlcs::client

#endif  // MLCS_CLIENT_SERVER_H_
