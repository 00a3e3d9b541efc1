#ifndef MLCS_CLIENT_CLIENT_H_
#define MLCS_CLIENT_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "client/protocol.h"
#include "common/result.h"
#include "ml/matrix.h"
#include "serve/serve_protocol.h"

namespace mlcs::client {

struct InferenceCallOptions {
  /// Wire layout for the feature payload (see serve::Layout).
  serve::Layout layout = serve::Layout::kColumnar;
  /// Server-side deadline in milliseconds; 0 disables it.
  uint32_t deadline_ms = 0;
};

/// TCP client for the one server (serve::InferenceServer; TableServer is
/// the same server without models) — the "analysis tool connects to the
/// database over a socket" side of the benchmark. One connection carries
/// SQL, predict and export frames on one framing (serve/serve_protocol.h).
///
/// Query(), Call() and the Fetch*() exports are serial: they wait for
/// their own answer. Predicts also pipeline: Send() can be called
/// repeatedly without waiting, and Receive() collects responses in
/// whatever order the server finishes them (the request_id correlates the
/// two) — that pipelining is what gives the server's micro-batcher
/// concurrent requests to coalesce.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Executes SQL on the server and materializes the result locally; the
  /// row-to-column conversion IS the measured client overhead.
  Result<TablePtr> Query(const std::string& sql, WireProtocol protocol);

  /// Bytes received for the last Query() (for throughput reporting).
  size_t last_response_bytes() const { return last_response_bytes_; }

  /// Ships one predict request without waiting for the response; returns
  /// the request id Receive()'s response will carry.
  Result<uint64_t> Send(const std::string& model_name,
                        const ml::Matrix& features,
                        const InferenceCallOptions& options = {});

  /// Blocks for the next response frame, whichever request it answers.
  Result<serve::PredictResponse> Receive();

  /// Send + receive-until-matching-id. Out-of-order responses for *other*
  /// ids are an error here — Call() is for strictly serial use; pipelined
  /// callers pair Send() with their own Receive() loop.
  Result<serve::PredictResponse> Call(
      const std::string& model_name, const ml::Matrix& features,
      const InferenceCallOptions& options = {});

  /// Call(), then either the labels or the response code as a Status.
  Result<std::vector<int32_t>> Predict(
      const std::string& model_name, const ml::Matrix& features,
      const InferenceCallOptions& options = {});

  /// Observability sideband: a Prometheus text snapshot of the server's
  /// metrics registry, or the Chrome trace_event JSON of one recorded
  /// trace (0 = every retained trace).
  Result<std::string> FetchMetricsText();
  Result<std::string> FetchChromeTrace(uint64_t trace_id);

 private:
  /// Sends one request frame and reads the next frame back.
  Result<std::vector<uint8_t>> RoundTrip(const ByteWriter& body);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  size_t last_response_bytes_ = 0;
};

}  // namespace mlcs::client

#endif  // MLCS_CLIENT_CLIENT_H_
