#ifndef MLCS_SERVE_SERVE_PROTOCOL_H_
#define MLCS_SERVE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "client/protocol.h"
#include "common/byte_buffer.h"
#include "common/result.h"
#include "ml/matrix.h"

namespace mlcs::serve {

/// Feature payload layout on the wire. The contrast mirrors the result-set
/// protocols in client/protocol.h, applied to the *request* direction:
///
///  - kRowMajor:  rows interleaved (f0,f1,...,f0,f1,...) — the
///                one-record-per-message shape a conventional RPC client
///                produces. The server must transpose into column-major
///                before predicting (the per-cell cost Figure 1's socket
///                bars pay).
///  - kColumnar:  each feature's values contiguous — matches ml::Matrix
///                (and the column store) exactly, so decode is a straight
///                per-column memcpy. The serving-side analogue of the
///                zero-copy column handoff.
enum class Layout : uint8_t { kRowMajor = 0, kColumnar = 1 };

const char* LayoutToString(Layout layout);

/// Response codes. Degradation is explicit: an overloaded server answers
/// `kOverloaded` immediately instead of queueing without bound.
enum class ServeCode : uint8_t {
  kOk = 0,
  kBadRequest = 1,
  kModelNotFound = 2,
  kOverloaded = 3,
  kDeadlineExceeded = 4,
  kShuttingDown = 5,
  kInternalError = 6,
};

const char* ServeCodeToString(ServeCode code);

/// Maps a non-OK response code (plus its message) onto a Status for
/// callers that do not need to distinguish the serving-specific codes.
Status ServeCodeToStatus(ServeCode code, const std::string& message);

/// Every frame is a u32 body length, then the body; the body's first byte
/// is its kind, and each request kind has one answer kind (DESIGN.md §17).
enum class FrameKind : uint8_t {
  kPredict = 'P',
  kPredictResponse = 'R',
  kQuery = 'q',
  kQueryResponse = 'Q',
  kMetrics = 'm',
  kTrace = 't',
  kExportResponse = 'E',
};

/// Request sanity bounds; a request frame declaring more is rejected with
/// kBadRequest before any allocation happens.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;
inline constexpr uint32_t kMaxRequestRows = 1u << 20;
inline constexpr uint32_t kMaxRequestFeatures = 4096;

/// One predict call: label `features` with the stored model `model_name`.
/// In memory the features are always column-major (ml::Matrix); Layout
/// only governs the wire form.
struct PredictRequest {
  uint64_t request_id = 0;
  /// Milliseconds the client is willing to wait measured from arrival at
  /// the server; 0 means no deadline. Expired requests are answered with
  /// kDeadlineExceeded instead of being predicted.
  uint32_t deadline_ms = 0;
  std::string model_name;
  ml::Matrix features;
};

struct PredictResponse {
  uint64_t request_id = 0;
  ServeCode code = ServeCode::kOk;
  std::vector<int32_t> labels;  // one per feature row when code == kOk
  std::string message;          // human-readable detail when code != kOk
};

/// Encodes the request body (the content of one frame, excluding the
/// u32 length prefix) in the given layout.
void EncodePredictRequest(const PredictRequest& request, Layout layout,
                          ByteWriter* out);

/// Decodes a request body. Row-major payloads are transposed into the
/// column-major Matrix here — that transpose is the measured layout cost.
Result<PredictRequest> DecodePredictRequest(ByteReader* in);

/// Best-effort extraction of the request id from a (possibly malformed)
/// request body so an error response can still be correlated; 0 when the
/// body is too short to contain one.
uint64_t PeekRequestId(const uint8_t* body, size_t size);

void EncodePredictResponse(const PredictResponse& response, ByteWriter* out);
Result<PredictResponse> DecodePredictResponse(ByteReader* in);

/// SQL on the same framing: kind 'q', a client::WireProtocol byte, then
/// the SQL text (the rest of the frame). Answered with a 'Q' frame: ok
/// flag 1 + the client/protocol.h result set, or ok flag 0 + a message.
struct QueryRequest {
  client::WireProtocol protocol = client::WireProtocol::kColumnar;
  std::string sql;
};

void EncodeQueryRequest(const std::string& sql, client::WireProtocol protocol,
                        ByteWriter* out);
Result<QueryRequest> DecodeQueryRequest(ByteReader* in);

Status EncodeQueryResponse(const Table& table, client::WireProtocol protocol,
                           ByteWriter* out);
void EncodeQueryError(const std::string& message, ByteWriter* out);
/// The result set, or the server-side error as a Status.
Result<TablePtr> DecodeQueryResponse(ByteReader* in,
                                     client::WireProtocol protocol);

/// Observability sideband (DESIGN.md §15): kind 'm' requests a Prometheus
/// text snapshot of the global registry, kind 't' (+ u64 trace id, 0 = all
/// retained) a Chrome trace_event JSON export. Both are answered inline by
/// the I/O thread with an 'E' frame — ok flag + text — so a scraper never
/// queues behind inference or SQL.
struct ExportRequest {
  uint8_t kind = 0;       // 'm' or 't'
  uint64_t trace_id = 0;  // 't' only
};

void EncodeMetricsRequest(ByteWriter* out);
void EncodeTraceExportRequest(uint64_t trace_id, ByteWriter* out);
Result<ExportRequest> DecodeExportRequest(ByteReader* in);

void EncodeExportResponse(bool ok, const std::string& text, ByteWriter* out);
/// The exported text, or the server-side error as a Status.
Result<std::string> DecodeExportResponse(ByteReader* in);

/// The u32 length prefix for a response body of `body_bytes`. Responses
/// are not held to kMaxFrameBytes, but one larger than a u32 can declare
/// is an error here, so the server answers with an error frame instead of
/// sending a wrapped length.
Result<uint32_t> ResponseFrameLength(size_t body_bytes);

/// Blocking client transport: a u32 length prefix followed by the body.
/// ReadFrame accepts any length a u32 declares (result sets may exceed the
/// request cap).
Status WriteFrame(int fd, const ByteWriter& body);
Result<std::vector<uint8_t>> ReadFrame(int fd);

}  // namespace mlcs::serve

#endif  // MLCS_SERVE_SERVE_PROTOCOL_H_
