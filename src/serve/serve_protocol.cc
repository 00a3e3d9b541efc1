#include "serve/serve_protocol.h"

#include <sys/socket.h>

#include <cerrno>
#include <limits>

namespace mlcs::serve {

namespace {

void WriteKind(FrameKind kind, ByteWriter* out) {
  out->WriteU8(static_cast<uint8_t>(kind));
}

Status ExpectKind(FrameKind kind, ByteReader* in) {
  MLCS_ASSIGN_OR_RETURN(uint8_t byte, in->ReadU8());
  if (byte != static_cast<uint8_t>(kind)) {
    return Status::ParseError("expected frame kind '" +
                              std::string(1, static_cast<char>(kind)) +
                              "', got byte " + std::to_string(byte));
  }
  return Status::OK();
}

/// Reads exactly `size` bytes; false on EOF or error.
bool ReadExact(int fd, void* buffer, size_t size) {
  uint8_t* p = static_cast<uint8_t*>(buffer);
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n == 0) return false;  // orderly shutdown
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

/// Writes all `size` bytes; false on error.
bool WriteAll(int fd, const void* buffer, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(buffer);
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

const char* LayoutToString(Layout layout) {
  switch (layout) {
    case Layout::kRowMajor:
      return "row-major";
    case Layout::kColumnar:
      return "columnar";
  }
  return "?";
}

const char* ServeCodeToString(ServeCode code) {
  switch (code) {
    case ServeCode::kOk:
      return "ok";
    case ServeCode::kBadRequest:
      return "bad-request";
    case ServeCode::kModelNotFound:
      return "model-not-found";
    case ServeCode::kOverloaded:
      return "overloaded";
    case ServeCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ServeCode::kShuttingDown:
      return "shutting-down";
    case ServeCode::kInternalError:
      return "internal-error";
  }
  return "?";
}

Status ServeCodeToStatus(ServeCode code, const std::string& message) {
  std::string text =
      std::string(ServeCodeToString(code)) + ": " + message;
  switch (code) {
    case ServeCode::kOk:
      return Status::OK();
    case ServeCode::kBadRequest:
      return Status::InvalidArgument(std::move(text));
    case ServeCode::kModelNotFound:
      return Status::NotFound(std::move(text));
    case ServeCode::kOverloaded:
    case ServeCode::kDeadlineExceeded:
    case ServeCode::kShuttingDown:
      return Status::NetworkError(std::move(text));
    case ServeCode::kInternalError:
      return Status::Internal(std::move(text));
  }
  return Status::Internal(std::move(text));
}

void EncodePredictRequest(const PredictRequest& request, Layout layout,
                          ByteWriter* out) {
  WriteKind(FrameKind::kPredict, out);
  out->WriteU64(request.request_id);
  out->WriteU32(request.deadline_ms);
  out->WriteString(request.model_name);
  out->WriteU8(static_cast<uint8_t>(layout));
  const ml::Matrix& x = request.features;
  out->WriteU32(static_cast<uint32_t>(x.rows()));
  out->WriteU16(static_cast<uint16_t>(x.cols()));
  if (layout == Layout::kColumnar) {
    for (size_t c = 0; c < x.cols(); ++c) {
      out->WriteRaw(x.column(c).data(), x.rows() * sizeof(double));
    }
  } else {
    for (size_t r = 0; r < x.rows(); ++r) {
      for (size_t c = 0; c < x.cols(); ++c) {
        out->WriteDouble(x.At(r, c));
      }
    }
  }
}

Result<PredictRequest> DecodePredictRequest(ByteReader* in) {
  MLCS_RETURN_IF_ERROR(ExpectKind(FrameKind::kPredict, in));
  PredictRequest request;
  MLCS_ASSIGN_OR_RETURN(request.request_id, in->ReadU64());
  MLCS_ASSIGN_OR_RETURN(request.deadline_ms, in->ReadU32());
  MLCS_ASSIGN_OR_RETURN(request.model_name, in->ReadString());
  MLCS_ASSIGN_OR_RETURN(uint8_t layout_byte, in->ReadU8());
  if (layout_byte > static_cast<uint8_t>(Layout::kColumnar)) {
    return Status::ParseError("unknown layout byte " +
                              std::to_string(layout_byte));
  }
  Layout layout = static_cast<Layout>(layout_byte);
  MLCS_ASSIGN_OR_RETURN(uint32_t num_rows, in->ReadU32());
  MLCS_ASSIGN_OR_RETURN(uint16_t num_features, in->ReadU16());
  if (num_rows > kMaxRequestRows) {
    return Status::InvalidArgument("request declares " +
                                   std::to_string(num_rows) +
                                   " rows, above the per-request cap");
  }
  if (num_features > kMaxRequestFeatures) {
    return Status::InvalidArgument("request declares " +
                                   std::to_string(num_features) +
                                   " features, above the per-request cap");
  }
  // The declared payload must actually be present before any allocation.
  size_t payload = static_cast<size_t>(num_rows) * num_features *
                   sizeof(double);
  if (in->remaining() < payload) {
    return Status::OutOfRange("truncated feature payload: need " +
                              std::to_string(payload) + " bytes, have " +
                              std::to_string(in->remaining()));
  }
  request.features = ml::Matrix(num_rows, num_features);
  if (layout == Layout::kColumnar) {
    // Straight per-column copy — the wire layout IS the matrix layout.
    for (size_t c = 0; c < num_features; ++c) {
      MLCS_RETURN_IF_ERROR(in->ReadRaw(request.features.column(c).data(),
                                       num_rows * sizeof(double)));
    }
  } else {
    // Row-major wire form: transpose cell by cell.
    for (size_t r = 0; r < num_rows; ++r) {
      for (size_t c = 0; c < num_features; ++c) {
        MLCS_ASSIGN_OR_RETURN(double v, in->ReadDouble());
        request.features.Set(r, c, v);
      }
    }
  }
  return request;
}

uint64_t PeekRequestId(const uint8_t* body, size_t size) {
  if (size < 1 + sizeof(uint64_t) ||
      body[0] != static_cast<uint8_t>(FrameKind::kPredict)) {
    return 0;
  }
  uint64_t id = 0;
  std::memcpy(&id, body + 1, sizeof(id));
  return id;
}

void EncodePredictResponse(const PredictResponse& response, ByteWriter* out) {
  WriteKind(FrameKind::kPredictResponse, out);
  out->WriteU64(response.request_id);
  out->WriteU8(static_cast<uint8_t>(response.code));
  if (response.code == ServeCode::kOk) {
    out->WriteU32(static_cast<uint32_t>(response.labels.size()));
    out->WriteRaw(response.labels.data(),
                  response.labels.size() * sizeof(int32_t));
  } else {
    out->WriteString(response.message);
  }
}

Result<PredictResponse> DecodePredictResponse(ByteReader* in) {
  MLCS_RETURN_IF_ERROR(ExpectKind(FrameKind::kPredictResponse, in));
  PredictResponse response;
  MLCS_ASSIGN_OR_RETURN(response.request_id, in->ReadU64());
  MLCS_ASSIGN_OR_RETURN(uint8_t code_byte, in->ReadU8());
  if (code_byte > static_cast<uint8_t>(ServeCode::kInternalError)) {
    return Status::ParseError("unknown response code byte " +
                              std::to_string(code_byte));
  }
  response.code = static_cast<ServeCode>(code_byte);
  if (response.code == ServeCode::kOk) {
    MLCS_ASSIGN_OR_RETURN(uint32_t count, in->ReadU32());
    if (count > kMaxRequestRows) {
      return Status::ParseError("response declares an absurd label count");
    }
    if (in->remaining() < count * sizeof(int32_t)) {
      return Status::OutOfRange("truncated label payload");
    }
    response.labels.resize(count);
    MLCS_RETURN_IF_ERROR(
        in->ReadRaw(response.labels.data(), count * sizeof(int32_t)));
  } else {
    MLCS_ASSIGN_OR_RETURN(response.message, in->ReadString());
  }
  return response;
}

void EncodeQueryRequest(const std::string& sql, client::WireProtocol protocol,
                        ByteWriter* out) {
  WriteKind(FrameKind::kQuery, out);
  out->WriteU8(static_cast<uint8_t>(protocol));
  out->WriteRaw(sql.data(), sql.size());
}

Result<QueryRequest> DecodeQueryRequest(ByteReader* in) {
  MLCS_RETURN_IF_ERROR(ExpectKind(FrameKind::kQuery, in));
  MLCS_ASSIGN_OR_RETURN(uint8_t protocol, in->ReadU8());
  if (protocol > static_cast<uint8_t>(client::WireProtocol::kColumnar)) {
    return Status::InvalidArgument("bad protocol byte " +
                                   std::to_string(protocol));
  }
  QueryRequest request;
  request.protocol = static_cast<client::WireProtocol>(protocol);
  request.sql.resize(in->remaining());
  MLCS_RETURN_IF_ERROR(in->ReadRaw(request.sql.data(), request.sql.size()));
  return request;
}

Status EncodeQueryResponse(const Table& table, client::WireProtocol protocol,
                           ByteWriter* out) {
  WriteKind(FrameKind::kQueryResponse, out);
  out->WriteU8(1);
  client::EncodeHeader(table.schema(), out);
  MLCS_RETURN_IF_ERROR(
      client::EncodeRows(table, protocol, 0, table.num_rows(), out));
  client::EncodeEnd(out);
  return Status::OK();
}

void EncodeQueryError(const std::string& message, ByteWriter* out) {
  WriteKind(FrameKind::kQueryResponse, out);
  out->WriteU8(0);
  out->WriteString(message);
}

Result<TablePtr> DecodeQueryResponse(ByteReader* in,
                                     client::WireProtocol protocol) {
  MLCS_RETURN_IF_ERROR(ExpectKind(FrameKind::kQueryResponse, in));
  MLCS_ASSIGN_OR_RETURN(uint8_t ok, in->ReadU8());
  if (ok == 0) {
    MLCS_ASSIGN_OR_RETURN(std::string message, in->ReadString());
    return Status::NetworkError("server error: " + message);
  }
  return client::DecodeResultSet(in, protocol);
}

void EncodeMetricsRequest(ByteWriter* out) {
  WriteKind(FrameKind::kMetrics, out);
}

void EncodeTraceExportRequest(uint64_t trace_id, ByteWriter* out) {
  WriteKind(FrameKind::kTrace, out);
  out->WriteU64(trace_id);
}

Result<ExportRequest> DecodeExportRequest(ByteReader* in) {
  ExportRequest request;
  MLCS_ASSIGN_OR_RETURN(request.kind, in->ReadU8());
  if (request.kind == static_cast<uint8_t>(FrameKind::kTrace)) {
    MLCS_ASSIGN_OR_RETURN(request.trace_id, in->ReadU64());
  } else if (request.kind != static_cast<uint8_t>(FrameKind::kMetrics)) {
    return Status::ParseError("unknown export request kind byte " +
                              std::to_string(request.kind));
  }
  return request;
}

void EncodeExportResponse(bool ok, const std::string& text,
                          ByteWriter* out) {
  WriteKind(FrameKind::kExportResponse, out);
  out->WriteU8(ok ? 1 : 0);
  out->WriteString(text);
}

Result<std::string> DecodeExportResponse(ByteReader* in) {
  MLCS_RETURN_IF_ERROR(ExpectKind(FrameKind::kExportResponse, in));
  MLCS_ASSIGN_OR_RETURN(uint8_t ok, in->ReadU8());
  MLCS_ASSIGN_OR_RETURN(std::string text, in->ReadString());
  if (ok == 0) return Status::Internal("export failed: " + text);
  return text;
}

Result<uint32_t> ResponseFrameLength(size_t body_bytes) {
  if (body_bytes > std::numeric_limits<uint32_t>::max()) {
    return Status::OutOfRange("response of " + std::to_string(body_bytes) +
                              " bytes exceeds what a u32 frame length "
                              "can declare");
  }
  return static_cast<uint32_t>(body_bytes);
}

Status WriteFrame(int fd, const ByteWriter& body) {
  // One contiguous buffer (length prefix + body) so the frame leaves in a
  // single send — with TCP_NODELAY two writes would mean two packets.
  ByteWriter frame;
  frame.WriteU32(static_cast<uint32_t>(body.size()));
  frame.WriteRaw(body.data().data(), body.size());
  if (!WriteAll(fd, frame.data().data(), frame.size())) {
    return Status::NetworkError("failed to write frame");
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFrame(int fd) {
  uint32_t len = 0;
  if (!ReadExact(fd, &len, sizeof(len))) {
    return Status::NetworkError("connection closed while reading frame");
  }
  std::vector<uint8_t> body(len);
  if (!ReadExact(fd, body.data(), body.size())) {
    return Status::NetworkError("connection closed mid-frame");
  }
  return body;
}

}  // namespace mlcs::serve
