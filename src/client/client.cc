#include "client/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace mlcs::client {

Client::~Client() { Disconnect(); }

Status Client::Connect(const std::string& host, uint16_t port) {
  Disconnect();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::NetworkError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Disconnect();
    return Status::InvalidArgument("bad host address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Status::NetworkError("connect() failed: " +
                                     std::string(std::strerror(errno)));
    Disconnect();
    return st;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

void Client::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::vector<uint8_t>> Client::RoundTrip(const ByteWriter& body) {
  if (fd_ < 0) return Status::NetworkError("not connected");
  MLCS_RETURN_IF_ERROR(serve::WriteFrame(fd_, body));
  return serve::ReadFrame(fd_);
}

Result<TablePtr> Client::Query(const std::string& sql,
                               WireProtocol protocol) {
  ByteWriter body;
  serve::EncodeQueryRequest(sql, protocol, &body);
  MLCS_ASSIGN_OR_RETURN(std::vector<uint8_t> frame, RoundTrip(body));
  last_response_bytes_ = frame.size();
  ByteReader reader(frame);
  return serve::DecodeQueryResponse(&reader, protocol);
}

Result<uint64_t> Client::Send(const std::string& model_name,
                              const ml::Matrix& features,
                              const InferenceCallOptions& options) {
  if (fd_ < 0) return Status::NetworkError("not connected");
  serve::PredictRequest request;
  request.request_id = next_request_id_++;
  request.deadline_ms = options.deadline_ms;
  request.model_name = model_name;
  request.features = features;
  ByteWriter body;
  serve::EncodePredictRequest(request, options.layout, &body);
  MLCS_RETURN_IF_ERROR(serve::WriteFrame(fd_, body));
  return request.request_id;
}

Result<serve::PredictResponse> Client::Receive() {
  if (fd_ < 0) return Status::NetworkError("not connected");
  MLCS_ASSIGN_OR_RETURN(std::vector<uint8_t> frame, serve::ReadFrame(fd_));
  ByteReader reader(frame);
  return serve::DecodePredictResponse(&reader);
}

Result<serve::PredictResponse> Client::Call(
    const std::string& model_name, const ml::Matrix& features,
    const InferenceCallOptions& options) {
  MLCS_ASSIGN_OR_RETURN(uint64_t id, Send(model_name, features, options));
  MLCS_ASSIGN_OR_RETURN(serve::PredictResponse response, Receive());
  if (response.request_id != id) {
    return Status::Internal("response id " +
                            std::to_string(response.request_id) +
                            " does not match request id " +
                            std::to_string(id));
  }
  return response;
}

Result<std::vector<int32_t>> Client::Predict(
    const std::string& model_name, const ml::Matrix& features,
    const InferenceCallOptions& options) {
  MLCS_ASSIGN_OR_RETURN(serve::PredictResponse response,
                        Call(model_name, features, options));
  if (response.code != serve::ServeCode::kOk) {
    return serve::ServeCodeToStatus(response.code, response.message);
  }
  return std::move(response.labels);
}

Result<std::string> Client::FetchMetricsText() {
  ByteWriter body;
  serve::EncodeMetricsRequest(&body);
  MLCS_ASSIGN_OR_RETURN(std::vector<uint8_t> frame, RoundTrip(body));
  ByteReader reader(frame);
  return serve::DecodeExportResponse(&reader);
}

Result<std::string> Client::FetchChromeTrace(uint64_t trace_id) {
  ByteWriter body;
  serve::EncodeTraceExportRequest(trace_id, &body);
  MLCS_ASSIGN_OR_RETURN(std::vector<uint8_t> frame, RoundTrip(body));
  ByteReader reader(frame);
  return serve::DecodeExportResponse(&reader);
}

}  // namespace mlcs::client
