#include "serve/inference_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "obs/export.h"

namespace mlcs::serve {

namespace {

/// Bytes taken off a socket per readiness event. Level-triggered epoll
/// reports what is left, so one chatty connection cannot starve the rest.
constexpr size_t kReadChunkBytes = 64u << 10;

/// A response under construction: a u32 length placeholder that Send
/// fills in, then the body.
ByteWriter NewFrame() {
  ByteWriter frame;
  frame.WriteU32(0);
  return frame;
}

}  // namespace

InferenceServer::Conn::~Conn() { ::close(fd); }

bool InferenceServer::Conn::Flush() MLCS_REQUIRES(mutex) {
  while (!output.empty()) {
    const std::vector<uint8_t>& front = output.front();
    ssize_t n = ::send(fd, front.data() + sent, front.size() - sent,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      output.clear();
      sent = 0;
      queued_bytes = 0;
      return false;
    }
    sent += static_cast<size_t>(n);
    queued_bytes -= static_cast<size_t>(n);
    if (sent == front.size()) {
      output.pop_front();
      sent = 0;
    }
  }
  return true;
}

InferenceServer::InferenceServer(Database* db, modelstore::ModelStore* store,
                                 InferenceServerOptions options)
    : db_(db),
      store_(store),
      options_(std::move(options)),
      pool_(options_.pool != nullptr ? options_.pool : &ThreadPool::Global()),
      cache_(options_.model_cache != nullptr
                 ? options_.model_cache
                 : &modelstore::ModelCache::Global()) {}

InferenceServer::~InferenceServer() { Stop(); }

Status InferenceServer::Start(uint16_t port) {
  if (running_.load()) return Status::InvalidArgument("already running");
  auto fail = [this](const std::string& what) {
    std::string message = what + " failed: " + std::strerror(errno);
    for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    return Status::NetworkError(message);
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return fail("socket()");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind()");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return fail("getsockname()");
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) return fail("listen()");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1()");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return fail("eventfd()");
  for (int fd : {listen_fd_, wake_fd_}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return fail("epoll_ctl()");
    }
  }
  port_ = ntohs(addr.sin_port);
  queue_ = std::make_unique<BoundedQueue<Pending>>(
      options_.max_queue_requests, "serve.admission");
  draining_.store(false);
  io_stop_.store(false);
  running_.store(true);
  // Dedicated long-lived loops, not units of work — they must not occupy
  // (or deadlock behind) the shared pool's workers.
  io_thread_ = std::thread([this] { IoLoop(); });      // lint:allow(naked-thread)
  batch_thread_ = std::thread([this] { BatchLoop(); });  // lint:allow(naked-thread)
  return Status::OK();
}

void InferenceServer::Stop() {
  if (!running_.exchange(false)) return;
  // Phase 1: refuse new work. The I/O thread closes the listen socket;
  // frames that still arrive on live connections are refused (predicts
  // with kShuttingDown). Set under mutex_ so no statement can start after
  // phase 2 below has counted the running ones.
  {
    MutexLock lock(&mutex_);
    draining_.store(true);
  }
  Wake();
  // Phase 2: drain. Closing the queue lets the batcher pop every admitted
  // request, answer it, and exit — no accepted request goes unanswered —
  // and every running SQL statement finishes and answers.
  queue_->Close();
  if (batch_thread_.joinable()) batch_thread_.join();
  {
    MutexLock lock(&mutex_);
    while (queries_running_ > 0) queries_done_.Wait(lock);
    resumed_.clear();
  }
  // Phase 3: stop. The I/O thread makes a last flush attempt and goes,
  // taking every connection (and its fd) with it.
  io_stop_.store(true);
  Wake();
  if (io_thread_.joinable()) io_thread_.join();
  for (int* fd : {&epoll_fd_, &wake_fd_}) {
    ::close(*fd);
    *fd = -1;
  }
}

void InferenceServer::Wake() {
  uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

InferenceServerStats InferenceServer::stats() const {
  InferenceServerStats snapshot;
  snapshot.requests_accepted = stats_.requests_accepted.Value();
  snapshot.responses_ok = stats_.responses_ok.Value();
  snapshot.rejected_overload = stats_.rejected_overload.Value();
  snapshot.rejected_bad_request = stats_.rejected_bad_request.Value();
  snapshot.rejected_shutdown = stats_.rejected_shutdown.Value();
  snapshot.expired_deadline = stats_.expired_deadline.Value();
  snapshot.failed_internal = stats_.failed_internal.Value();
  snapshot.batches_executed = stats_.batches_executed.Value();
  snapshot.batched_requests = stats_.batched_requests.Value();
  snapshot.batched_rows = stats_.batched_rows.Value();
  snapshot.peak_queue_depth = stats_.peak_queue_depth.Value();
  snapshot.peak_batch_requests = stats_.peak_batch_requests.Value();
  return snapshot;
}

void InferenceServer::IoLoop() {
  std::unordered_map<int, ConnPtr> conns;
  auto drop = [this, &conns](ConnPtr conn) {
    {
      MutexLock lock(&conn->mutex);
      conn->closed = true;
      conn->output.clear();
      conn->queued_bytes = 0;
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    conns.erase(conn->fd);
  };
  epoll_event events[64];
  while (!io_stop_.load()) {
    int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      MLCS_LOG(kWarn) << "epoll_wait() failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t count = 0;
        ssize_t ignored = ::read(wake_fd_, &count, sizeof(count));
        (void)ignored;
        if (draining_.load() && listen_fd_ >= 0) {
          ::close(listen_fd_);
          listen_fd_ = -1;
        }
        std::vector<ConnPtr> resumed;
        {
          MutexLock lock(&mutex_);
          resumed.swap(resumed_);
        }
        for (const ConnPtr& conn : resumed) {
          auto it = conns.find(conn->fd);
          if (it == conns.end() || it->second != conn) continue;  // dropped
          if (!Service(conn, 0)) drop(conn);
        }
      } else if (fd == listen_fd_) {
        Accept(&conns);
      } else if (auto it = conns.find(fd); it != conns.end()) {
        ConnPtr conn = it->second;
        if (!Service(conn, events[i].events)) drop(conn);
      }
    }
  }
  for (auto& [fd, conn] : conns) {
    MutexLock lock(&conn->mutex);
    (void)conn->Flush();
    conn->closed = true;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

void InferenceServer::Accept(std::unordered_map<int, ConnPtr>* conns) {
  while (true) {
    // EAGAIN when the backlog is drained; any other failure is retried on
    // the next readiness event.
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) continue;
    {
      MutexLock lock(&conn->mutex);
      conn->interest = EPOLLIN;
    }
    conns->emplace(fd, std::move(conn));
  }
}

bool InferenceServer::Service(const ConnPtr& conn, uint32_t events) {
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) return false;
  if ((events & EPOLLOUT) != 0) {
    MutexLock lock(&conn->mutex);
    if (!conn->Flush()) return false;
  }
  if ((events & EPOLLIN) != 0) {
    uint8_t buf[kReadChunkBytes];
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return false;  // orderly shutdown
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return false;
    }
    if (n > 0) conn->inbuf.insert(conn->inbuf.end(), buf, buf + n);
  }
  if (!ProcessBufferedFrames(conn)) return false;
  MutexLock lock(&conn->mutex);
  UpdateInterest(conn.get());
  return true;
}

void InferenceServer::UpdateInterest(Conn* conn)
    MLCS_REQUIRES(conn->mutex) {
  uint32_t interest = conn->output.empty() ? 0u : uint32_t{EPOLLOUT};
  if (!conn->Paused()) interest |= EPOLLIN;
  if (conn->closed || interest == conn->interest) return;
  epoll_event ev{};
  ev.events = interest;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->interest = interest;
}

bool InferenceServer::ProcessBufferedFrames(const ConnPtr& conn) {
  std::vector<uint8_t>& buf = conn->inbuf;
  size_t consumed = 0;
  while (buf.size() - consumed >= sizeof(uint32_t)) {
    {
      // A paused connection keeps its frames until it resumes.
      MutexLock lock(&conn->mutex);
      if (conn->Paused()) break;
    }
    uint32_t frame_len = 0;
    std::memcpy(&frame_len, buf.data() + consumed, sizeof(frame_len));
    if (frame_len > kMaxFrameBytes) {
      stats_.rejected_bad_request.Add(1);
      RespondError(conn, 0, ServeCode::kBadRequest,
                   "frame of " + std::to_string(frame_len) +
                       " bytes exceeds the frame cap");
      return false;  // cannot resynchronize a corrupt stream
    }
    if (buf.size() - consumed < sizeof(uint32_t) + frame_len) break;
    HandleFrame(conn, buf.data() + consumed + sizeof(uint32_t), frame_len);
    consumed += sizeof(uint32_t) + frame_len;
  }
  if (consumed > 0) {
    buf.erase(buf.begin(),
              buf.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  return true;
}

void InferenceServer::HandleFrame(const ConnPtr& conn, const uint8_t* body,
                                  size_t size) {
  switch (size == 0 ? FrameKind::kPredict : static_cast<FrameKind>(body[0])) {
    case FrameKind::kQuery:
      HandleQueryFrame(conn, body, size);
      return;
    case FrameKind::kMetrics:
    case FrameKind::kTrace:
      HandleExportFrame(conn, body, size);
      return;
    default:  // a predict, or garbage its decode answers kBadRequest
      HandlePredictFrame(conn, body, size);
      return;
  }
}

void InferenceServer::HandlePredictFrame(const ConnPtr& conn,
                                         const uint8_t* body, size_t size) {
  ByteReader reader(body, size);
  auto decoded = DecodePredictRequest(&reader);
  if (!decoded.ok()) {
    stats_.rejected_bad_request.Add(1);
    RespondError(conn, PeekRequestId(body, size), ServeCode::kBadRequest,
                 decoded.status().ToString());
    return;
  }
  Pending pending{conn, std::move(decoded).ValueOrDie(),
                  std::chrono::steady_clock::now()};
  uint64_t id = pending.request.request_id;
  if (draining_.load()) {
    stats_.rejected_shutdown.Add(1);
    RespondError(conn, id, ServeCode::kShuttingDown, "server is draining");
    return;
  }
  if (!queue_->TryPush(std::move(pending))) {
    // Graceful degradation: the bounded queue is full (or just closed by
    // Stop), so answer immediately instead of queueing without bound.
    if (draining_.load()) {
      stats_.rejected_shutdown.Add(1);
      RespondError(conn, id, ServeCode::kShuttingDown, "server is draining");
    } else {
      stats_.rejected_overload.Add(1);
      RespondError(conn, id, ServeCode::kOverloaded,
                   "admission queue full (" +
                       std::to_string(queue_->capacity()) + " requests)");
    }
    return;
  }
  stats_.requests_accepted.Add(1);
  stats_.peak_queue_depth.UpdateMax(queue_->size());
}

void InferenceServer::HandleQueryFrame(const ConnPtr& conn,
                                       const uint8_t* body, size_t size) {
  ByteReader reader(body, size);
  auto decoded = DecodeQueryRequest(&reader);
  Status admitted = decoded.status();
  if (decoded.ok()) {
    MutexLock lock(&mutex_);
    if (draining_.load()) {
      admitted = Status::NetworkError("server is draining");
    } else {
      ++queries_running_;
    }
  }
  if (!admitted.ok()) {
    ByteWriter frame = NewFrame();
    EncodeQueryError(admitted.ToString(), &frame);
    Send(conn, std::move(frame));
    return;
  }
  {
    MutexLock lock(&conn->mutex);
    conn->query_running = true;
  }
  (void)pool_->Submit(
      [this, conn, request = std::move(decoded).ValueOrDie()] {
        RunQuery(conn, request);
      });
}

void InferenceServer::RunQuery(const ConnPtr& conn,
                               const QueryRequest& request) {
  ByteWriter frame = NewFrame();
  auto result = db_->Query(request.sql);
  Status status = result.ok() ? EncodeQueryResponse(*result.ValueOrDie(),
                                                    request.protocol, &frame)
                              : result.status();
  if (status.ok()) {
    status = ResponseFrameLength(frame.size() - sizeof(uint32_t)).status();
  }
  if (!status.ok()) {
    frame = NewFrame();
    EncodeQueryError(status.ToString(), &frame);
  }
  Send(conn, std::move(frame));
  {
    MutexLock lock(&conn->mutex);
    conn->query_running = false;
  }
  // The loop dispatches what the connection buffered meanwhile. Wake it
  // before the count drops: Stop() closes the wake fd once it reads zero.
  MutexLock lock(&mutex_);
  resumed_.push_back(conn);
  Wake();
  --queries_running_;
  queries_done_.NotifyAll();
}

void InferenceServer::HandleExportFrame(const ConnPtr& conn,
                                        const uint8_t* body, size_t size) {
  ByteReader reader(body, size);
  auto decoded = DecodeExportRequest(&reader);
  bool ok = decoded.ok();
  std::string text;
  if (!ok) {
    text = decoded.status().ToString();
  } else if (decoded.ValueOrDie().kind ==
             static_cast<uint8_t>(FrameKind::kMetrics)) {
    text = obs::PrometheusText();
  } else {
    text = obs::ChromeTraceJson(decoded.ValueOrDie().trace_id);
  }
  ByteWriter frame = NewFrame();
  EncodeExportResponse(ok, text, &frame);
  Send(conn, std::move(frame));
}

void InferenceServer::BatchLoop() {
  while (true) {
    std::optional<Pending> first = queue_->PopWait();
    if (!first.has_value()) break;  // closed and fully drained
    std::vector<Pending> batch;
    batch.push_back(std::move(*first));
    if (options_.batching_enabled) {
      size_t rows = batch.back().request.features.rows();
      auto linger_until =
          std::chrono::steady_clock::now() + options_.batch_linger;
      while (rows < options_.max_batch_rows) {
        std::optional<Pending> next = queue_->PopUntil(linger_until);
        if (!next.has_value()) break;  // linger expired (or drained)
        rows += next->request.features.rows();
        batch.push_back(std::move(*next));
      }
    }
    if (options_.test_batch_hook) options_.test_batch_hook();
    ExecuteBatch(std::move(batch));
  }
}

void InferenceServer::ExecuteBatch(std::vector<Pending> batch) {
  // One trace per batch. Admission waits are recorded as synthetic spans
  // (their start predates this context); predict spans attach from the
  // pool workers. Futures are waited below, so `trace` outlives them.
  obs::TraceContext trace("serve.batch");
  if (trace.active()) {
    auto now = std::chrono::steady_clock::now();
    for (const Pending& p : batch) {
      trace.RecordSpan("serve.admission", p.arrival, now,
                       p.request.features.rows());
    }
  }
  // Group by (model, feature count): each group becomes one vectorized
  // Predict. Mixed-model batches split here, not at admission, so the
  // linger window coalesces across models too.
  struct Group {
    std::vector<Pending*> members;
    size_t rows = 0;
  };
  std::vector<Group> groups;
  for (Pending& p : batch) {
    Group* target = nullptr;
    for (Group& g : groups) {
      if (g.members[0]->request.model_name == p.request.model_name &&
          g.members[0]->request.features.cols() == p.request.features.cols()) {
        target = &g;
        break;
      }
    }
    if (target == nullptr) {
      groups.emplace_back();
      target = &groups.back();
    }
    target->members.push_back(&p);
    target->rows += p.request.features.rows();
  }
  // Inference runs as tasks on the shared pool — the batch thread only
  // plans; no thread is pinned to a connection or a model.
  std::vector<std::future<void>> futures;
  futures.reserve(groups.size());
  obs::TraceContext* tctx = trace.active() ? &trace : nullptr;
  for (Group& g : groups) {
    futures.push_back(
        pool_->Submit([this, &g, tctx] { RunGroup(g.members, g.rows, tctx); }));
  }
  for (auto& f : futures) f.wait();
}

void InferenceServer::RunGroup(std::vector<Pending*>& members,
                               size_t total_rows, obs::TraceContext* trace) {
  obs::ScopedTraceAttach attach(trace);
  obs::ScopedSpan span("serve.predict");
  span.set_rows_in(total_rows);
  auto now = std::chrono::steady_clock::now();
  std::vector<Pending*> live;
  live.reserve(members.size());
  for (Pending* p : members) {
    if (p->request.deadline_ms > 0 &&
        now - p->arrival >
            std::chrono::milliseconds(p->request.deadline_ms)) {
      stats_.expired_deadline.Add(1);
      RespondError(p->conn, p->request.request_id,
                   ServeCode::kDeadlineExceeded,
                   "deadline of " + std::to_string(p->request.deadline_ms) +
                       "ms expired before execution");
      total_rows -= p->request.features.rows();
    } else {
      live.push_back(p);
    }
  }
  if (live.empty()) return;
  const std::string& model_name = live[0]->request.model_name;
  auto blob = store_ != nullptr
                  ? store_->LoadModelBlob(model_name)
                  : Result<std::string>(
                        Status::NotFound("this server has no model store"));
  if (!blob.ok()) {
    ServeCode code = blob.status().code() == StatusCode::kNotFound
                         ? ServeCode::kModelNotFound
                         : ServeCode::kInternalError;
    for (Pending* p : live) {
      stats_.failed_internal.Add(1);
      RespondError(p->conn, p->request.request_id, code,
                   blob.status().ToString());
    }
    return;
  }
  // Content-addressed snapshot cache: a retrained model has different
  // bytes, so a stale snapshot can never be served (paper §5.1).
  auto model = cache_->Get(blob.ValueOrDie());
  if (!model.ok()) {
    for (Pending* p : live) {
      stats_.failed_internal.Add(1);
      RespondError(p->conn, p->request.request_id,
                   ServeCode::kInternalError, model.status().ToString());
    }
    return;
  }
  // One column-major matrix for the whole group; single-request groups
  // predict in place with no copy at all.
  size_t cols = live[0]->request.features.cols();
  const ml::Matrix* x = &live[0]->request.features;
  ml::Matrix concat;
  if (live.size() > 1) {
    concat = ml::Matrix(total_rows, cols);
    for (size_t c = 0; c < cols; ++c) {
      double* out = concat.column(c).data();
      size_t offset = 0;
      for (Pending* p : live) {
        const std::vector<double>& src = p->request.features.column(c);
        std::memcpy(out + offset, src.data(), src.size() * sizeof(double));
        offset += src.size();
      }
    }
    x = &concat;
  }
  auto labels = model.ValueOrDie()->Predict(*x);
  if (!labels.ok()) {
    // Typically a feature-count mismatch against the fitted model: the
    // request is malformed, not the server.
    for (Pending* p : live) {
      stats_.rejected_bad_request.Add(1);
      RespondError(p->conn, p->request.request_id, ServeCode::kBadRequest,
                   labels.status().ToString());
    }
    return;
  }
  // Count the batch before writing any response: a client that has seen
  // its answer must be able to observe the matching counters via stats().
  stats_.batches_executed.Add(1);
  stats_.batched_requests.Add(live.size());
  stats_.batched_rows.Add(total_rows);
  stats_.peak_batch_requests.UpdateMax(live.size());
  span.set_rows_out(total_rows);
  const ml::Labels& all = labels.ValueOrDie();
  size_t offset = 0;
  for (Pending* p : live) {
    size_t rows = p->request.features.rows();
    PredictResponse response;
    response.request_id = p->request.request_id;
    response.code = ServeCode::kOk;
    response.labels.assign(
        all.begin() + static_cast<std::ptrdiff_t>(offset),
        all.begin() + static_cast<std::ptrdiff_t>(offset + rows));
    offset += rows;
    stats_.responses_ok.Add(1);
    Respond(p->conn, response);
  }
}

void InferenceServer::Respond(const ConnPtr& conn,
                              const PredictResponse& response) {
  ByteWriter frame = NewFrame();
  EncodePredictResponse(response, &frame);
  Send(conn, std::move(frame));
}

void InferenceServer::RespondError(const ConnPtr& conn, uint64_t request_id,
                                   ServeCode code, std::string message) {
  PredictResponse response;
  response.request_id = request_id;
  response.code = code;
  response.message = std::move(message);
  Respond(conn, response);
}

void InferenceServer::Send(const ConnPtr& conn, ByteWriter frame) {
  std::vector<uint8_t> bytes = frame.Release();
  // Callers keep bodies within a u32 (RunQuery checks the one response
  // kind that could outgrow it).
  uint32_t len = static_cast<uint32_t>(bytes.size() - sizeof(uint32_t));
  std::memcpy(bytes.data(), &len, sizeof(len));
  MutexLock lock(&conn->mutex);
  if (conn->closed) return;
  conn->queued_bytes += bytes.size();
  conn->output.push_back(std::move(bytes));
  // Only a frame with nothing queued ahead of it may go out right away,
  // so frames never interleave. A failed send means the peer vanished;
  // the loop sees the hangup on its own.
  if (conn->output.size() == 1) (void)conn->Flush();
  UpdateInterest(conn.get());
}

}  // namespace mlcs::serve
