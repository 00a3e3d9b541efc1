#ifndef MLCS_SERVE_INFERENCE_SERVER_H_
#define MLCS_SERVE_INFERENCE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "modelstore/model_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "modelstore/model_store.h"
#include "serve/bounded_queue.h"
#include "serve/serve_protocol.h"
#include "sql/database.h"

namespace mlcs::serve {

struct InferenceServerOptions {
  /// When false every request is predicted individually (the row-at-a-time
  /// ablation baseline); when true concurrently arriving requests coalesce
  /// into one vectorized Predict per model.
  bool batching_enabled = true;
  /// Flush a forming batch once it holds this many feature rows.
  size_t max_batch_rows = 4096;
  /// Maximum time the batcher waits for more requests after the first.
  std::chrono::microseconds batch_linger{250};
  /// Admission bound: requests queued past this answer kOverloaded.
  size_t max_queue_requests = 256;
  /// Inference and SQL statements execute as tasks on this pool (default:
  /// the process-wide shared pool) — no thread is ever dedicated to a
  /// single connection.
  ThreadPool* pool = nullptr;
  /// Model snapshot cache (default: ModelCache::Global()). Content
  /// addressing keeps it correct while models are retrained live.
  modelstore::ModelCache* model_cache = nullptr;
  /// Test-only: run by the batch thread right before dispatching a batch;
  /// lets tests hold execution to fill the queue deterministically.
  std::function<void()> test_batch_hook;
};

/// Counters exposed for tests, benchmarks, and ops. Snapshot semantics.
/// Plain-value copy of one server's ServeCounters; the process-wide
/// aggregates live on the metrics registry as `mlcs.serve.*`.
struct InferenceServerStats {  // lint:allow(adhoc-stats)
  uint64_t requests_accepted = 0;   // admitted into the queue
  uint64_t responses_ok = 0;
  uint64_t rejected_overload = 0;   // answered kOverloaded at admission
  uint64_t rejected_bad_request = 0;
  uint64_t rejected_shutdown = 0;   // arrived while draining
  uint64_t expired_deadline = 0;    // answered kDeadlineExceeded
  uint64_t failed_internal = 0;     // model load / predict failures
  uint64_t batches_executed = 0;    // vectorized Predict invocations
  uint64_t batched_requests = 0;    // requests carried by those batches
  uint64_t batched_rows = 0;        // feature rows predicted
  uint64_t peak_queue_depth = 0;    // high-water mark, never > capacity
  uint64_t peak_batch_requests = 0;
};

/// Micro-batching inference server — the serving path for the paper's
/// in-database models (§5.1 snapshots + §2 vectorization, applied to the
/// request path). Concurrently arriving predict requests coalesce into one
/// vectorized Predict call per model, so per-request cost amortizes
/// exactly like per-row UDF cost amortized in abl-vec. The same server
/// answers SQL ('q') and export ('m'/'t') frames; it is the repo's one
/// connection layer (client::TableServer is this server without models).
///
/// Threading: one epoll I/O thread owns the listen socket and every
/// connection (no thread per connection), one batcher thread forms batches
/// from a bounded admission queue, and inference and SQL statements run as
/// tasks on the shared ThreadPool. Responses may arrive out of request
/// order; the request_id correlates them. Every response goes through one
/// non-blocking Send; what the socket does not take waits in the
/// connection's output queue, and while that queue holds more than
/// kMaxQueuedOutputBytes the loop stops reading from the connection — a
/// client that never reads stalls only itself. Stop() drains: queued
/// requests and running SQL statements are answered, new ones are refused,
/// then threads join and sockets close.
class InferenceServer {
 public:
  /// `store` may be null: predicts then answer kModelNotFound.
  InferenceServer(Database* db, modelstore::ModelStore* store,
                  InferenceServerOptions options = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 → ephemeral) and starts serving.
  Status Start(uint16_t port = 0);
  /// Drain-then-stop; idempotent. Returns only after every SQL statement
  /// has finished, so the caller may destroy the Database right after.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }
  InferenceServerStats stats() const;

 private:
  /// Output a connection may hold queued before the loop stops reading it.
  static constexpr size_t kMaxQueuedOutputBytes = 1u << 20;

  /// One client connection. The fd closes when the last reference drops,
  /// so an in-flight response can never write into a recycled fd.
  struct Conn {
    explicit Conn(int fd) : fd(fd) {}
    ~Conn();
    /// Sends queued frames until the socket would block; false when the
    /// peer is gone (the queue is then discarded).
    [[nodiscard]] bool Flush() MLCS_REQUIRES(mutex);
    bool Paused() const MLCS_REQUIRES(mutex) {
      return query_running || queued_bytes > kMaxQueuedOutputBytes;
    }

    const int fd;
    /// Bytes read but not yet dispatched; touched only by the I/O thread.
    std::vector<uint8_t> inbuf;  // lint:allow(guarded-member)
    /// Guards the output side, which responders on any thread share.
    Mutex mutex{"Conn::mutex"};
    /// Whole frames not yet on the wire; `sent` bytes of the front one are.
    std::deque<std::vector<uint8_t>> output MLCS_GUARDED_BY(mutex);
    size_t sent MLCS_GUARDED_BY(mutex) = 0;
    size_t queued_bytes MLCS_GUARDED_BY(mutex) = 0;
    /// One SQL statement at a time: reading waits while one runs.
    bool query_running MLCS_GUARDED_BY(mutex) = false;
    /// Set when the loop drops the connection; later responses vanish.
    bool closed MLCS_GUARDED_BY(mutex) = false;
    /// The epoll interest currently registered for `fd`.
    uint32_t interest MLCS_GUARDED_BY(mutex) = 0;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  /// A request admitted into the queue, with its arrival time pinned so
  /// deadlines measure true server-side latency (queue wait included).
  struct Pending {
    ConnPtr conn;
    PredictRequest request;
    std::chrono::steady_clock::time_point arrival;
  };

  void IoLoop();
  void BatchLoop();
  void Accept(std::unordered_map<int, ConnPtr>* conns);
  /// Handles readiness `events` on `conn` (0 resumes a paused connection):
  /// flush, read, dispatch; false when the connection must close.
  [[nodiscard]] bool Service(const ConnPtr& conn, uint32_t events);
  [[nodiscard]] bool ProcessBufferedFrames(const ConnPtr& conn);
  void HandleFrame(const ConnPtr& conn, const uint8_t* body, size_t size);
  void HandlePredictFrame(const ConnPtr& conn, const uint8_t* body,
                          size_t size);
  /// 'q': runs the statement as one pool task (query + result encoding).
  void HandleQueryFrame(const ConnPtr& conn, const uint8_t* body,
                        size_t size);
  void RunQuery(const ConnPtr& conn, const QueryRequest& request);
  /// 'm'/'t': renders the export on the I/O thread and answers inline —
  /// never queued behind inference or SQL.
  void HandleExportFrame(const ConnPtr& conn, const uint8_t* body,
                         size_t size);
  void ExecuteBatch(std::vector<Pending> batch);
  /// `trace` is the batch's trace context (null when tracing is off); pool
  /// workers attach to it so predict spans land in the batch's trace.
  void RunGroup(std::vector<Pending*>& members, size_t total_rows,
                obs::TraceContext* trace);

  void Respond(const ConnPtr& conn, const PredictResponse& response);
  void RespondError(const ConnPtr& conn, uint64_t request_id, ServeCode code,
                    std::string message);
  /// The one way out: `frame` is a u32 length placeholder plus the body.
  /// Tries a non-blocking send when nothing is queued ahead of it, queues
  /// the rest for the loop to flush on EPOLLOUT. Any thread may call it.
  void Send(const ConnPtr& conn, ByteWriter frame);
  /// Re-registers `conn`'s epoll interest from its output and pause state.
  void UpdateInterest(Conn* conn) MLCS_REQUIRES(conn->mutex);
  void Wake();

  Database* const db_;
  modelstore::ModelStore* const store_;
  const InferenceServerOptions options_;
  ThreadPool* const pool_;
  modelstore::ModelCache* const cache_;

  /// Set up by Start() before the threads exist; the listen socket then
  /// belongs to the I/O thread, which closes it when draining starts.
  uint16_t port_ = 0;        // lint:allow(guarded-member)
  int listen_fd_ = -1;       // lint:allow(guarded-member)
  int epoll_fd_ = -1;        // lint:allow(guarded-member)
  int wake_fd_ = -1;         // lint:allow(guarded-member)
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> io_stop_{false};
  /// Owned by Start()/Stop(), which the caller serializes.
  std::unique_ptr<BoundedQueue<Pending>> queue_;  // lint:allow(guarded-member)

  /// SQL statements in flight, and the connections whose statement just
  /// finished and whose buffered frames the loop must now dispatch.
  Mutex mutex_{"InferenceServer::mutex_"};
  CondVar queries_done_;
  size_t queries_running_ MLCS_GUARDED_BY(mutex_) = 0;
  std::vector<ConnPtr> resumed_ MLCS_GUARDED_BY(mutex_);

  /// Per-server counters, each mirrored into the process-wide
  /// `mlcs.serve.*` registry series (so `mlcs_metrics()` aggregates across
  /// servers while stats() stays exact per instance).
  struct ServeCounters {
    obs::MirroredCounter requests_accepted{"mlcs.serve.requests_accepted"};
    obs::MirroredCounter responses_ok{"mlcs.serve.responses_ok"};
    obs::MirroredCounter rejected_overload{"mlcs.serve.rejected_overload"};
    obs::MirroredCounter rejected_bad_request{
        "mlcs.serve.rejected_bad_request"};
    obs::MirroredCounter rejected_shutdown{"mlcs.serve.rejected_shutdown"};
    obs::MirroredCounter expired_deadline{"mlcs.serve.expired_deadline"};
    obs::MirroredCounter failed_internal{"mlcs.serve.failed_internal"};
    obs::MirroredCounter batches_executed{"mlcs.serve.batches_executed"};
    obs::MirroredCounter batched_requests{"mlcs.serve.batched_requests"};
    obs::MirroredCounter batched_rows{"mlcs.serve.batched_rows"};
    obs::MirroredMaxGauge peak_queue_depth{"mlcs.serve.peak_queue_depth"};
    obs::MirroredMaxGauge peak_batch_requests{
        "mlcs.serve.peak_batch_requests"};
  };
  ServeCounters stats_;  // lint:allow(guarded-member) atomic counters

  /// Last, after everything the loops use; Start()/Stop() own them.
  std::thread io_thread_;     // lint:allow(guarded-member)
  std::thread batch_thread_;  // lint:allow(guarded-member)
};

}  // namespace mlcs::serve

#endif  // MLCS_SERVE_INFERENCE_SERVER_H_
