#ifndef EAFE_SERVE_SERVER_SERVER_H_
#define EAFE_SERVE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/status.h"
#include "fpe/fpe_model.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "serve/flat_predictor.h"
#include "serve/model_store.h"
#include "serve/server/batch_queue.h"
#include "serve/server/protocol.h"

namespace eafe::serve::server {

/// Long-running eval/predict server over the serve/server/protocol.h
/// framing: loads .eafe model containers, answers scoring requests from
/// many concurrent clients, and exports the runtime metric gateway —
/// the host the "millions of users" roadmap direction asked for.
///
/// Architecture (DESIGN.md §10): two cooperating tasks on an internal
/// runtime::ThreadPool — no raw threads, so the lint wall and the TSan
/// suite cover the server like any other concurrent component.
///
///   reactor   one poll(2) loop owning the listening socket and every
///             connection's read/write buffers. Parses frames, answers
///             cheap control requests (ping / metrics / model list)
///             inline, validates predict requests against the model
///             registry, and admits them to the BatchQueue — or sheds
///             them with kShedResponse the moment the queue is full
///             (admission control: overload degrades to fast rejections,
///             never to unbounded queueing). A stalled or half-written
///             connection only ever blocks itself: all sockets are
///             non-blocking and progress is event-driven.
///
///   executor  pops micro-batches (BatchQueue::PopBatch coalesces
///             queued single-row predicts for the same model into one
///             FlatPredictor batch walk), runs the model, and hands the
///             encoded response frames back to the reactor through a
///             mutex-guarded outbox plus a self-pipe wakeup.
///
/// Tree containers (forest / gbdt) serve Predict / PredictProba rows
/// bit-identically to a direct FlatPredictor call — doubles travel as
/// IEEE-754 bit patterns and batching never reorders per-row math. FPE
/// containers score each request row as one candidate feature column
/// via FpeModel::PredictProbability (the paper's pre-evaluation filter
/// as a service).
///
/// Metrics: queue depth, batch-size and request-latency histograms,
/// shed/request/connection counters — captured from
/// runtime::GlobalMetrics() at construction, exported through the
/// kMetricsRequest exposition (install a recording gateway before
/// constructing the server).
class EafeServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 binds an ephemeral port; read the outcome from port().
    uint16_t port = 0;
    /// Admission-control bound: queued predict requests beyond this are
    /// shed with kShedResponse instead of queued.
    size_t queue_limit = 512;
    /// Micro-batch row budget per executor run.
    size_t max_batch_rows = 4096;
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Backoff hint carried in kShedResponse.
    uint32_t retry_after_ms = 20;
    /// Connections beyond this are accepted and immediately closed.
    size_t max_connections = 512;
    /// Test/bench hook: sleep this long per executed batch so a smoke
    /// run can deterministically back the queue up and prove shedding
    /// engages instead of stalling.
    uint64_t debug_batch_sleep_ms = 0;
  };

  /// Monotonic counters for tests and the load generator (relaxed
  /// atomics; a snapshot, not a synchronization point).
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;
    uint64_t requests = 0;
    uint64_t responses = 0;
    uint64_t shed = 0;
    uint64_t protocol_errors = 0;
    uint64_t batches = 0;
  };

  /// Binds and listens (so port() is final) but serves nothing until
  /// Start(). Fails with IoError if the address cannot be bound.
  static Result<std::unique_ptr<EafeServer>> Create(const Options& options);

  ~EafeServer();
  EafeServer(const EafeServer&) = delete;
  EafeServer& operator=(const EafeServer&) = delete;

  /// Registers a decoded container under `id` (the routing key predict
  /// requests name). Tree kinds are packed into a FlatPredictor; the
  /// FPE kind serves candidate scoring. Must be called before Start()
  /// — the registry is immutable while the server runs, which is what
  /// lets the reactor validate and the executor predict without locks.
  Status AddModel(const std::string& id, LoadedModel model);

  /// LoadModel(path) + AddModel.
  Status AddModelFile(const std::string& id, const std::string& path);

  /// Spawns the reactor and executor on an internal two-worker pool.
  Status Start();

  /// Signals both tasks, waits for them to exit, and closes every
  /// connection. Idempotent; the destructor calls it.
  void Stop();

  /// The bound port (resolved when Options::port was 0).
  uint16_t port() const { return port_; }

  Stats stats() const;
  size_t queue_depth() const { return queue_.depth(); }
  std::vector<std::string> model_ids() const;

 private:
  struct ModelEntry {
    ModelKind kind = ModelKind::kRandomForest;
    std::unique_ptr<FlatPredictor> predictor;  ///< Tree kinds.
    std::unique_ptr<fpe::FpeModel> fpe;        ///< FPE kind.
    /// Required request width for tree kinds; 0 for FPE (a candidate
    /// column may have any length).
    uint32_t num_features = 0;
  };

  /// Per-connection state, owned and touched by the reactor task only.
  struct Conn {
    int fd = -1;
    std::string in;   ///< Bytes received, not yet framed.
    std::string out;  ///< Encoded frames awaiting the socket.
    /// Set after a protocol violation: the error response is flushed,
    /// then the connection is closed (the stream cannot be resynced).
    bool close_after_flush = false;
  };

  explicit EafeServer(const Options& options);

  void ReactorMain();
  void ExecutorMain();

  // Reactor-side helpers.
  void AcceptPending();
  /// Reads available bytes and handles every complete frame; returns
  /// false when the connection should be dropped.
  bool HandleReadable(uint64_t conn_id, Conn* conn);
  void HandleMessage(uint64_t conn_id, Conn* conn, Message message);
  /// Writes as much of conn->out as the socket accepts; returns false
  /// when the connection should be dropped.
  bool FlushWrites(Conn* conn);
  void DrainOutbox();
  void WakeReactor();

  // Executor-side helpers.
  void ExecuteBatch(const std::vector<QueuedPredict>& batch);
  /// One FlatPredictor call over the whole batch: its outputs in request
  /// order, or the one error that fails every request.
  Result<std::vector<double>> RunTreeBatch(
      ModelEntry* entry, const std::vector<QueuedPredict>& batch);
  /// Scores each request's candidates on their own, writing them at the
  /// request's row offset in `outputs`, and returns one status per
  /// request: a bad candidate fails only the request that sent it.
  std::vector<Status> RunFpeBatch(const ModelEntry& entry,
                                  const std::vector<QueuedPredict>& batch,
                                  std::vector<double>* outputs);

  Options options_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;

  /// Immutable once Start() has run.
  std::map<std::string, ModelEntry> models_;

  BatchQueue queue_;
  std::mutex outbox_mu_;
  std::vector<std::pair<uint64_t, std::string>> outbox_;

  /// Reactor-task state: connections keyed by a never-reused id (fds
  /// are recycled by the kernel; ids are not, so responses for a dead
  /// connection are dropped instead of delivered to its fd's successor).
  std::unordered_map<uint64_t, Conn> conns_;
  uint64_t next_conn_id_ = 1;

  std::atomic<bool> running_{false};
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::future<void> reactor_done_;
  std::future<void> executor_done_;

  std::atomic<uint64_t> stat_accepted_{0};
  std::atomic<uint64_t> stat_rejected_{0};
  std::atomic<uint64_t> stat_requests_{0};
  std::atomic<uint64_t> stat_responses_{0};
  std::atomic<uint64_t> stat_shed_{0};
  std::atomic<uint64_t> stat_protocol_errors_{0};
  std::atomic<uint64_t> stat_batches_{0};

  /// Instruments captured from GlobalMetrics() at construction; owned
  /// by the gateway, which must outlive the server.
  runtime::MetricGateway* gateway_;
  runtime::MetricCounter* metric_connections_;
  runtime::MetricGauge* metric_active_connections_;
  runtime::MetricCounter* metric_requests_;
  runtime::MetricCounter* metric_shed_;
  runtime::MetricCounter* metric_protocol_errors_;
  runtime::MetricCounter* metric_batches_;
  runtime::MetricGauge* metric_queue_depth_;
  runtime::MetricHistogram* metric_batch_rows_;
  runtime::MetricHistogram* metric_request_seconds_;
  runtime::MetricCounter* metric_bytes_read_;
  runtime::MetricCounter* metric_bytes_written_;
};

}  // namespace eafe::serve::server

#endif  // EAFE_SERVE_SERVER_SERVER_H_
