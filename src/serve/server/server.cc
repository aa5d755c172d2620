#include "serve/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>  // std::this_thread::sleep_for (the debug overload hook)
#include <utility>

#include "core/string_util.h"
#include "data/dataframe.h"
#include "serve/wire.h"
#include "simd/simd.h"

namespace eafe::serve::server {
namespace {

Status Errno(const char* what) {
  return Status::IoError(StrFormat("%s: %s", what, std::strerror(errno)));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

}  // namespace

EafeServer::EafeServer(const Options& options)
    : options_(options), queue_(options.queue_limit) {
  gateway_ = runtime::GlobalMetrics();
  metric_connections_ = gateway_->Counter(
      "eafe_server_connections_accepted_total", "Connections accepted");
  metric_active_connections_ = gateway_->Gauge(
      "eafe_server_connections_active", "Connections currently open");
  metric_requests_ = gateway_->Counter("eafe_server_requests_total",
                                       "Predict requests received");
  metric_shed_ = gateway_->Counter(
      "eafe_server_shed_total",
      "Predict requests rejected by admission control");
  metric_protocol_errors_ = gateway_->Counter(
      "eafe_server_protocol_errors_total",
      "Connections dropped for malformed frames");
  metric_batches_ = gateway_->Counter("eafe_server_batches_total",
                                      "Micro-batches executed");
  metric_queue_depth_ = gateway_->Gauge("eafe_server_queue_depth",
                                        "Admitted requests awaiting the "
                                        "executor");
  metric_batch_rows_ = gateway_->Histogram(
      "eafe_server_batch_rows", "Rows coalesced per micro-batch",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096});
  metric_request_seconds_ = gateway_->Histogram(
      "eafe_server_request_seconds",
      "Admission-to-response latency of predict requests", {});
  metric_bytes_read_ = gateway_->Counter("eafe_server_bytes_read_total",
                                         "Bytes received from clients");
  metric_bytes_written_ = gateway_->Counter(
      "eafe_server_bytes_written_total", "Bytes written to clients");
}

Result<std::unique_ptr<EafeServer>> EafeServer::Create(
    const Options& options) {
  std::unique_ptr<EafeServer> server(new EafeServer(options));

  server->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (server->listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  (void)::setsockopt(server->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host: " + options.host);
  }
  if (::bind(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Errno("bind");
  }
  if (::listen(server->listen_fd_, 128) < 0) return Errno("listen");

  socklen_t addr_len = sizeof(addr);
  if (::getsockname(server->listen_fd_,
                    reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    return Errno("getsockname");
  }
  server->port_ = ntohs(addr.sin_port);
  EAFE_RETURN_NOT_OK(SetNonBlocking(server->listen_fd_));

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) return Errno("pipe");
  server->wake_read_fd_ = pipe_fds[0];
  server->wake_write_fd_ = pipe_fds[1];
  EAFE_RETURN_NOT_OK(SetNonBlocking(server->wake_read_fd_));
  EAFE_RETURN_NOT_OK(SetNonBlocking(server->wake_write_fd_));
  return server;
}

EafeServer::~EafeServer() {
  Stop();
  CloseFd(&listen_fd_);
  CloseFd(&wake_read_fd_);
  CloseFd(&wake_write_fd_);
}

Status EafeServer::AddModel(const std::string& id, LoadedModel model) {
  if (started_) {
    return Status::FailedPrecondition(
        "models must be registered before Start(); the registry is "
        "immutable while the server runs");
  }
  if (id.empty()) return Status::InvalidArgument("empty model id");
  if (models_.count(id) > 0) {
    return Status::AlreadyExists("model id already registered: " + id);
  }
  ModelEntry entry;
  entry.kind = model.kind;
  if (model.tree.has_value()) {
    EAFE_ASSIGN_OR_RETURN(FlatPredictor predictor,
                          FlatPredictor::Create(std::move(*model.tree)));
    entry.num_features = predictor.model().num_features;
    entry.predictor =
        std::make_unique<FlatPredictor>(std::move(predictor));
  } else if (model.fpe.has_value()) {
    if (!model.fpe->trained()) {
      return Status::InvalidArgument("FPE model is untrained: " + id);
    }
    entry.fpe = std::make_unique<fpe::FpeModel>(std::move(*model.fpe));
  } else {
    return Status::InvalidArgument("container holds no servable model");
  }
  models_.emplace(id, std::move(entry));
  return Status::OK();
}

Status EafeServer::AddModelFile(const std::string& id,
                                const std::string& path) {
  EAFE_ASSIGN_OR_RETURN(LoadedModel model, LoadModel(path));
  return AddModel(id, std::move(model));
}

Status EafeServer::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  started_ = true;
  running_.store(true, std::memory_order_release);
  // Reactor and executor each own one worker for the server's lifetime;
  // the pool exists so the lint wall's no-raw-threads invariant (and the
  // TSan suite's label discovery) covers the server like everything else.
  pool_ = std::make_unique<runtime::ThreadPool>(size_t{2});
  reactor_done_ = pool_->Submit([this] { ReactorMain(); });
  executor_done_ = pool_->Submit([this] { ExecutorMain(); });
  return Status::OK();
}

void EafeServer::Stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  queue_.Close();
  WakeReactor();
  if (reactor_done_.valid()) reactor_done_.wait();
  if (executor_done_.valid()) executor_done_.wait();
  pool_.reset();
  started_ = false;
}

EafeServer::Stats EafeServer::stats() const {
  Stats stats;
  stats.connections_accepted =
      stat_accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected =
      stat_rejected_.load(std::memory_order_relaxed);
  stats.requests = stat_requests_.load(std::memory_order_relaxed);
  stats.responses = stat_responses_.load(std::memory_order_relaxed);
  stats.shed = stat_shed_.load(std::memory_order_relaxed);
  stats.protocol_errors =
      stat_protocol_errors_.load(std::memory_order_relaxed);
  stats.batches = stat_batches_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<std::string> EafeServer::model_ids() const {
  std::vector<std::string> ids;
  ids.reserve(models_.size());
  for (const auto& [id, entry] : models_) ids.push_back(id);
  return ids;
}

void EafeServer::WakeReactor() {
  const char byte = 0;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  (void)!::write(wake_write_fd_, &byte, 1);
}

// ---------------------------------------------------------------------------
// Reactor: poll loop, frame parsing, admission control.

void EafeServer::ReactorMain() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> ids;  // conn id per fds entry from index 2 on
  while (running_.load(std::memory_order_acquire)) {
    fds.clear();
    ids.clear();
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    for (const auto& [id, conn] : conns_) {
      const int events = conn.out.empty() ? POLLIN : (POLLIN | POLLOUT);
      fds.push_back(pollfd{conn.fd, static_cast<short>(events), 0});
      ids.push_back(id);
    }
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; tear the server down
    }
    if ((fds[1].revents & POLLIN) != 0) {
      char drain[256];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    // Unconditional: cheap when empty, and it keeps a response posted
    // between poll() returning and the wake byte landing from waiting a
    // full cycle.
    DrainOutbox();
    if ((fds[0].revents & POLLIN) != 0) AcceptPending();
    for (size_t i = 2; i < fds.size(); ++i) {
      const uint64_t id = ids[i - 2];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn* conn = &it->second;
      bool alive = true;
      if ((fds[i].revents & POLLIN) != 0) {
        alive = HandleReadable(id, conn);
      } else if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        alive = false;
      }
      if (alive && (fds[i].revents & (POLLOUT | POLLIN)) != 0) {
        alive = FlushWrites(conn);
      }
      if (!alive) {
        CloseFd(&conn->fd);
        conns_.erase(id);
        metric_active_connections_->Add(-1.0);
      }
    }
  }
  for (auto& [id, conn] : conns_) CloseFd(&conn.fd);
  if (!conns_.empty()) {
    metric_active_connections_->Add(-static_cast<double>(conns_.size()));
  }
  conns_.clear();
}

void EafeServer::AcceptPending() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN / transient accept failure: poll again
    }
    if (conns_.size() >= options_.max_connections ||
        !SetNonBlocking(fd).ok()) {
      ::close(fd);
      stat_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.fd = fd;
    conns_.emplace(next_conn_id_++, std::move(conn));
    stat_accepted_.fetch_add(1, std::memory_order_relaxed);
    metric_connections_->Increment();
    metric_active_connections_->Add(1.0);
  }
}

bool EafeServer::HandleReadable(uint64_t conn_id, Conn* conn) {
  char buffer[64 * 1024];
  bool eof = false;
  for (;;) {
    const ssize_t got = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (got > 0) {
      conn->in.append(buffer, static_cast<size_t>(got));
      metric_bytes_read_->Increment(static_cast<uint64_t>(got));
      continue;
    }
    if (got == 0) {
      // Orderly peer shutdown. Complete frames already buffered are
      // still handled — a client may send, half-close, and vanish; its
      // admitted work proceeds and the response is dropped harmlessly
      // when the executor finds the connection gone.
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  while (!conn->close_after_flush) {
    auto framed = PeelFrame(conn->in, options_.max_frame_bytes);
    if (!framed.ok()) {
      // Oversized declared length: the stream cannot be resynced, so
      // answer once and close after the error flushes.
      conn->out += EncodeErrorResponse(0, StatusCode::kInvalidArgument,
                                       framed.status().message());
      conn->close_after_flush = true;
      stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      metric_protocol_errors_->Increment();
      break;
    }
    if (!framed->has_value()) break;  // partial frame: wait for bytes
    const FrameView view = **framed;
    Result<Message> message = ParseMessage(view.payload);
    if (!message.ok()) {
      // Best-effort request id so a pipelining client can match the
      // failure: the id sits at a fixed offset when enough bytes exist.
      uint64_t request_id = 0;
      if (view.payload.size() >= 9) {
        ByteReader reader(view.payload.substr(1, 8));
        request_id = reader.TakeU64().ValueOr(0);
      }
      conn->out += EncodeErrorResponse(request_id,
                                       StatusCode::kInvalidArgument,
                                       message.status().message());
      conn->close_after_flush = true;
      stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      metric_protocol_errors_->Increment();
    } else {
      HandleMessage(conn_id, conn, std::move(*message));
    }
    conn->in.erase(0, view.consumed);
  }
  return !eof;
}

void EafeServer::HandleMessage(uint64_t conn_id, Conn* conn,
                               Message message) {
  switch (message.type) {
    case MessageType::kPingRequest:
      conn->out += EncodePongResponse(message.request_id);
      return;
    case MessageType::kListModelsRequest:
      conn->out += EncodeModelListResponse(message.request_id, model_ids());
      return;
    case MessageType::kMetricsRequest: {
      simd::PublishDispatchCounts(gateway_);
      conn->out += EncodeMetricsResponse(message.request_id,
                                         gateway_->TextExposition());
      return;
    }
    case MessageType::kPredictRequest:
      break;
    default:
      // A response type arriving at the server is a confused peer.
      conn->out += EncodeErrorResponse(
          message.request_id, StatusCode::kInvalidArgument,
          "response message type sent to server");
      conn->close_after_flush = true;
      stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      metric_protocol_errors_->Increment();
      return;
  }

  stat_requests_.fetch_add(1, std::memory_order_relaxed);
  metric_requests_->Increment();
  const auto it = models_.find(message.model_id);
  if (it == models_.end()) {
    conn->out += EncodeErrorResponse(
        message.request_id, StatusCode::kNotFound,
        "unknown model id: " + message.model_id);
    return;
  }
  if (message.num_rows == 0) {
    conn->out += EncodeErrorResponse(message.request_id,
                                     StatusCode::kInvalidArgument,
                                     "predict request carries no rows");
    return;
  }
  if (it->second.num_features != 0 &&
      message.num_cols != it->second.num_features) {
    conn->out += EncodeErrorResponse(
        message.request_id, StatusCode::kInvalidArgument,
        StrFormat("model %s expects %u features, request carries %u",
                  message.model_id.c_str(), it->second.num_features,
                  message.num_cols));
    return;
  }

  QueuedPredict request;
  request.conn_id = conn_id;
  request.request_id = message.request_id;
  request.model_id = std::move(message.model_id);
  request.proba = message.proba;
  request.num_rows = message.num_rows;
  request.num_cols = message.num_cols;
  request.values = std::move(message.values);
  if (!queue_.TryPush(std::move(request))) {
    conn->out += EncodeShedResponse(
        message.request_id, options_.retry_after_ms,
        StrFormat("request queue full (%zu deep); retry after %u ms",
                  options_.queue_limit, options_.retry_after_ms));
    stat_shed_.fetch_add(1, std::memory_order_relaxed);
    metric_shed_->Increment();
    return;
  }
  metric_queue_depth_->Set(static_cast<double>(queue_.depth()));
}

bool EafeServer::FlushWrites(Conn* conn) {
  while (!conn->out.empty()) {
    const ssize_t wrote =
        ::send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
    if (wrote > 0) {
      conn->out.erase(0, static_cast<size_t>(wrote));
      metric_bytes_written_->Increment(static_cast<uint64_t>(wrote));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  return !(conn->out.empty() && conn->close_after_flush);
}

void EafeServer::DrainOutbox() {
  std::vector<std::pair<uint64_t, std::string>> ready;
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    ready.swap(outbox_);
  }
  for (auto& [conn_id, frame] : ready) {
    const auto it = conns_.find(conn_id);
    // A response for a connection that died mid-batch is simply dropped.
    if (it == conns_.end()) continue;
    it->second.out += frame;
  }
}

// ---------------------------------------------------------------------------
// Executor: micro-batch execution.

void EafeServer::ExecutorMain() {
  std::vector<QueuedPredict> batch;
  while (queue_.PopBatch(options_.max_batch_rows, &batch)) {
    metric_queue_depth_->Set(static_cast<double>(queue_.depth()));
    if (options_.debug_batch_sleep_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.debug_batch_sleep_ms));
    }
    ExecuteBatch(batch);
  }
}

void EafeServer::ExecuteBatch(const std::vector<QueuedPredict>& batch) {
  stat_batches_.fetch_add(1, std::memory_order_relaxed);
  metric_batches_->Increment();
  size_t total_rows = 0;
  for (const QueuedPredict& request : batch) total_rows += request.num_rows;
  metric_batch_rows_->Observe(static_cast<double>(total_rows));

  // The registry is immutable post-Start, so this lookup is lock-free;
  // the reactor already rejected unknown ids at admission. A tree batch
  // is one predictor call, so `batch_status` answers all of it; the FPE
  // route fills `request_status`, one per request.
  const auto it = models_.find(batch.front().model_id);
  std::vector<double> outputs;
  Status batch_status;
  std::vector<Status> request_status;
  if (it == models_.end()) {
    batch_status =
        Status::Internal("model vanished: " + batch.front().model_id);
  } else if (it->second.predictor != nullptr) {
    Result<std::vector<double>> tree = RunTreeBatch(&it->second, batch);
    if (tree.ok()) {
      outputs = std::move(tree).ValueOrDie();
    } else {
      batch_status = tree.status();
    }
  } else {
    request_status = RunFpeBatch(it->second, batch, &outputs);
  }

  std::vector<std::pair<uint64_t, std::string>> ready;
  ready.reserve(batch.size());
  size_t offset = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueuedPredict& request = batch[i];
    const Status& status =
        request_status.empty() ? batch_status : request_status[i];
    std::string frame;
    if (status.ok()) {
      frame = EncodePredictResponse(request.request_id,
                                    outputs.data() + offset,
                                    request.num_rows);
    } else {
      frame = EncodeErrorResponse(request.request_id, status.code(),
                                  status.message());
    }
    offset += request.num_rows;
    metric_request_seconds_->Observe(request.queued.ElapsedSeconds());
    stat_responses_.fetch_add(1, std::memory_order_relaxed);
    ready.emplace_back(request.conn_id, std::move(frame));
  }
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    for (auto& entry : ready) outbox_.push_back(std::move(entry));
  }
  WakeReactor();
}

Result<std::vector<double>> EafeServer::RunTreeBatch(
    ModelEntry* entry, const std::vector<QueuedPredict>& batch) {
  // Gather the row-major request blocks into one column-major frame —
  // the coalesced FlatPredictor walk that makes single-row predicts
  // cheap. Per-row math is independent, so batching preserves bits.
  size_t total_rows = 0;
  for (const QueuedPredict& request : batch) total_rows += request.num_rows;
  const size_t num_cols = batch.front().num_cols;
  data::DataFrame frame;
  std::vector<double> column(total_rows);
  for (size_t c = 0; c < num_cols; ++c) {
    size_t row = 0;
    for (const QueuedPredict& request : batch) {
      for (size_t r = 0; r < request.num_rows; ++r) {
        column[row++] = request.values[r * num_cols + c];
      }
    }
    EAFE_RETURN_NOT_OK(frame.AddColumn(
        data::Column("f" + std::to_string(c), column)));
  }
  return batch.front().proba ? entry->predictor->PredictProba(frame)
                             : entry->predictor->Predict(frame);
}

std::vector<Status> EafeServer::RunFpeBatch(
    const ModelEntry& entry, const std::vector<QueuedPredict>& batch,
    std::vector<double>* outputs) {
  // Each request row is one candidate feature column; the reply is the
  // FPE usefulness probability per candidate (the paper's
  // pre-evaluation filter served remotely). `proba` is implied. The
  // queue coalesces requests from different connections, so a failing
  // candidate stops only its own request.
  std::vector<Status> statuses;
  statuses.reserve(batch.size());
  std::vector<double> candidate;
  for (const QueuedPredict& request : batch) {
    const size_t width = request.num_cols;
    const size_t offset = outputs->size();
    outputs->resize(offset + request.num_rows);
    Status status;
    for (size_t r = 0; r < request.num_rows; ++r) {
      candidate.assign(request.values.begin() +
                           static_cast<ptrdiff_t>(r * width),
                       request.values.begin() +
                           static_cast<ptrdiff_t>((r + 1) * width));
      Result<double> probability = entry.fpe->PredictProbability(candidate);
      if (!probability.ok()) {
        status = probability.status();
        break;
      }
      (*outputs)[offset + r] =
          request.proba ? *probability : (*probability >= 0.5 ? 1.0 : 0.0);
    }
    statuses.push_back(std::move(status));
  }
  return statuses;
}

}  // namespace eafe::serve::server
