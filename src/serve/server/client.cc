#include "serve/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/string_util.h"

namespace eafe::serve::server {

Result<BlockingClient> BlockingClient::Connect(const std::string& host,
                                               uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(StrFormat("socket: %s", std::strerror(errno)));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparseable host: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const Status status =
        Status::IoError(StrFormat("connect %s:%u: %s", host.c_str(),
                                  static_cast<unsigned>(port),
                                  std::strerror(errno)));
    ::close(fd);
    return status;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return BlockingClient(fd);
}

BlockingClient::BlockingClient(BlockingClient&& other) noexcept
    : fd_(other.fd_), in_(std::move(other.in_)) {
  other.fd_ = -1;
}

BlockingClient& BlockingClient::operator=(BlockingClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    in_ = std::move(other.in_);
    other.fd_ = -1;
  }
  return *this;
}

BlockingClient::~BlockingClient() { Close(); }

void BlockingClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status BlockingClient::SendBytes(std::string_view bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("client is closed");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t wrote = ::send(fd_, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StrFormat("send: %s", std::strerror(errno)));
    }
    sent += static_cast<size_t>(wrote);
  }
  return Status::OK();
}

Result<Message> BlockingClient::ReadReply() {
  if (fd_ < 0) return Status::FailedPrecondition("client is closed");
  for (;;) {
    EAFE_ASSIGN_OR_RETURN(std::optional<FrameView> frame,
                          PeelFrame(in_, kDefaultMaxFrameBytes));
    if (frame.has_value()) {
      Result<Message> message = ParseMessage(frame->payload);
      in_.erase(0, frame->consumed);
      return message;
    }
    char buffer[64 * 1024];
    const ssize_t got = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (got > 0) {
      in_.append(buffer, static_cast<size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return Status::IoError(got == 0
                               ? "server closed the connection"
                               : StrFormat("recv: %s",
                                           std::strerror(errno)));
  }
}

Status BlockingClient::SendPredict(uint64_t request_id,
                                   const std::string& model_id, bool proba,
                                   uint32_t num_rows, uint32_t num_cols,
                                   const std::vector<double>& values) {
  return SendBytes(EncodePredictRequest(request_id, model_id, proba,
                                        num_rows, num_cols, values));
}

Result<Message> BlockingClient::Predict(uint64_t request_id,
                                        const std::string& model_id,
                                        bool proba, uint32_t num_rows,
                                        uint32_t num_cols,
                                        const std::vector<double>& values) {
  EAFE_RETURN_NOT_OK(SendPredict(request_id, model_id, proba, num_rows,
                                 num_cols, values));
  return ReadReply();
}

Result<Message> BlockingClient::Ping(uint64_t request_id) {
  EAFE_RETURN_NOT_OK(SendBytes(EncodePingRequest(request_id)));
  return ReadReply();
}

Result<std::string> BlockingClient::Metrics(uint64_t request_id) {
  EAFE_RETURN_NOT_OK(SendBytes(EncodeMetricsRequest(request_id)));
  EAFE_ASSIGN_OR_RETURN(Message reply, ReadReply());
  if (reply.type != MessageType::kMetricsResponse) {
    return Status::Internal("unexpected reply type to metrics request");
  }
  return std::move(reply.text);
}

Result<std::vector<std::string>> BlockingClient::ListModels(
    uint64_t request_id) {
  EAFE_RETURN_NOT_OK(SendBytes(EncodeListModelsRequest(request_id)));
  EAFE_ASSIGN_OR_RETURN(Message reply, ReadReply());
  if (reply.type != MessageType::kModelListResponse) {
    return Status::Internal("unexpected reply type to list-models request");
  }
  return std::move(reply.names);
}

}  // namespace eafe::serve::server
