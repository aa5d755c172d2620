#ifndef EAFE_SERVE_SERVER_CLIENT_H_
#define EAFE_SERVE_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "serve/server/protocol.h"

namespace eafe::serve::server {

/// Blocking single-connection client for EafeServer: the load
/// generator's workhorse and the test suite's probe. One instance owns
/// one TCP connection; it is not thread-safe (the load generator opens
/// one client per concurrent connection instead).
///
/// Requests can be pipelined: issue several Send* calls, then match the
/// replies to requests by Message::request_id — the server may answer
/// out of submission order when admission control sheds some of them.
/// SendBytes exists so robustness tests can write truncated, oversized,
/// or garbage frames (and slow-loris fragments) that the encode helpers
/// refuse to produce.
class BlockingClient {
 public:
  static Result<BlockingClient> Connect(const std::string& host,
                                        uint16_t port);

  BlockingClient(BlockingClient&& other) noexcept;
  BlockingClient& operator=(BlockingClient&& other) noexcept;
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;
  ~BlockingClient();

  /// Writes raw bytes to the socket — no framing, no validation.
  Status SendBytes(std::string_view bytes);

  /// Blocks until one complete frame arrives and parses it. IoError on
  /// disconnect, InvalidArgument on an unparseable reply.
  Result<Message> ReadReply();

  Status SendPredict(uint64_t request_id, const std::string& model_id,
                     bool proba, uint32_t num_rows, uint32_t num_cols,
                     const std::vector<double>& values);

  /// SendPredict + ReadReply. The reply may be kPredictResponse,
  /// kShedResponse, or kErrorResponse — the caller dispatches on type.
  Result<Message> Predict(uint64_t request_id, const std::string& model_id,
                          bool proba, uint32_t num_rows, uint32_t num_cols,
                          const std::vector<double>& values);

  Result<Message> Ping(uint64_t request_id);
  Result<std::string> Metrics(uint64_t request_id);
  Result<std::vector<std::string>> ListModels(uint64_t request_id);

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  explicit BlockingClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string in_;  ///< Bytes received ahead of the frame being read.
};

}  // namespace eafe::serve::server

#endif  // EAFE_SERVE_SERVER_CLIENT_H_
