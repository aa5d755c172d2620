// eafe_server — long-running eval/predict server over the framing in
// src/serve/server/protocol.h:
//
//   eafe_server --model-file model.eafe [--model-id default]
//               [--models id=path,id2=path2] [--host 127.0.0.1]
//               [--port 0] [--port-file server.port]
//               [--queue-limit 512] [--batch-rows 4096]
//               [--retry-after-ms 20] [--max-connections 512]
//               [--debug-batch-sleep-ms 0] [--metrics]
//
// Loads one or more .eafe model containers, binds (port 0 picks an
// ephemeral port, written to --port-file for scripts), and serves
// predict / candidate-evaluation requests until SIGINT or SIGTERM.
// A text metric gateway is always installed so kMetricsRequest returns
// a real exposition; --metrics additionally dumps it to stderr at
// shutdown. --debug-batch-sleep-ms exists for the shed smoke test: it
// slows the executor so a tiny --queue-limit provably sheds instead of
// stalling.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/flags.h"
#include "runtime/metrics.h"
#include "serve/server/server.h"

namespace eafe::serve::server {
namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Splits "id=path,id2=path2" into (id, path) pairs.
Result<std::vector<std::pair<std::string, std::string>>> ParseModelList(
    const std::string& spec) {
  std::vector<std::pair<std::string, std::string>> models;
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(begin, end - begin);
    if (!item.empty()) {
      const size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
        return Status::InvalidArgument(
            "--models entries must look like id=path: " + item);
      }
      models.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    }
    begin = end + 1;
  }
  return models;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("model-file", "", "model container to serve")
      .AddString("model-id", "default", "routing id for --model-file")
      .AddString("models", "", "extra models as id=path,id2=path2")
      .AddString("host", "127.0.0.1", "bind address")
      .AddInt("port", 0, "bind port (0 picks an ephemeral port)", 0, 65535)
      .AddString("port-file", "", "write the bound port to this file")
      .AddInt("queue-limit", 512, "admission-control queue depth", 0)
      .AddInt("batch-rows", 4096, "micro-batch row budget", 0)
      .AddInt("retry-after-ms", 20, "backoff hint in shed responses", 0,
              std::numeric_limits<uint32_t>::max())
      .AddInt("max-connections", 512, "concurrent connection cap", 0)
      .AddInt("debug-batch-sleep-ms", 0,
              "test hook: sleep per batch to force overload", 0)
      .AddBool("metrics", false, "dump the metric exposition at shutdown");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed);

  // Installed before the server so its instruments land here; the
  // server's kMetricsRequest exposes this gateway over the socket.
  runtime::TextMetricGateway gateway;
  runtime::SetGlobalMetrics(&gateway);

  EafeServer::Options options;
  options.host = flags.GetString("host");
  options.port = static_cast<uint16_t>(flags.GetInt("port"));
  options.queue_limit = static_cast<size_t>(flags.GetInt("queue-limit"));
  options.max_batch_rows = static_cast<size_t>(flags.GetInt("batch-rows"));
  options.retry_after_ms =
      static_cast<uint32_t>(flags.GetInt("retry-after-ms"));
  options.max_connections =
      static_cast<size_t>(flags.GetInt("max-connections"));
  options.debug_batch_sleep_ms =
      static_cast<uint64_t>(flags.GetInt("debug-batch-sleep-ms"));

  auto server = EafeServer::Create(options);
  if (!server.ok()) return Fail(server.status());

  if (!flags.GetString("model-file").empty()) {
    const Status added = (*server)->AddModelFile(
        flags.GetString("model-id"), flags.GetString("model-file"));
    if (!added.ok()) return Fail(added);
  }
  auto extra = ParseModelList(flags.GetString("models"));
  if (!extra.ok()) return Fail(extra.status());
  for (const auto& [id, path] : *extra) {
    const Status added = (*server)->AddModelFile(id, path);
    if (!added.ok()) return Fail(added);
  }
  if ((*server)->model_ids().empty()) {
    return Fail(Status::InvalidArgument(
        "no models: pass --model-file and/or --models"));
  }

  const Status started = (*server)->Start();
  if (!started.ok()) return Fail(started);

  if (!flags.GetString("port-file").empty()) {
    std::ofstream port_file(flags.GetString("port-file"),
                            std::ios::trunc);
    port_file << (*server)->port() << "\n";
    if (!port_file) {
      return Fail(Status::IoError("cannot write --port-file " +
                                  flags.GetString("port-file")));
    }
  }
  std::printf("eafe_server listening on %s:%u (%zu model%s)\n",
              options.host.c_str(),
              static_cast<unsigned>((*server)->port()),
              (*server)->model_ids().size(),
              (*server)->model_ids().size() == 1 ? "" : "s");
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  (*server)->Stop();
  const EafeServer::Stats stats = (*server)->stats();
  std::fprintf(stderr,
               "eafe_server: %llu requests, %llu responses, %llu shed, "
               "%llu protocol errors, %llu batches\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.responses),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.protocol_errors),
               static_cast<unsigned long long>(stats.batches));
  if (flags.GetBool("metrics")) {
    std::fprintf(stderr, "%s", gateway.TextExposition().c_str());
  }
  runtime::SetGlobalMetrics(nullptr);
  return 0;
}

}  // namespace
}  // namespace eafe::serve::server

int main(int argc, char** argv) {
  return eafe::serve::server::Main(argc, argv);
}
