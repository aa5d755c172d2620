// eafe_loadgen — synthetic load client for eafe_server, and the serve
// CI suite's correctness probe:
//
//   eafe_loadgen --port-file server.port --model-file model.eafe --smoke
//       Correctness gate: ping / list-models / metrics round trips, then
//       pipelined single-row predicts whose replies must be bit-identical
//       to a direct FlatPredictor run on the same container.
//
//   eafe_loadgen --port-file server.port --expect-shed [--requests 64]
//       Overload gate: pipelines a burst at a server configured with a
//       tiny queue (and --debug-batch-sleep-ms) and fails unless at
//       least one request was shed AND every request was answered —
//       overload must degrade to fast rejection, not a stall.
//
//   eafe_loadgen --port-file server.port --model-file model.eafe
//       [--connections 8] [--requests 200] [--rows 1] [--out BENCH_serve.json]
//       Load run: N concurrent connections each issue M predict calls,
//       then sustained QPS and p50/p99 latency are appended as one
//       BENCH_serve.json line (stdout when --out is empty).
//
// Deterministic throughout: request payloads come from the seeded
// project Rng, so reruns send identical bytes.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/flags.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/string_util.h"
#include "data/dataframe.h"
#include "runtime/thread_pool.h"
#include "serve/flat_predictor.h"
#include "serve/model_store.h"
#include "serve/server/client.h"

namespace eafe::serve::server {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

Result<uint16_t> ResolvePort(const FlagParser& flags) {
  if (flags.GetInt("port") != 0) {
    return static_cast<uint16_t>(flags.GetInt("port"));
  }
  const std::string path = flags.GetString("port-file");
  if (path.empty()) {
    return Status::InvalidArgument("pass --port or --port-file");
  }
  std::ifstream file(path);
  int port = 0;
  if (!(file >> port) || port <= 0 || port > 65535) {
    return Status::IoError("no usable port in " + path);
  }
  return static_cast<uint16_t>(port);
}

/// Row-major request payload for (connection, request): deterministic,
/// so the smoke gate can regenerate the exact bytes when computing the
/// expected predictions locally.
std::vector<double> RequestValues(uint64_t seed, size_t connection,
                                  size_t request, size_t rows,
                                  size_t cols) {
  Rng rng(seed + connection * 1000003 + request * 7919);
  std::vector<double> values(rows * cols);
  for (double& v : values) v = rng.Uniform(-3.0, 3.0);
  return values;
}

/// Column-major frame over one row-major block, matching the frame the
/// server gathers internally.
Result<data::DataFrame> FrameOf(const std::vector<double>& values,
                                size_t rows, size_t cols) {
  data::DataFrame frame;
  std::vector<double> column(rows);
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) column[r] = values[r * cols + c];
    EAFE_RETURN_NOT_OK(
        frame.AddColumn(data::Column("f" + std::to_string(c), column)));
  }
  return frame;
}

struct SmokeConfig {
  std::string host;
  uint16_t port = 0;
  std::string model_id;
  std::string model_file;
  uint64_t seed = 0;
  size_t requests = 32;
};

/// The serve suite's correctness gate; returns non-OK on any mismatch.
Status RunSmoke(const SmokeConfig& config) {
  EAFE_ASSIGN_OR_RETURN(LoadedModel container,
                        LoadModel(config.model_file));
  if (!container.tree.has_value()) {
    return Status::InvalidArgument(
        "--smoke needs a tree container (forest or gbdt)");
  }
  EAFE_ASSIGN_OR_RETURN(FlatPredictor reference,
                        FlatPredictor::Create(std::move(*container.tree)));
  const size_t cols = reference.model().num_features;

  EAFE_ASSIGN_OR_RETURN(BlockingClient client,
                        BlockingClient::Connect(config.host, config.port));

  // Control plane first: ping, the model list, and a non-empty
  // exposition.
  EAFE_ASSIGN_OR_RETURN(Message pong, client.Ping(1));
  if (pong.type != MessageType::kPongResponse || pong.request_id != 1) {
    return Status::Internal("ping round trip failed");
  }
  EAFE_ASSIGN_OR_RETURN(std::vector<std::string> models,
                        client.ListModels(2));
  if (std::find(models.begin(), models.end(), config.model_id) ==
      models.end()) {
    return Status::Internal("model list misses " + config.model_id);
  }
  EAFE_ASSIGN_OR_RETURN(std::string exposition, client.Metrics(3));
  if (exposition.find("eafe_server_requests_total") == std::string::npos) {
    return Status::Internal("metrics exposition misses server counters");
  }

  // Pipelined single-row predicts: all requests go out before any reply
  // is read, so the server's micro-batcher sees them together; every
  // reply must still be bit-identical to the direct FlatPredictor run.
  for (const bool proba : {false, true}) {
    std::vector<std::vector<double>> payloads;
    for (size_t i = 0; i < config.requests; ++i) {
      payloads.push_back(
          RequestValues(config.seed + (proba ? 500000 : 0), 0, i, 1,
                        cols));
      EAFE_RETURN_NOT_OK(client.SendPredict(
          100 + i, config.model_id, proba, 1,
          static_cast<uint32_t>(cols), payloads.back()));
    }
    std::vector<bool> seen(config.requests, false);
    for (size_t i = 0; i < config.requests; ++i) {
      EAFE_ASSIGN_OR_RETURN(Message reply, client.ReadReply());
      if (reply.type != MessageType::kPredictResponse) {
        return Status::Internal(StrFormat(
            "predict reply %zu has type %u", i,
            static_cast<unsigned>(reply.type)));
      }
      if (reply.request_id < 100 ||
          reply.request_id >= 100 + config.requests) {
        return Status::Internal("reply carries an unknown request id");
      }
      const size_t index = static_cast<size_t>(reply.request_id - 100);
      if (seen[index]) return Status::Internal("duplicate reply id");
      seen[index] = true;
      EAFE_ASSIGN_OR_RETURN(data::DataFrame frame,
                            FrameOf(payloads[index], 1, cols));
      EAFE_ASSIGN_OR_RETURN(std::vector<double> expected,
                            proba ? reference.PredictProba(frame)
                                  : reference.Predict(frame));
      if (reply.values.size() != expected.size() ||
          std::memcmp(reply.values.data(), expected.data(),
                      expected.size() * sizeof(double)) != 0) {
        return Status::Internal(StrFormat(
            "request %zu (proba=%d): served bits differ from direct "
            "FlatPredictor",
            index, proba ? 1 : 0));
      }
    }
  }

  // A malformed follow-up must produce a typed error, not a hang or a
  // poisoned stream for other clients.
  EAFE_ASSIGN_OR_RETURN(BlockingClient bad,
                        BlockingClient::Connect(config.host, config.port));
  EAFE_RETURN_NOT_OK(bad.SendBytes(std::string("\x05\x00\x00\x00jnked", 9)));
  EAFE_ASSIGN_OR_RETURN(Message error, bad.ReadReply());
  if (error.type != MessageType::kErrorResponse) {
    return Status::Internal("garbage frame did not yield an error");
  }
  std::printf("smoke ok: %zu pipelined requests x2 bit-identical, "
              "control plane healthy\n",
              config.requests);
  return Status::OK();
}

/// The overload gate: burst a pipelined batch of oversized requests and
/// demand both shedding and complete draining.
Status RunExpectShed(const std::string& host, uint16_t port,
                     const std::string& model_id, size_t requests,
                     size_t cols, uint64_t seed) {
  EAFE_ASSIGN_OR_RETURN(BlockingClient client,
                        BlockingClient::Connect(host, port));
  for (size_t i = 0; i < requests; ++i) {
    EAFE_RETURN_NOT_OK(client.SendPredict(
        i + 1, model_id, false, 1, static_cast<uint32_t>(cols),
        RequestValues(seed, 9, i, 1, cols)));
  }
  size_t ok = 0, shed = 0, other = 0;
  for (size_t i = 0; i < requests; ++i) {
    EAFE_ASSIGN_OR_RETURN(Message reply, client.ReadReply());
    if (reply.type == MessageType::kPredictResponse) {
      ++ok;
    } else if (reply.type == MessageType::kShedResponse) {
      ++shed;
      if (reply.code == 0) {
        return Status::Internal("shed response carries no retry hint");
      }
    } else {
      ++other;
    }
  }
  std::printf("expect-shed: %zu ok, %zu shed, %zu other\n", ok, shed,
              other);
  if (other != 0) return Status::Internal("unexpected reply types");
  if (shed == 0) {
    return Status::Internal(
        "no request was shed — admission control never engaged");
  }
  if (ok == 0) {
    return Status::Internal("every request was shed — nothing served");
  }
  return Status::OK();
}

struct ConnResult {
  std::vector<double> latencies_ms;
  size_t ok = 0;
  size_t shed = 0;
  size_t errors = 0;
  Status status = Status::OK();
};

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[index];
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("host", "127.0.0.1", "server address")
      .AddInt("port", 0, "server port (0: read --port-file)", 0, 65535)
      .AddString("port-file", "", "file holding the server port")
      .AddString("model-id", "default", "model to query")
      .AddString("model-file", "",
                 "container for local reference predictions")
      .AddInt("connections", 8, "concurrent connections")
      .AddInt("requests", 200, "requests per connection")
      .AddInt("rows", 1, "rows per predict request")
      .AddInt("cols", 0, "request width (default: model num_features)", 0,
              std::numeric_limits<uint32_t>::max())
      .AddInt("seed", 17, "payload rng seed")
      .AddBool("proba", false, "ask for probabilities")
      .AddBool("smoke", false, "run the correctness gate and exit")
      .AddBool("expect-shed", false, "run the overload gate and exit")
      .AddString("out", "", "append the bench line here (default stdout)");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed);

  auto port = ResolvePort(flags);
  if (!port.ok()) return Fail(port.status());
  const std::string host = flags.GetString("host");
  const std::string model_id = flags.GetString("model-id");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const size_t requests = static_cast<size_t>(
      std::max<int64_t>(flags.GetInt("requests"), 1));

  size_t cols = static_cast<size_t>(flags.GetInt("cols"));
  std::unique_ptr<FlatPredictor> reference;
  if (!flags.GetString("model-file").empty()) {
    auto container = LoadModel(flags.GetString("model-file"));
    if (!container.ok()) return Fail(container.status());
    if (container->tree.has_value()) {
      auto predictor = FlatPredictor::Create(std::move(*container->tree));
      if (!predictor.ok()) return Fail(predictor.status());
      reference = std::make_unique<FlatPredictor>(std::move(*predictor));
      if (cols == 0) cols = reference->model().num_features;
    }
  }
  if (cols == 0) {
    return Fail(Status::InvalidArgument(
        "pass --cols or a tree --model-file to size the payload"));
  }

  if (flags.GetBool("smoke")) {
    SmokeConfig config;
    config.host = host;
    config.port = *port;
    config.model_id = model_id;
    config.model_file = flags.GetString("model-file");
    config.seed = seed;
    config.requests = requests;
    const Status status = RunSmoke(config);
    return status.ok() ? 0 : Fail(status);
  }
  if (flags.GetBool("expect-shed")) {
    const Status status =
        RunExpectShed(host, *port, model_id, requests, cols, seed);
    return status.ok() ? 0 : Fail(status);
  }

  // Load run: one pool task per connection; results merge in index
  // order once every task joined, so the output is deterministic modulo
  // the measured times themselves.
  const size_t connections = static_cast<size_t>(
      std::max<int64_t>(flags.GetInt("connections"), 1));
  const size_t rows =
      static_cast<size_t>(std::max<int64_t>(flags.GetInt("rows"), 1));
  const bool proba = flags.GetBool("proba");
  std::vector<ConnResult> results(connections);
  runtime::ThreadPool pool(connections);
  Stopwatch wall;
  {
    std::vector<std::future<void>> joins;
    for (size_t c = 0; c < connections; ++c) {
      joins.push_back(pool.Submit([&, c] {
        ConnResult& mine = results[c];
        auto client = BlockingClient::Connect(host, *port);
        if (!client.ok()) {
          mine.status = client.status();
          return;
        }
        for (size_t i = 0; i < requests; ++i) {
          const std::vector<double> values =
              RequestValues(seed, c, i, rows, cols);
          Stopwatch timer;
          auto reply = client->Predict(i + 1, model_id, proba,
                                       static_cast<uint32_t>(rows),
                                       static_cast<uint32_t>(cols),
                                       values);
          if (!reply.ok()) {
            mine.status = reply.status();
            return;
          }
          mine.latencies_ms.push_back(timer.ElapsedMillis());
          if (reply->type == MessageType::kPredictResponse) {
            ++mine.ok;
          } else if (reply->type == MessageType::kShedResponse) {
            ++mine.shed;
          } else {
            ++mine.errors;
          }
        }
      }));
    }
    for (auto& join : joins) join.wait();
  }
  const double wall_seconds = wall.ElapsedSeconds();

  size_t ok = 0, shed = 0, errors = 0;
  std::vector<double> latencies;
  for (const ConnResult& result : results) {
    if (!result.status.ok()) return Fail(result.status);
    ok += result.ok;
    shed += result.shed;
    errors += result.errors;
    latencies.insert(latencies.end(), result.latencies_ms.begin(),
                     result.latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double qps =
      wall_seconds > 0.0 ? static_cast<double>(ok) / wall_seconds : 0.0;
  const std::string line = StrFormat(
      "{\"bench\": \"serve_load\", \"connections\": %zu, "
      "\"requests\": %zu, \"rows_per_request\": %zu, \"ok\": %zu, "
      "\"shed\": %zu, \"errors\": %zu, \"wall_seconds\": %.6f, "
      "\"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}\n",
      connections, connections * requests, rows, ok, shed, errors,
      wall_seconds, qps, Percentile(latencies, 0.50),
      Percentile(latencies, 0.99));
  if (flags.GetString("out").empty()) {
    std::fputs(line.c_str(), stdout);
  } else {
    std::ofstream out(flags.GetString("out"), std::ios::app);
    out << line;
    if (!out) {
      return Fail(Status::IoError("cannot append to " +
                                  flags.GetString("out")));
    }
    std::fputs(line.c_str(), stdout);
  }
  if (errors != 0) return Fail("load run saw error replies");
  return 0;
}

}  // namespace
}  // namespace eafe::serve::server

int main(int argc, char** argv) {
  return eafe::serve::server::Main(argc, argv);
}
