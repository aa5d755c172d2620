#include "serve/server/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "data/synthetic.h"
#include "fpe/fpe_model.h"
#include "ml/random_forest.h"
#include "runtime/metrics.h"
#include "serve/flat_predictor.h"
#include "serve/model_store.h"
#include "serve/server/client.h"
#include "serve/wire.h"
#include "tests/fpe/fpe_test_util.h"

namespace eafe::serve::server {
namespace {

constexpr uint32_t kCols = 7;

data::Dataset MakeData(uint64_t seed, size_t rows = 120) {
  data::SyntheticSpec spec;
  spec.task = data::TaskType::kClassification;
  spec.num_samples = rows;
  spec.num_features = kCols;
  spec.seed = seed;
  return data::MakeSynthetic(spec).ValueOrDie();
}

LoadedModel MakeForestModel(uint64_t seed) {
  ml::RandomForest::Options options;
  options.task = data::TaskType::kClassification;
  options.num_trees = 5;
  options.seed = seed;
  ml::RandomForest forest(options);
  const data::Dataset data = MakeData(seed);
  EXPECT_TRUE(forest.Fit(data.features, data.labels).ok());
  return DeserializeModel(SerializeForest(forest).ValueOrDie())
      .ValueOrDie();
}

/// Row-major block of query rows plus a local FlatPredictor to compute
/// the reference bits from the same container bytes the server loads.
struct Fixture {
  std::unique_ptr<EafeServer> server;
  std::unique_ptr<FlatPredictor> reference;
};

Fixture MakeServer(const EafeServer::Options& options = {}) {
  Fixture fixture;
  fixture.server = EafeServer::Create(options).ValueOrDie();
  LoadedModel model = MakeForestModel(31);
  fixture.reference = std::make_unique<FlatPredictor>(
      FlatPredictor::Create(*model.tree).ValueOrDie());
  EXPECT_TRUE(
      fixture.server->AddModel("forest", std::move(model)).ok());
  EXPECT_TRUE(fixture.server->Start().ok());
  return fixture;
}

std::vector<double> RowMajor(const data::DataFrame& frame) {
  std::vector<double> values(frame.num_rows() * frame.num_columns());
  for (size_t c = 0; c < frame.num_columns(); ++c) {
    const std::vector<double>& column = frame.column(c).values();
    for (size_t r = 0; r < frame.num_rows(); ++r) {
      values[r * frame.num_columns() + c] = column[r];
    }
  }
  return values;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  ASSERT_EQ(std::memcmp(got.data(), expected.data(),
                        got.size() * sizeof(double)),
            0);
}

TEST(EafeServerTest, StartStopIsCleanAndIdempotent) {
  Fixture fixture = MakeServer();
  EXPECT_GT(fixture.server->port(), 0);
  EXPECT_EQ(fixture.server->model_ids(),
            (std::vector<std::string>{"forest"}));
  fixture.server->Stop();
  fixture.server->Stop();  // idempotent
}

// The acceptance bar: responses are bit-identical to a direct
// FlatPredictor run on the same container, for whole batches and for
// pipelined single rows the server coalesces itself.
TEST(EafeServerTest, BatchPredictMatchesDirectPredictorBitForBit) {
  Fixture fixture = MakeServer();
  const data::Dataset query = MakeData(77, 40);
  const std::vector<double> values = RowMajor(query.features);

  BlockingClient client =
      BlockingClient::Connect("127.0.0.1", fixture.server->port())
          .ValueOrDie();
  for (const bool proba : {false, true}) {
    const Message reply =
        client
            .Predict(proba ? 2 : 1, "forest", proba,
                     static_cast<uint32_t>(query.features.num_rows()),
                     kCols, values)
            .ValueOrDie();
    ASSERT_EQ(reply.type, MessageType::kPredictResponse);
    ExpectSameBits(reply.values,
                   (proba ? fixture.reference->PredictProba(query.features)
                          : fixture.reference->Predict(query.features))
                       .ValueOrDie());
  }
}

TEST(EafeServerTest, PipelinedSingleRowsCoalesceWithoutChangingBits) {
  // A short executor delay makes coalescing deterministic: while batch
  // one sleeps, the rest of the pipelined burst accumulates and must be
  // drained as (at most a few) larger batches.
  EafeServer::Options options;
  options.debug_batch_sleep_ms = 5;
  Fixture fixture = MakeServer(options);
  const data::Dataset query = MakeData(91, 24);
  const std::vector<double> values = RowMajor(query.features);
  const std::vector<double> expected =
      fixture.reference->Predict(query.features).ValueOrDie();

  BlockingClient client =
      BlockingClient::Connect("127.0.0.1", fixture.server->port())
          .ValueOrDie();
  const size_t rows = query.features.num_rows();
  for (size_t r = 0; r < rows; ++r) {
    const std::vector<double> row(values.begin() + r * kCols,
                                  values.begin() + (r + 1) * kCols);
    ASSERT_TRUE(client.SendPredict(r, "forest", false, 1, kCols, row).ok());
  }
  std::vector<double> got(rows, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    const Message reply = client.ReadReply().ValueOrDie();
    ASSERT_EQ(reply.type, MessageType::kPredictResponse);
    ASSERT_LT(reply.request_id, rows);
    ASSERT_EQ(reply.values.size(), 1u);
    got[reply.request_id] = reply.values[0];
  }
  ExpectSameBits(got, expected);
  // The pipelined burst should have been answered in strictly fewer
  // batches than requests — the micro-batcher did coalesce.
  EXPECT_LT(fixture.server->stats().batches,
            fixture.server->stats().responses);
}

/// A small trained FPE model: the reference the served copy must match.
fpe::FpeModel TrainFpe() {
  fpe::FpeModel model;
  Rng rng(5);
  std::vector<fpe::LabeledFeature> train;
  for (size_t i = 0; i < 60; ++i) {
    fpe::LabeledFeature f;
    f.label = i % 2 == 0 ? 1 : 0;
    f.values.resize(64);
    for (double& v : f.values) {
      v = f.label == 1 ? rng.Uniform(0.5, 3.0) : rng.Uniform(0.0, 1.0);
    }
    train.push_back(std::move(f));
  }
  EXPECT_TRUE(model.Train(train).ok());
  return model;
}

/// A started server serving `model` as "fpe".
std::unique_ptr<EafeServer> StartFpeServer(
    const fpe::FpeModel& model, const EafeServer::Options& options = {}) {
  std::unique_ptr<EafeServer> server =
      EafeServer::Create(options).ValueOrDie();
  EXPECT_TRUE(
      server
          ->AddModel("fpe",
                     DeserializeModel(SerializeFpe(model).ValueOrDie())
                         .ValueOrDie())
          .ok());
  EXPECT_TRUE(server->Start().ok());
  return server;
}

/// Spins until `done()` holds, for at most 10 s; returns whether it did.
template <typename Predicate>
bool WaitFor(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(EafeServerTest, FpeModelScoresCandidateRows) {
  const fpe::FpeModel reference = TrainFpe();
  std::unique_ptr<EafeServer> server = StartFpeServer(reference);

  // Two candidate feature columns of width 32 in one request.
  Rng rng(9);
  std::vector<double> values(2 * 32);
  for (double& v : values) v = rng.Uniform(0.0, 2.0);
  BlockingClient client =
      BlockingClient::Connect("127.0.0.1", server->port()).ValueOrDie();
  const Message reply =
      client.Predict(1, "fpe", true, 2, 32, values).ValueOrDie();
  ASSERT_EQ(reply.type, MessageType::kPredictResponse);
  ASSERT_EQ(reply.values.size(), 2u);
  for (size_t r = 0; r < 2; ++r) {
    const std::vector<double> row(values.begin() + r * 32,
                                  values.begin() + (r + 1) * 32);
    EXPECT_EQ(reply.values[r],
              reference.PredictProbability(row).ValueOrDie());
    // The reply carries the bits of the head's frame path too.
    EXPECT_TRUE(fpe::testing::SameBits(
        reply.values[r], fpe::testing::FramePathProbability(reference, row)));
  }
}

// A finite candidate whose value range overflows a double cannot be
// min-max normalized: its request gets an error reply, and the server
// goes on answering.
TEST(EafeServerTest, FpeCandidateWithOverflowingRangeIsAnError) {
  const fpe::FpeModel reference = TrainFpe();
  std::unique_ptr<EafeServer> server = StartFpeServer(reference);
  BlockingClient client =
      BlockingClient::Connect("127.0.0.1", server->port()).ValueOrDie();
  const Message failed =
      client.Predict(1, "fpe", true, 1, 4, {-1e308, 1e308, 0.0, 5.0})
          .ValueOrDie();
  ASSERT_EQ(failed.type, MessageType::kErrorResponse);
  EXPECT_EQ(static_cast<StatusCode>(failed.code),
            StatusCode::kInvalidArgument);
  const std::vector<double> row = {-1.0, 1.0, 0.0, 5.0};
  const Message good = client.Predict(2, "fpe", true, 1, 4, row).ValueOrDie();
  ASSERT_EQ(good.type, MessageType::kPredictResponse) << good.text;
  ASSERT_EQ(good.values.size(), 1u);
  EXPECT_TRUE(fpe::testing::SameBits(
      good.values[0], reference.PredictProbability(row).ValueOrDie()));
}

// The queue coalesces FPE requests from different connections, so one
// client's bad candidate must fail its own request only: the requests
// batched with it still get their probabilities.
TEST(EafeServerTest, FpeCandidateErrorAnswersOnlyItsRequest) {
  const fpe::FpeModel reference = TrainFpe();
  EafeServer::Options options;
  options.debug_batch_sleep_ms = 200;
  std::unique_ptr<EafeServer> server = StartFpeServer(reference, options);
  Rng rng(9);
  std::vector<double> row(32);
  for (double& v : row) v = rng.Uniform(0.0, 2.0);
  std::vector<double> bad = row;
  bad[5] = std::numeric_limits<double>::quiet_NaN();

  auto connect = [&] {
    return BlockingClient::Connect("127.0.0.1", server->port()).ValueOrDie();
  };
  BlockingClient first = connect();
  BlockingClient a = connect();
  BlockingClient b = connect();
  // Request 1 is 16 wide, so it never coalesces with A and B. Once the
  // executor has popped it, it sleeps on that batch while A and B queue
  // up; both are queued before it wakes, so they form batch 2 together.
  ASSERT_TRUE(first.SendPredict(1, "fpe", true, 1, 16,
                                std::vector<double>(row.begin(),
                                                    row.begin() + 16))
                  .ok());
  ASSERT_TRUE(WaitFor([&] {
    return server->stats().requests >= 1 && server->queue_depth() == 0;
  }));
  ASSERT_TRUE(a.SendPredict(2, "fpe", true, 1, 32, row).ok());
  ASSERT_TRUE(b.SendPredict(3, "fpe", true, 1, 32, bad).ok());
  ASSERT_TRUE(WaitFor([&] { return server->queue_depth() == 2; }));

  EXPECT_EQ(first.ReadReply().ValueOrDie().type,
            MessageType::kPredictResponse);
  const Message good = a.ReadReply().ValueOrDie();
  ASSERT_EQ(good.type, MessageType::kPredictResponse) << good.text;
  ASSERT_EQ(good.values.size(), 1u);
  const double expected = reference.PredictProbability(row).ValueOrDie();
  EXPECT_EQ(std::memcmp(&good.values[0], &expected, sizeof(double)), 0);
  const Message failed = b.ReadReply().ValueOrDie();
  ASSERT_EQ(failed.type, MessageType::kErrorResponse);
  EXPECT_EQ(static_cast<StatusCode>(failed.code),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server->stats().batches, 2u);
}

TEST(EafeServerTest, UnknownModelAndBadWidthAreTypedErrors) {
  Fixture fixture = MakeServer();
  BlockingClient client =
      BlockingClient::Connect("127.0.0.1", fixture.server->port())
          .ValueOrDie();
  const Message unknown =
      client.Predict(1, "nope", false, 1, kCols,
                     std::vector<double>(kCols, 0.0))
          .ValueOrDie();
  ASSERT_EQ(unknown.type, MessageType::kErrorResponse);
  EXPECT_EQ(static_cast<StatusCode>(unknown.code), StatusCode::kNotFound);

  const Message narrow =
      client.Predict(2, "forest", false, 1, kCols - 1,
                     std::vector<double>(kCols - 1, 0.0))
          .ValueOrDie();
  ASSERT_EQ(narrow.type, MessageType::kErrorResponse);
  EXPECT_EQ(static_cast<StatusCode>(narrow.code),
            StatusCode::kInvalidArgument);

  // The connection survived both errors.
  EXPECT_EQ(client.Ping(3).ValueOrDie().type, MessageType::kPongResponse);
}

TEST(EafeServerTest, GarbageFrameGetsErrorThenClose) {
  Fixture fixture = MakeServer();
  BlockingClient client =
      BlockingClient::Connect("127.0.0.1", fixture.server->port())
          .ValueOrDie();
  ASSERT_TRUE(
      client.SendBytes(std::string("\x06\x00\x00\x00rubbsh", 10)).ok());
  const Message reply = client.ReadReply().ValueOrDie();
  EXPECT_EQ(reply.type, MessageType::kErrorResponse);
  // The stream cannot be resynced, so the server hangs up afterwards.
  EXPECT_FALSE(client.ReadReply().ok());
  EXPECT_GE(fixture.server->stats().protocol_errors, 1u);
}

TEST(EafeServerTest, OversizedFrameIsRejectedNotBuffered) {
  EafeServer::Options options;
  options.max_frame_bytes = 1024;
  Fixture fixture = MakeServer(options);
  BlockingClient client =
      BlockingClient::Connect("127.0.0.1", fixture.server->port())
          .ValueOrDie();
  // Header alone declares 1 MiB — far past the 1 KiB cap.
  ByteWriter header;
  header.PutU32(1u << 20);
  ASSERT_TRUE(client.SendBytes(header.bytes()).ok());
  const Message reply = client.ReadReply().ValueOrDie();
  EXPECT_EQ(reply.type, MessageType::kErrorResponse);
  EXPECT_FALSE(client.ReadReply().ok());
}

TEST(EafeServerTest, TruncatedFrameThenDisconnectLeavesServerHealthy) {
  Fixture fixture = MakeServer();
  {
    BlockingClient client =
        BlockingClient::Connect("127.0.0.1", fixture.server->port())
            .ValueOrDie();
    const std::string frame = EncodePredictRequest(
        1, "forest", false, 1, kCols, std::vector<double>(kCols, 1.0));
    ASSERT_TRUE(
        client.SendBytes(std::string_view(frame).substr(0, 9)).ok());
  }  // destructor disconnects mid-frame
  BlockingClient after =
      BlockingClient::Connect("127.0.0.1", fixture.server->port())
          .ValueOrDie();
  EXPECT_EQ(after.Ping(2).ValueOrDie().type, MessageType::kPongResponse);
}

// Slow-loris: a connection parked on a half-written frame must not
// block anyone else — progress is per-connection, the reactor never
// waits on a slow peer.
TEST(EafeServerTest, HalfWrittenFrameDoesNotBlockOtherConnections) {
  Fixture fixture = MakeServer();
  const std::vector<double> all = RowMajor(MakeData(55, 10).features);
  const std::vector<double> values(all.begin(), all.begin() + kCols);
  const std::string frame =
      EncodePredictRequest(7, "forest", false, 1, kCols, values);

  BlockingClient slow =
      BlockingClient::Connect("127.0.0.1", fixture.server->port())
          .ValueOrDie();
  ASSERT_TRUE(
      slow.SendBytes(std::string_view(frame).substr(0, frame.size() / 2))
          .ok());

  BlockingClient fast =
      BlockingClient::Connect("127.0.0.1", fixture.server->port())
          .ValueOrDie();
  const Message unblocked =
      fast.Predict(1, "forest", false, 1, kCols, values).ValueOrDie();
  EXPECT_EQ(unblocked.type, MessageType::kPredictResponse);

  // The slow half completes and is answered with the same bits.
  ASSERT_TRUE(
      slow.SendBytes(std::string_view(frame).substr(frame.size() / 2))
          .ok());
  const Message late = slow.ReadReply().ValueOrDie();
  ASSERT_EQ(late.type, MessageType::kPredictResponse);
  ExpectSameBits(late.values, unblocked.values);
}

// A client that vanishes while its request sits in the executor must
// not crash the server or poison another connection's stream.
TEST(EafeServerTest, DisconnectMidBatchIsDroppedSafely) {
  EafeServer::Options options;
  options.debug_batch_sleep_ms = 30;
  Fixture fixture = MakeServer(options);
  const std::vector<double> values(kCols, 0.25);
  {
    BlockingClient doomed =
        BlockingClient::Connect("127.0.0.1", fixture.server->port())
            .ValueOrDie();
    ASSERT_TRUE(
        doomed.SendPredict(1, "forest", false, 1, kCols, values).ok());
  }  // gone before the executor finishes its slowed batch
  BlockingClient survivor =
      BlockingClient::Connect("127.0.0.1", fixture.server->port())
          .ValueOrDie();
  const Message reply =
      survivor.Predict(2, "forest", false, 1, kCols, values).ValueOrDie();
  EXPECT_EQ(reply.type, MessageType::kPredictResponse);
  fixture.server->Stop();
  EXPECT_GE(fixture.server->stats().requests, 2u);
}

// Overload degrades to fast typed rejections: with a one-deep queue and
// a slowed executor, a pipelined burst must see shed responses, every
// request must still be answered, and nothing may stall.
TEST(EafeServerTest, OverloadShedsInsteadOfStalling) {
  EafeServer::Options options;
  options.queue_limit = 1;
  options.debug_batch_sleep_ms = 40;
  Fixture fixture = MakeServer(options);
  const std::vector<double> values(kCols, 0.5);

  BlockingClient client =
      BlockingClient::Connect("127.0.0.1", fixture.server->port())
          .ValueOrDie();
  constexpr size_t kBurst = 24;
  for (size_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(
        client.SendPredict(i, "forest", false, 1, kCols, values).ok());
  }
  size_t ok = 0, shed = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    const Message reply = client.ReadReply().ValueOrDie();
    if (reply.type == MessageType::kPredictResponse) {
      ++ok;
    } else {
      ASSERT_EQ(reply.type, MessageType::kShedResponse);
      EXPECT_GT(reply.code, 0u);  // retry-after hint
      ++shed;
    }
  }
  EXPECT_GE(ok, 1u);
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(fixture.server->stats().shed, shed);
}

TEST(EafeServerTest, MetricsPingAndModelListRoundTrip) {
  runtime::TextMetricGateway gateway;
  runtime::SetGlobalMetrics(&gateway);
  {
    Fixture fixture = MakeServer();
    BlockingClient client =
        BlockingClient::Connect("127.0.0.1", fixture.server->port())
            .ValueOrDie();
    ASSERT_TRUE(client
                    .Predict(1, "forest", false, 1, kCols,
                             std::vector<double>(kCols, 0.0))
                    .ok());
    EXPECT_EQ(client.Ping(2).ValueOrDie().type,
              MessageType::kPongResponse);
    EXPECT_EQ(client.ListModels(3).ValueOrDie(),
              (std::vector<std::string>{"forest"}));
    const std::string exposition = client.Metrics(4).ValueOrDie();
    EXPECT_NE(exposition.find("eafe_server_requests_total"),
              std::string::npos);
    EXPECT_NE(exposition.find("eafe_server_batch_rows"),
              std::string::npos);
    fixture.server->Stop();
  }
  runtime::SetGlobalMetrics(nullptr);
}

TEST(EafeServerTest, ModelsMustBeRegisteredBeforeStart) {
  EafeServer::Options options;
  std::unique_ptr<EafeServer> server =
      EafeServer::Create(options).ValueOrDie();
  ASSERT_TRUE(server->AddModel("forest", MakeForestModel(3)).ok());
  // Duplicate ids are refused.
  EXPECT_FALSE(server->AddModel("forest", MakeForestModel(4)).ok());
  ASSERT_TRUE(server->Start().ok());
  // The registry is immutable while running.
  EXPECT_FALSE(server->AddModel("late", MakeForestModel(5)).ok());
}

}  // namespace
}  // namespace eafe::serve::server
