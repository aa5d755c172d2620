#include "serve/model_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "data/synthetic.h"
#include "ml/flat_model.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/random_forest.h"
#include "serve/flat_predictor.h"
#include "serve/wire.h"
#include "tests/fpe/fpe_test_util.h"

namespace eafe::serve {
namespace {

data::Dataset MakeData(data::TaskType task, uint64_t seed,
                       size_t rows = 160) {
  data::SyntheticSpec spec;
  spec.task = task;
  spec.num_samples = rows;
  spec.num_features = 6;
  spec.seed = seed;
  return data::MakeSynthetic(spec).ValueOrDie();
}

ml::RandomForest TrainForest(data::TaskType task, uint64_t seed) {
  ml::RandomForest::Options options;
  options.task = task;
  options.num_trees = 6;
  options.seed = seed;
  ml::RandomForest forest(options);
  const data::Dataset data = MakeData(task, seed);
  EXPECT_TRUE(forest.Fit(data.features, data.labels).ok());
  return forest;
}

ml::GradientBoostedTrees TrainBooster(data::TaskType task, uint64_t seed) {
  ml::GradientBoostedTrees::Options options;
  options.task = task;
  options.rounds = 8;
  options.seed = seed;
  ml::GradientBoostedTrees booster(options);
  const data::Dataset data = MakeData(task, seed);
  EXPECT_TRUE(booster.Fit(data.features, data.labels).ok());
  return booster;
}

std::vector<fpe::LabeledFeature> MakeFeatures(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<fpe::LabeledFeature> features;
  for (size_t i = 0; i < count; ++i) {
    fpe::LabeledFeature f;
    f.label = i % 2 == 0 ? 1 : 0;
    f.values.resize(80 + rng.UniformInt(uint64_t{80}));
    for (double& v : f.values) {
      v = f.label == 1 ? std::exp(rng.Normal(0.0, 1.2))
                       : rng.Uniform(0.0, 1.0);
    }
    features.push_back(std::move(f));
  }
  return features;
}

fpe::FpeModel TrainFpe(uint64_t seed) {
  fpe::FpeModel::Options options;
  options.compressor.dimension = 16;
  options.seed = seed;
  fpe::FpeModel model(options);
  EXPECT_TRUE(model.Train(MakeFeatures(80, seed)).ok());
  return model;
}

// Patches the little-endian u32 / u64 at `offset` in place.
void PatchU32(std::string* bytes, size_t offset, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    (*bytes)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}
void PatchU64(std::string* bytes, size_t offset, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    (*bytes)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

/// Container bytes for a forest `model`, written section by section in
/// the documented layout without the writer's own Validate: hand-made
/// input for the loader.
std::string ForestContainer(const ml::FlatTreeModel& model) {
  ByteWriter meta;
  meta.PutU32(0);  // Classification.
  meta.PutU32(model.num_classes);
  meta.PutDouble(model.base_score);
  meta.PutDouble(model.learning_rate);
  ByteWriter nodes;
  nodes.PutU64(model.num_trees());
  for (uint32_t offset : model.tree_offsets) nodes.PutU32(offset);
  nodes.PutU64(model.num_nodes());
  for (int32_t f : model.feature) nodes.PutI32(f);
  for (uint8_t b : model.split_bin) nodes.PutU8(b);
  for (int32_t l : model.left) nodes.PutI32(l);
  for (int32_t r : model.right) nodes.PutI32(r);
  for (double v : model.value) nodes.PutDouble(v);
  for (double p : model.proba) nodes.PutDouble(p);
  ByteWriter cuts;
  cuts.PutU32(model.num_features);
  for (uint64_t offset : model.cut_offsets) cuts.PutU64(offset);
  cuts.PutDoubleVec(model.cuts);

  ByteWriter container;
  container.PutBytes(std::string_view(kMagic, kMagicSize));
  container.PutU32(kFormatVersion);
  container.PutU32(static_cast<uint32_t>(ModelKind::kRandomForest));
  for (const auto& [id, payload] :
       {std::pair{kSectionTreeMeta, meta.Take()},
        std::pair{kSectionTreeNodes, nodes.Take()},
        std::pair{kSectionBinnerCuts, cuts.Take()}}) {
    container.PutU32(id);
    container.PutU64(payload.size());
    container.PutBytes(payload);
  }
  return container.Take();
}

/// A one-tree classification forest over one feature with cuts 0.5, 1.5,
/// ...: the root splits at `split_bin`, sending codes <= split_bin to a
/// class-0 leaf and the rest to a class-1 leaf.
ml::FlatTreeModel OneSplitForest(size_t num_cuts, uint8_t split_bin,
                                 uint32_t num_classes) {
  ml::FlatTreeModel model;
  model.num_features = 1;
  model.num_classes = num_classes;
  model.tree_offsets = {0, 3};
  model.feature = {0, -1, -1};
  model.split_bin = {split_bin, 0, 0};
  model.left = {1, -1, -1};
  model.right = {2, -1, -1};
  model.value = {0.0, 0.0, 1.0};
  model.proba = {0.0, 0.0, 1.0};
  model.cut_offsets = {0, num_cuts};
  for (size_t c = 0; c < num_cuts; ++c) {
    model.cuts.push_back(static_cast<double>(c) + 0.5);
  }
  return model;
}

data::DataFrame OneColumn(std::vector<double> values) {
  data::DataFrame frame;
  EXPECT_TRUE(frame.AddColumn(data::Column("x", std::move(values))).ok());
  return frame;
}

// A uint8 code counts at most 255 cuts. A feature with 300 would encode
// 270.0 as 270 truncated to 14 and send it left of a split at bin 43, a
// wrong class instead of an error, so the loader rejects the feature.
TEST(ModelStoreTest, FeatureWithMoreCutsThanCodesRejected) {
  const auto result =
      DeserializeModel(ForestContainer(OneSplitForest(300, 43, 2)));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("more than 255 cuts"),
            std::string::npos)
      << result.status().ToString();

  // 255 cuts still load, and a value past the last one routes right.
  const LoadedModel loaded =
      DeserializeModel(ForestContainer(OneSplitForest(255, 43, 2)))
          .ValueOrDie();
  FlatPredictor predictor = FlatPredictor::Create(*loaded.tree).ValueOrDie();
  EXPECT_EQ(predictor.Predict(OneColumn({270.0, 20.0})).ValueOrDie(),
            (std::vector<double>{1.0, 0.0}));
}

// The vote buffer is sized by the largest leaf class, not by the class
// count a container declares: a model claiming 2^32 - 1 classes whose
// leaves vote 0 or 1 predicts a row with two vote columns instead of
// asking for rows x 2^32 of them. A leaf class id past kMaxVoteClasses
// is rejected outright.
TEST(ModelStoreTest, DeclaredClassCountDoesNotSizeTheVoteBuffer) {
  const LoadedModel loaded =
      DeserializeModel(ForestContainer(OneSplitForest(10, 4, 0xFFFFFFFFu)))
          .ValueOrDie();
  FlatPredictor predictor = FlatPredictor::Create(*loaded.tree).ValueOrDie();
  EXPECT_EQ(predictor.Predict(OneColumn({7.0})).ValueOrDie(),
            (std::vector<double>{1.0}));
  EXPECT_EQ(predictor.Predict(OneColumn({2.0, 9.0})).ValueOrDie(),
            (std::vector<double>{0.0, 1.0}));

  ml::FlatTreeModel wide = OneSplitForest(10, 4, 0xFFFFFFFFu);
  wide.value[2] = static_cast<double>(ml::kMaxVoteClasses);
  EXPECT_FALSE(DeserializeModel(ForestContainer(wide)).ok());
}

// A middle tree offset past the node count is rejected before that
// tree's nodes are read, even though the last offset spans the arrays.
TEST(ModelStoreTest, TreeOffsetPastTheNodeArraysRejected) {
  ml::FlatTreeModel model = OneSplitForest(10, 4, 2);
  model.tree_offsets = {0, 4, 3};
  const auto result = DeserializeModel(ForestContainer(model));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("past the node arrays"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ModelStoreTest, ForestRoundTripPredictsIdentically) {
  for (const data::TaskType task :
       {data::TaskType::kClassification, data::TaskType::kRegression}) {
    const ml::RandomForest forest = TrainForest(task, 11);
    const std::string bytes = SerializeForest(forest).ValueOrDie();
    const LoadedModel loaded = DeserializeModel(bytes).ValueOrDie();
    EXPECT_EQ(loaded.kind, ModelKind::kRandomForest);
    ASSERT_TRUE(loaded.tree.has_value());
    FlatPredictor predictor =
        FlatPredictor::Create(*loaded.tree).ValueOrDie();
    const data::Dataset query = MakeData(task, 99);
    const std::vector<double> expected =
        forest.Predict(query.features).ValueOrDie();
    const std::vector<double> got =
        predictor.Predict(query.features).ValueOrDie();
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "row " << i;
    }
  }
}

TEST(ModelStoreTest, GbdtRoundTripPredictsIdentically) {
  for (const data::TaskType task :
       {data::TaskType::kClassification, data::TaskType::kRegression}) {
    const ml::GradientBoostedTrees booster = TrainBooster(task, 12);
    const std::string bytes = SerializeGbdt(booster).ValueOrDie();
    const LoadedModel loaded = DeserializeModel(bytes).ValueOrDie();
    EXPECT_EQ(loaded.kind, ModelKind::kGradientBoostedTrees);
    ASSERT_TRUE(loaded.tree.has_value());
    FlatPredictor predictor =
        FlatPredictor::Create(*loaded.tree).ValueOrDie();
    const data::Dataset query = MakeData(task, 98);
    const std::vector<double> expected =
        booster.Predict(query.features).ValueOrDie();
    const std::vector<double> got =
        predictor.Predict(query.features).ValueOrDie();
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "row " << i;
    }
  }
}

TEST(ModelStoreTest, FpeLogisticRoundTrip) {
  fpe::FpeModel::Options options;
  options.compressor.scheme = hashing::MinHashScheme::kIcws;
  options.compressor.dimension = 24;
  options.compressor.seed = 99;
  options.seed = 13;
  fpe::FpeModel model(options);
  ASSERT_TRUE(model.Train(MakeFeatures(80, 13)).ok());
  const std::string bytes = SerializeFpe(model).ValueOrDie();
  const LoadedModel loaded = DeserializeModel(bytes).ValueOrDie();
  EXPECT_EQ(loaded.kind, ModelKind::kFpe);
  ASSERT_TRUE(loaded.fpe.has_value());
  EXPECT_TRUE(loaded.fpe->trained());
  EXPECT_EQ(loaded.fpe->options().compressor.scheme,
            hashing::MinHashScheme::kIcws);
  EXPECT_EQ(loaded.fpe->options().compressor.dimension, 24u);
  EXPECT_EQ(loaded.fpe->options().compressor.seed, 99u);
  for (const auto& f : MakeFeatures(20, 14)) {
    EXPECT_EQ(model.PredictProbability(f.values).ValueOrDie(),
              loaded.fpe->PredictProbability(f.values).ValueOrDie());
  }
}

// FpeModel::PredictProbability predicts from the input vector; after a
// trip through a model file it must still return the bits of the head's
// frame path, and the bits the saved model returned.
TEST(ModelStoreTest, FpeVectorPredictMatchesFramePathAfterSaveAndLoad) {
  const fpe::FpeModel model = TrainFpe(31);
  const std::string path = ::testing::TempDir() + "/fpe_vector.eafe";
  ASSERT_TRUE(SaveModel(model, path).ok());
  const LoadedModel loaded = LoadModel(path).ValueOrDie();
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.fpe.has_value());
  for (const auto& f : MakeFeatures(20, 32)) {
    const double restored =
        loaded.fpe->PredictProbability(f.values).ValueOrDie();
    EXPECT_TRUE(fpe::testing::SameBits(
        restored, fpe::testing::FramePathProbability(*loaded.fpe, f.values)));
    EXPECT_TRUE(fpe::testing::SameBits(
        restored, model.PredictProbability(f.values).ValueOrDie()));
  }
}

TEST(ModelStoreTest, ForestBackedFpeIsNotSerializable) {
  fpe::FpeModel::Options options;
  options.classifier = fpe::FpeModel::ClassifierKind::kRandomForest;
  options.compressor.dimension = 8;
  fpe::FpeModel model(options);
  ASSERT_TRUE(model.Train(MakeFeatures(40, 15)).ok());
  EXPECT_EQ(SerializeFpe(model).status().code(), StatusCode::kNotImplemented);
}

// A complete v1 text model, the format that preceded the container, fails
// like any other non-container.
TEST(ModelStoreTest, LegacyTextHeaderIsRejected) {
  const std::string v1 =
      "eafe-fpe-model v1\n"
      "scheme ccws\n"
      "dimension 1\n"
      "extra_uniform_slots 1\n"
      "sort_signature 0\n"
      "compressor_seed 1\n"
      "input 0\n"
      "num_classes 2\n"
      "scaler_means 0 0\n"
      "scaler_scales 1 1\n"
      "num_heads 1\n"
      "weights_0 0.5 -0.25 0.125\n";
  const auto result = DeserializeModel(v1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("bad magic"), std::string::npos)
      << result.status().ToString();
}

TEST(ModelStoreTest, FileRoundTrip) {
  const ml::RandomForest forest =
      TrainForest(data::TaskType::kClassification, 19);
  const std::string path = ::testing::TempDir() + "/forest.eafe";
  ASSERT_TRUE(SaveModel(forest, path).ok());
  const LoadedModel loaded = LoadModel(path).ValueOrDie();
  EXPECT_EQ(loaded.kind, ModelKind::kRandomForest);
  std::remove(path.c_str());
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kIoError);
}

// An empty file reads as "" and the magic check reports it.
TEST(ModelStoreTest, EmptyFileFailsCleanly) {
  const std::string path = ::testing::TempDir() + "/empty.eafe";
  { std::ofstream out(path, std::ios::binary); }
  EXPECT_EQ(LoadModel(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModelStoreTest, UntrainedModelsRejected) {
  EXPECT_FALSE(SerializeForest(ml::RandomForest()).ok());
  EXPECT_FALSE(SerializeGbdt(ml::GradientBoostedTrees()).ok());
  EXPECT_FALSE(SerializeFpe(fpe::FpeModel()).ok());
}

TEST(ModelStoreTest, BadMagicRejected) {
  EXPECT_FALSE(DeserializeModel("").ok());
  EXPECT_FALSE(DeserializeModel("garbage").ok());
  std::string bytes =
      SerializeForest(TrainForest(data::TaskType::kClassification, 21))
          .ValueOrDie();
  bytes[0] = 'X';
  const auto result = DeserializeModel(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("bad magic"), std::string::npos);
}

TEST(ModelStoreTest, FutureFormatVersionRejected) {
  std::string bytes =
      SerializeForest(TrainForest(data::TaskType::kClassification, 22))
          .ValueOrDie();
  PatchU32(&bytes, kMagicSize, kFormatVersion + 1);
  const auto result = DeserializeModel(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("newer"), std::string::npos);
}

TEST(ModelStoreTest, UnknownModelKindRejected) {
  std::string bytes =
      SerializeForest(TrainForest(data::TaskType::kClassification, 23))
          .ValueOrDie();
  PatchU32(&bytes, kMagicSize + 4, 77);
  EXPECT_FALSE(DeserializeModel(bytes).ok());
}

TEST(ModelStoreTest, OversizedSectionLengthRejected) {
  std::string bytes =
      SerializeForest(TrainForest(data::TaskType::kClassification, 24))
          .ValueOrDie();
  // First section starts right after magic + version + kind; its u64
  // length sits 4 bytes (the section id) further in. Declare far more
  // payload than the container holds.
  const size_t length_at = kMagicSize + 4 + 4 + 4;
  for (size_t i = 0; i < 8; ++i) {
    bytes[length_at + i] = static_cast<char>(0xFF);
  }
  const auto result = DeserializeModel(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("remain"), std::string::npos);
}

TEST(ModelStoreTest, EveryTruncationFailsCleanly) {
  const std::string containers[] = {
      SerializeGbdt(TrainBooster(data::TaskType::kClassification, 25))
          .ValueOrDie(),
      SerializeFpe(TrainFpe(25)).ValueOrDie(),
  };
  // Every strict prefix must fail with a clean Status: either a
  // truncated read, a short section, or a missing required section.
  for (const std::string& bytes : containers) {
    const std::string_view view(bytes);
    for (size_t n = 0; n < bytes.size(); ++n) {
      EXPECT_FALSE(DeserializeModel(view.substr(0, n)).ok())
          << "prefix length " << n << " of " << bytes.size();
    }
  }
}

/// A logistic-FPE container written section by section: compressor
/// `dimension` and `extra` uniform slots over a signature input, and a
/// binary head over `width` features. Hand-made input for the loader.
std::string LogisticFpeContainer(uint64_t dimension, uint64_t extra,
                                 size_t width) {
  ByteWriter meta;
  meta.PutString("ccws");
  meta.PutU64(dimension);
  meta.PutU64(extra);
  meta.PutU8(1);   // Sorted signature.
  meta.PutU64(7);  // Compressor seed.
  meta.PutU32(0);  // Signature input.
  meta.PutU32(1);  // Logistic classifier.
  ByteWriter scaler;
  scaler.PutDoubleVec(std::vector<double>(width, 0.0));
  scaler.PutDoubleVec(std::vector<double>(width, 1.0));
  ByteWriter logistic;
  logistic.PutU64(2);  // Classes.
  logistic.PutU64(1);  // One head: weights plus bias.
  logistic.PutDoubleVec(std::vector<double>(width + 1, 0.25));

  ByteWriter container;
  container.PutBytes(std::string_view(kMagic, kMagicSize));
  container.PutU32(kFormatVersion);
  container.PutU32(static_cast<uint32_t>(ModelKind::kFpe));
  for (const auto& [id, payload] :
       {std::pair{kSectionFpeMeta, meta.Take()},
        std::pair{kSectionScaler, scaler.Take()},
        std::pair{kSectionLogistic, logistic.Take()}}) {
    container.PutU32(id);
    container.PutU64(payload.size());
    container.PutBytes(payload);
  }
  return container.Take();
}

// The compressor requires a positive dimension; a container declaring 0
// is rejected by the decoder instead of reaching the compressor's check.
TEST(ModelStoreTest, FpeCompressorDimensionZeroRejected) {
  const LoadedModel control =
      DeserializeModel(LogisticFpeContainer(2, 2, 4)).ValueOrDie();
  EXPECT_TRUE(control.fpe->PredictProbability({1.0, 3.0, 2.0, 5.0}).ok());

  const auto result = DeserializeModel(LogisticFpeContainer(0, 0, 1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// Dimension 2^64 - 1 plus 2 uniform slots would wrap the signature width
// to 1 and let a one-feature head pass the width check; the first
// predict would then ask for a 2^64 - 1 slot signature. The same holds
// with the roles of the two counts swapped.
TEST(ModelStoreTest, FpeSignatureWidthThatWrapsRejected) {
  for (const auto& [dimension, extra] :
       {std::pair{UINT64_MAX, uint64_t{2}},
        std::pair{uint64_t{2}, UINT64_MAX}}) {
    const auto result =
        DeserializeModel(LogisticFpeContainer(dimension, extra, 1));
    ASSERT_FALSE(result.ok()) << dimension << " + " << extra;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

// Overwrites every byte of a forest, a booster and an FPE container with
// 0x00 and then 0xFF. Every mutation must decode
// to a Status, and a model that loads must predict without crashing;
// an error Status from the predict is fine.
TEST(ModelStoreTest, EverySingleByteOverwriteFailsCleanlyOrPredicts) {
  const data::Dataset data = MakeData(data::TaskType::kClassification, 28);
  ml::RandomForest::Options forest_options;
  forest_options.num_trees = 2;
  forest_options.max_depth = 3;
  ml::RandomForest forest(forest_options);
  ASSERT_TRUE(forest.Fit(data.features, data.labels).ok());
  ml::GradientBoostedTrees::Options booster_options;
  booster_options.rounds = 2;
  booster_options.max_depth = 3;
  ml::GradientBoostedTrees booster(booster_options);
  ASSERT_TRUE(booster.Fit(data.features, data.labels).ok());
  const std::string containers[] = {
      SerializeForest(forest).ValueOrDie(),
      SerializeGbdt(booster).ValueOrDie(),
      SerializeFpe(TrainFpe(29)).ValueOrDie(),
  };
  const data::Dataset query =
      MakeData(data::TaskType::kClassification, 96, /*rows=*/16);
  const std::vector<double> column = MakeFeatures(1, 30)[0].values;
  for (size_t c = 0; c < std::size(containers); ++c) {
    std::string bytes = containers[c];
    size_t predicted = 0;
    for (size_t at = 0; at < bytes.size(); ++at) {
      const char original = bytes[at];
      for (const char value : {'\x00', '\xFF'}) {
        bytes[at] = value;
        const Result<LoadedModel> loaded = DeserializeModel(bytes);
        if (!loaded.ok()) continue;
        if (loaded->fpe.has_value()) {
          (void)loaded->fpe->PredictProbability(column);
        } else {
          Result<FlatPredictor> predictor =
              FlatPredictor::Create(*loaded->tree);
          if (!predictor.ok()) continue;
          (void)predictor->Predict(query.features);
          (void)predictor->PredictProba(query.features);
        }
        ++predicted;
      }
      bytes[at] = original;
    }
    // Overwrites of payload values (weights, thresholds, leaf values)
    // still load, so each container's predict path runs.
    EXPECT_GT(predicted, 0u) << "container " << c;
  }
}

// The FPE meta section's signature-layout fields and classifier id hold
// constants: `dimension` uniform slots, sorted halves, the logistic head.
// A container holding anything else (the values of the retired layout
// options and MLP head among them) is refused; a section with the MLP
// head's old id 19 is skipped like any unknown section.
TEST(ModelStoreTest, FpeMetaRefusesWhatTheWriterCannotProduce) {
  const fpe::FpeModel model = TrainFpe(33);
  const std::string bytes = SerializeFpe(model).ValueOrDie();
  // The meta section comes first: its payload follows the container
  // header and the section's id and length.
  const size_t payload = kMagicSize + 4 + 4 + 4 + 8;
  const size_t dimension_at =
      payload + 4 + hashing::MinHashSchemeToString(
                        model.options().compressor.scheme)
                        .size();
  const size_t uniform_at = dimension_at + 8;
  const size_t sorted_at = uniform_at + 8;
  const size_t classifier_at = sorted_at + 1 + 8 + 4;
  ASSERT_EQ(ByteReader(std::string_view(bytes).substr(dimension_at, 8))
                .TakeU64()
                .ValueOrDie(),
            16u);

  std::vector<std::pair<const char*, std::string>> refused;
  std::string patched = bytes;
  PatchU32(&patched, classifier_at, 2);
  refused.emplace_back("classifier 2", patched);
  patched = bytes;
  patched[sorted_at] = '\0';
  refused.emplace_back("unsorted", patched);
  for (const uint64_t uniform : {uint64_t{0}, uint64_t{15}, uint64_t{17}}) {
    patched = bytes;
    PatchU64(&patched, uniform_at, uniform);
    refused.emplace_back("uniform slots", patched);
  }
  for (const auto& [what, container] : refused) {
    EXPECT_EQ(DeserializeModel(container).status().code(),
              StatusCode::kInvalidArgument)
        << what;
  }

  ByteWriter mlp;
  mlp.PutU32(19);
  mlp.PutU64(8);
  mlp.PutDouble(0.5);
  const LoadedModel loaded =
      DeserializeModel(bytes + mlp.Take()).ValueOrDie();
  ASSERT_TRUE(loaded.fpe.has_value());
  for (const auto& f : MakeFeatures(10, 34)) {
    EXPECT_TRUE(fpe::testing::SameBits(
        loaded.fpe->PredictProbability(f.values).ValueOrDie(),
        model.PredictProbability(f.values).ValueOrDie()));
  }
}

TEST(ModelStoreTest, UnknownTrailingSectionIsSkipped) {
  const ml::RandomForest forest =
      TrainForest(data::TaskType::kClassification, 26);
  std::string bytes = SerializeForest(forest).ValueOrDie();
  // A future writer appends an optional section this loader has never
  // heard of; forward compatibility says we skip it.
  ByteWriter extra;
  extra.PutU32(9999);
  extra.PutU64(12);
  extra.PutBytes("hello future");
  bytes += extra.Take();
  const LoadedModel loaded = DeserializeModel(bytes).ValueOrDie();
  ASSERT_TRUE(loaded.tree.has_value());
  FlatPredictor predictor = FlatPredictor::Create(*loaded.tree).ValueOrDie();
  const data::Dataset query = MakeData(data::TaskType::kClassification, 97);
  EXPECT_EQ(predictor.Predict(query.features).ValueOrDie(),
            forest.Predict(query.features).ValueOrDie());
}

TEST(ModelStoreTest, CorruptedNodeArraysRejectedByValidation) {
  std::string bytes =
      SerializeForest(TrainForest(data::TaskType::kClassification, 27))
          .ValueOrDie();
  // Flip every byte position one at a time would be slow; instead smash a
  // wide swath of the node section and require a clean failure or a
  // still-valid model (never UB). The validator rejects inconsistent
  // arrays, child offsets, and split bins.
  for (size_t at = kMagicSize + 8; at + 64 < bytes.size();
       at += bytes.size() / 13) {
    std::string corrupted = bytes;
    for (size_t i = 0; i < 64; ++i) {
      corrupted[at + i] = static_cast<char>(0xA5);
    }
    const auto result = DeserializeModel(corrupted);
    if (!result.ok()) continue;  // Clean rejection is the common case.
    // If the bytes happened to still decode, the model must validate.
    if (result->tree.has_value()) {
      EXPECT_TRUE(result->tree->Validate().ok());
    }
  }
}

}  // namespace
}  // namespace eafe::serve
