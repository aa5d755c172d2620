#include "serve/model_store.h"

#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "core/matrix.h"
#include "core/string_util.h"
#include "data/scaler.h"
#include "hashing/weighted_minhash.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "serve/wire.h"

namespace eafe::serve {
namespace {

// Wire ids for enums, decoupled from the C++ enumerator values so
// reordering an enum can never silently change the format.
constexpr uint32_t kWireTaskClassification = 0;
constexpr uint32_t kWireTaskRegression = 1;
constexpr uint32_t kWireClassifierLogistic = 1;
constexpr uint32_t kWireClassifierMlp = 2;

uint32_t TaskToWire(data::TaskType task) {
  return task == data::TaskType::kClassification ? kWireTaskClassification
                                                 : kWireTaskRegression;
}

Result<data::TaskType> TaskFromWire(uint32_t wire) {
  switch (wire) {
    case kWireTaskClassification:
      return data::TaskType::kClassification;
    case kWireTaskRegression:
      return data::TaskType::kRegression;
    default:
      return Status::InvalidArgument(
          StrFormat("corrupt container: unknown task id %u", wire));
  }
}

void AppendSection(ByteWriter* container, uint32_t id,
                   const std::string& payload) {
  container->PutU32(id);
  container->PutU64(payload.size());
  container->PutBytes(payload);
}

std::string ContainerHeader(ModelKind kind) {
  ByteWriter header;
  header.PutBytes(std::string_view(kMagic, kMagicSize));
  header.PutU32(kFormatVersion);
  header.PutU32(static_cast<uint32_t>(kind));
  return header.Take();
}

// --- tree model sections ---------------------------------------------------

std::string TreeMetaPayload(const ml::FlatTreeModel& model) {
  ByteWriter w;
  w.PutU32(TaskToWire(model.task));
  w.PutU32(model.num_classes);
  w.PutDouble(model.base_score);
  w.PutDouble(model.learning_rate);
  return w.Take();
}

std::string TreeNodesPayload(const ml::FlatTreeModel& model) {
  ByteWriter w;
  w.PutU64(model.num_trees());
  for (uint32_t offset : model.tree_offsets) w.PutU32(offset);
  w.PutU64(model.num_nodes());
  for (int32_t f : model.feature) w.PutI32(f);
  for (uint8_t b : model.split_bin) w.PutU8(b);
  for (int32_t l : model.left) w.PutI32(l);
  for (int32_t r : model.right) w.PutI32(r);
  for (double v : model.value) w.PutDouble(v);
  for (double p : model.proba) w.PutDouble(p);
  return w.Take();
}

std::string BinnerCutsPayload(const ml::FlatTreeModel& model) {
  ByteWriter w;
  w.PutU32(model.num_features);
  for (uint64_t offset : model.cut_offsets) w.PutU64(offset);
  w.PutDoubleVec(model.cuts);
  return w.Take();
}

Result<std::string> SerializeFlatTree(const ml::FlatTreeModel& model,
                                      ModelKind kind) {
  EAFE_RETURN_NOT_OK(model.Validate());
  ByteWriter container;
  container.PutBytes(ContainerHeader(kind));
  AppendSection(&container, kSectionTreeMeta, TreeMetaPayload(model));
  AppendSection(&container, kSectionTreeNodes, TreeNodesPayload(model));
  AppendSection(&container, kSectionBinnerCuts, BinnerCutsPayload(model));
  return container.Take();
}

Status ParseTreeMeta(ByteReader* section, ml::FlatTreeModel* model) {
  EAFE_ASSIGN_OR_RETURN(uint32_t task, section->TakeU32());
  EAFE_ASSIGN_OR_RETURN(model->task, TaskFromWire(task));
  EAFE_ASSIGN_OR_RETURN(model->num_classes, section->TakeU32());
  EAFE_ASSIGN_OR_RETURN(model->base_score, section->TakeDouble());
  EAFE_ASSIGN_OR_RETURN(model->learning_rate, section->TakeDouble());
  return Status::OK();
}

Status ParseTreeNodes(ByteReader* section, ml::FlatTreeModel* model) {
  EAFE_ASSIGN_OR_RETURN(uint64_t num_trees,
                        section->TakeCount(sizeof(uint32_t)));
  model->tree_offsets.resize(static_cast<size_t>(num_trees) + 1);
  for (uint32_t& offset : model->tree_offsets) {
    EAFE_ASSIGN_OR_RETURN(offset, section->TakeU32());
  }
  // A node occupies 29 payload bytes across the six arrays; bounding the
  // count before any resize keeps hostile counts from driving giant
  // allocations.
  EAFE_ASSIGN_OR_RETURN(uint64_t num_nodes, section->TakeCount(29));
  const size_t n = static_cast<size_t>(num_nodes);
  model->feature.resize(n);
  for (int32_t& f : model->feature) {
    EAFE_ASSIGN_OR_RETURN(f, section->TakeI32());
  }
  model->split_bin.resize(n);
  for (uint8_t& b : model->split_bin) {
    EAFE_ASSIGN_OR_RETURN(b, section->TakeU8());
  }
  model->left.resize(n);
  for (int32_t& l : model->left) {
    EAFE_ASSIGN_OR_RETURN(l, section->TakeI32());
  }
  model->right.resize(n);
  for (int32_t& r : model->right) {
    EAFE_ASSIGN_OR_RETURN(r, section->TakeI32());
  }
  model->value.resize(n);
  for (double& v : model->value) {
    EAFE_ASSIGN_OR_RETURN(v, section->TakeDouble());
  }
  model->proba.resize(n);
  for (double& p : model->proba) {
    EAFE_ASSIGN_OR_RETURN(p, section->TakeDouble());
  }
  return Status::OK();
}

Status ParseBinnerCuts(ByteReader* section, ml::FlatTreeModel* model) {
  EAFE_ASSIGN_OR_RETURN(model->num_features, section->TakeU32());
  if (model->num_features >
      section->remaining() / sizeof(uint64_t)) {
    return Status::InvalidArgument(
        "corrupt container: cut-offset table exceeds its section");
  }
  model->cut_offsets.resize(static_cast<size_t>(model->num_features) + 1);
  for (uint64_t& offset : model->cut_offsets) {
    EAFE_ASSIGN_OR_RETURN(offset, section->TakeU64());
  }
  EAFE_ASSIGN_OR_RETURN(model->cuts, section->TakeDoubleVec());
  return Status::OK();
}

Result<ml::FlatTreeModel> ParseTreeModel(ByteReader* reader,
                                         ModelKind kind) {
  ml::FlatTreeModel model;
  model.kind = kind == ModelKind::kRandomForest
                   ? ml::EnsembleKind::kForestVote
                   : ml::EnsembleKind::kBoostedSum;
  bool have_meta = false;
  bool have_nodes = false;
  bool have_cuts = false;
  while (!reader->done()) {
    EAFE_ASSIGN_OR_RETURN(uint32_t id, reader->TakeU32());
    EAFE_ASSIGN_OR_RETURN(uint64_t length, reader->TakeU64());
    Result<ByteReader> slice = reader->TakeSlice(length);
    if (!slice.ok()) {
      return Status::InvalidArgument(
          StrFormat("corrupt container: section %u declares %llu payload "
                    "bytes but only %zu remain",
                    id, static_cast<unsigned long long>(length),
                    reader->remaining()));
    }
    ByteReader section = std::move(slice).ValueOrDie();
    switch (id) {
      case kSectionTreeMeta:
        EAFE_RETURN_NOT_OK(ParseTreeMeta(&section, &model));
        have_meta = true;
        break;
      case kSectionTreeNodes:
        EAFE_RETURN_NOT_OK(ParseTreeNodes(&section, &model));
        have_nodes = true;
        break;
      case kSectionBinnerCuts:
        EAFE_RETURN_NOT_OK(ParseBinnerCuts(&section, &model));
        have_cuts = true;
        break;
      default:
        break;  // Unknown section: skipped by construction of the slice.
    }
  }
  if (!have_meta || !have_nodes || !have_cuts) {
    return Status::InvalidArgument(
        "corrupt container: a required tree-model section is missing");
  }
  EAFE_RETURN_NOT_OK(model.Validate());
  return model;
}

// --- FPE sections ----------------------------------------------------------

Result<uint32_t> ClassifierToWire(fpe::FpeModel::ClassifierKind kind) {
  switch (kind) {
    case fpe::FpeModel::ClassifierKind::kLogistic:
      return kWireClassifierLogistic;
    case fpe::FpeModel::ClassifierKind::kMlp:
      return kWireClassifierMlp;
    case fpe::FpeModel::ClassifierKind::kRandomForest:
      return Status::NotImplemented(
          "forest-backed FPE classifiers are not serializable");
  }
  return Status::InvalidArgument("unknown FPE classifier kind");
}

std::string FpeMetaPayload(const fpe::FpeModel::Options& options,
                           uint32_t classifier_wire) {
  ByteWriter w;
  w.PutString(hashing::MinHashSchemeToString(options.compressor.scheme));
  w.PutU64(options.compressor.dimension);
  w.PutU64(options.compressor.extra_uniform_slots);
  w.PutU8(options.compressor.sort_signature ? 1 : 0);
  w.PutU64(options.compressor.seed);
  w.PutU32(static_cast<uint32_t>(options.input));
  w.PutU32(classifier_wire);
  return w.Take();
}

std::string ScalerPayload(const data::StandardScaler& scaler) {
  ByteWriter w;
  w.PutDoubleVec(scaler.means());
  w.PutDoubleVec(scaler.scales());
  return w.Take();
}

std::string LogisticPayload(const ml::LogisticRegression& classifier) {
  ByteWriter w;
  w.PutU64(classifier.num_classes());
  w.PutU64(classifier.all_weights().size());
  for (const std::vector<double>& head : classifier.all_weights()) {
    w.PutDoubleVec(head);
  }
  return w.Take();
}

std::string MlpPayload(const ml::Mlp& classifier) {
  ByteWriter w;
  w.PutDouble(classifier.label_mean());
  w.PutDouble(classifier.label_scale());
  w.PutU64(classifier.layer_weights().size());
  for (size_t layer = 0; layer < classifier.layer_weights().size();
       ++layer) {
    const Matrix& weights = classifier.layer_weights()[layer];
    w.PutU64(weights.rows());
    w.PutU64(weights.cols());
    for (double v : weights.data()) w.PutDouble(v);
    w.PutDoubleVec(classifier.layer_biases()[layer]);
  }
  return w.Take();
}

struct FpeSections {
  bool have_meta = false;
  fpe::FpeModel::Options options;
  uint32_t classifier_wire = 0;

  bool have_scaler = false;
  std::vector<double> scaler_means;
  std::vector<double> scaler_scales;

  bool have_logistic = false;
  uint64_t logistic_classes = 0;
  std::vector<std::vector<double>> logistic_heads;

  bool have_mlp = false;
  double label_mean = 0.0;
  double label_scale = 1.0;
  std::vector<Matrix> mlp_weights;
  std::vector<std::vector<double>> mlp_biases;
};

Status ParseFpeMeta(ByteReader* section, FpeSections* out) {
  EAFE_ASSIGN_OR_RETURN(std::string scheme, section->TakeString());
  EAFE_ASSIGN_OR_RETURN(out->options.compressor.scheme,
                        hashing::MinHashSchemeFromString(scheme));
  EAFE_ASSIGN_OR_RETURN(uint64_t dimension, section->TakeU64());
  EAFE_ASSIGN_OR_RETURN(uint64_t extra, section->TakeU64());
  // The compressor needs a positive dimension. Capping both counts at
  // 2^32 - 1 keeps dimension + extra, and FpeModel's default of
  // 2 x dimension, from wrapping, so the classifier width check in
  // RestoreLogistic / RestoreMlp compares the real signature size.
  if (dimension == 0 || dimension > UINT32_MAX || extra > UINT32_MAX) {
    return Status::InvalidArgument(
        "corrupt container: FPE compressor dimension must be in "
        "[1, 2^32 - 1] and uniform slots at most 2^32 - 1");
  }
  out->options.compressor.dimension = static_cast<size_t>(dimension);
  out->options.compressor.extra_uniform_slots = static_cast<size_t>(extra);
  EAFE_ASSIGN_OR_RETURN(uint8_t sort_flag, section->TakeU8());
  out->options.compressor.sort_signature = sort_flag != 0;
  EAFE_ASSIGN_OR_RETURN(out->options.compressor.seed, section->TakeU64());
  EAFE_ASSIGN_OR_RETURN(uint32_t input, section->TakeU32());
  if (input > 2) {
    return Status::InvalidArgument(
        "corrupt container: bad FPE input-representation id");
  }
  out->options.input =
      static_cast<fpe::FpeModel::InputRepresentation>(input);
  EAFE_ASSIGN_OR_RETURN(out->classifier_wire, section->TakeU32());
  switch (out->classifier_wire) {
    case kWireClassifierLogistic:
      out->options.classifier = fpe::FpeModel::ClassifierKind::kLogistic;
      break;
    case kWireClassifierMlp:
      out->options.classifier = fpe::FpeModel::ClassifierKind::kMlp;
      break;
    default:
      return Status::InvalidArgument(
          "corrupt container: unknown FPE classifier id");
  }
  return Status::OK();
}

Status ParseMlpSection(ByteReader* section, FpeSections* out) {
  EAFE_ASSIGN_OR_RETURN(out->label_mean, section->TakeDouble());
  EAFE_ASSIGN_OR_RETURN(out->label_scale, section->TakeDouble());
  EAFE_ASSIGN_OR_RETURN(uint64_t num_layers,
                        section->TakeCount(2 * sizeof(uint64_t)));
  for (uint64_t layer = 0; layer < num_layers; ++layer) {
    EAFE_ASSIGN_OR_RETURN(uint64_t rows, section->TakeU64());
    EAFE_ASSIGN_OR_RETURN(uint64_t cols, section->TakeU64());
    if (rows == 0 || cols == 0 ||
        rows > section->remaining() / sizeof(double) / cols) {
      return Status::InvalidArgument(
          "corrupt container: MLP layer shape exceeds its section");
    }
    Matrix weights(static_cast<size_t>(rows), static_cast<size_t>(cols));
    for (double& v : weights.data()) {
      EAFE_ASSIGN_OR_RETURN(v, section->TakeDouble());
    }
    out->mlp_weights.push_back(std::move(weights));
    EAFE_ASSIGN_OR_RETURN(std::vector<double> bias,
                          section->TakeDoubleVec());
    out->mlp_biases.push_back(std::move(bias));
  }
  return Status::OK();
}

Result<fpe::FpeModel> RestoreFpe(FpeSections sections) {
  if (!sections.have_meta || !sections.have_scaler) {
    return Status::InvalidArgument(
        "corrupt container: a required FPE section is missing");
  }
  data::StandardScaler scaler;
  EAFE_RETURN_NOT_OK(scaler.Restore(std::move(sections.scaler_means),
                                    std::move(sections.scaler_scales)));
  fpe::FpeModel model(sections.options);
  if (sections.classifier_wire == kWireClassifierLogistic) {
    if (!sections.have_logistic) {
      return Status::InvalidArgument(
          "corrupt container: logistic FPE model lacks a weights section");
    }
    ml::LogisticRegression classifier;
    EAFE_RETURN_NOT_OK(classifier.RestoreFitted(
        std::move(scaler), std::move(sections.logistic_heads),
        static_cast<size_t>(sections.logistic_classes)));
    EAFE_RETURN_NOT_OK(model.RestoreLogistic(std::move(classifier)));
    return model;
  }
  if (!sections.have_mlp) {
    return Status::InvalidArgument(
        "corrupt container: MLP FPE model lacks a layers section");
  }
  ml::Mlp::Options mlp_options;
  mlp_options.task = data::TaskType::kClassification;
  ml::Mlp classifier(mlp_options);
  EAFE_RETURN_NOT_OK(classifier.RestoreFitted(
      std::move(scaler), std::move(sections.mlp_weights),
      std::move(sections.mlp_biases), sections.label_mean,
      sections.label_scale));
  EAFE_RETURN_NOT_OK(model.RestoreMlp(std::move(classifier)));
  return model;
}

Result<fpe::FpeModel> ParseFpeModel(ByteReader* reader) {
  FpeSections sections;
  while (!reader->done()) {
    EAFE_ASSIGN_OR_RETURN(uint32_t id, reader->TakeU32());
    EAFE_ASSIGN_OR_RETURN(uint64_t length, reader->TakeU64());
    Result<ByteReader> slice = reader->TakeSlice(length);
    if (!slice.ok()) {
      return Status::InvalidArgument(
          StrFormat("corrupt container: section %u declares %llu payload "
                    "bytes but only %zu remain",
                    id, static_cast<unsigned long long>(length),
                    reader->remaining()));
    }
    ByteReader section = std::move(slice).ValueOrDie();
    switch (id) {
      case kSectionFpeMeta:
        EAFE_RETURN_NOT_OK(ParseFpeMeta(&section, &sections));
        sections.have_meta = true;
        break;
      case kSectionScaler: {
        EAFE_ASSIGN_OR_RETURN(sections.scaler_means,
                              section.TakeDoubleVec());
        EAFE_ASSIGN_OR_RETURN(sections.scaler_scales,
                              section.TakeDoubleVec());
        sections.have_scaler = true;
        break;
      }
      case kSectionLogistic: {
        EAFE_ASSIGN_OR_RETURN(sections.logistic_classes, section.TakeU64());
        EAFE_ASSIGN_OR_RETURN(uint64_t num_heads,
                              section.TakeCount(sizeof(uint64_t)));
        for (uint64_t h = 0; h < num_heads; ++h) {
          EAFE_ASSIGN_OR_RETURN(std::vector<double> head,
                                section.TakeDoubleVec());
          sections.logistic_heads.push_back(std::move(head));
        }
        sections.have_logistic = true;
        break;
      }
      case kSectionMlp:
        EAFE_RETURN_NOT_OK(ParseMlpSection(&section, &sections));
        sections.have_mlp = true;
        break;
      default:
        break;  // Unknown section: skipped.
    }
  }
  return RestoreFpe(std::move(sections));
}

// --- file IO ---------------------------------------------------------------

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) {
    return Status::IoError("error while writing '" + path + "'");
  }
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("error while reading '" + path + "'");
  }
  return buffer.str();
}

}  // namespace

Result<std::string> SerializeForest(const ml::RandomForest& forest) {
  EAFE_ASSIGN_OR_RETURN(ml::FlatTreeModel model, FlattenForest(forest));
  return SerializeFlatTree(model, ModelKind::kRandomForest);
}

Result<std::string> SerializeGbdt(const ml::GradientBoostedTrees& booster) {
  EAFE_ASSIGN_OR_RETURN(ml::FlatTreeModel model, FlattenGbdt(booster));
  return SerializeFlatTree(model, ModelKind::kGradientBoostedTrees);
}

Result<std::string> SerializeFpe(const fpe::FpeModel& model) {
  if (!model.trained()) {
    return Status::FailedPrecondition("cannot serialize an untrained model");
  }
  EAFE_ASSIGN_OR_RETURN(uint32_t classifier_wire,
                        ClassifierToWire(model.options().classifier));
  ByteWriter container;
  container.PutBytes(ContainerHeader(ModelKind::kFpe));
  AppendSection(&container, kSectionFpeMeta,
                FpeMetaPayload(model.options(), classifier_wire));
  if (classifier_wire == kWireClassifierLogistic) {
    const ml::LogisticRegression& classifier = model.logistic_classifier();
    AppendSection(&container, kSectionScaler,
                  ScalerPayload(classifier.scaler()));
    AppendSection(&container, kSectionLogistic, LogisticPayload(classifier));
  } else {
    const ml::Mlp& classifier = model.mlp_classifier();
    AppendSection(&container, kSectionScaler,
                  ScalerPayload(classifier.scaler()));
    AppendSection(&container, kSectionMlp, MlpPayload(classifier));
  }
  return container.Take();
}

Result<LoadedModel> DeserializeModel(std::string_view bytes) {
  if (bytes.size() < kMagicSize ||
      bytes.compare(0, kMagicSize, kMagic, kMagicSize) != 0) {
    return Status::InvalidArgument(
        "not an eafe model container (bad magic)");
  }
  ByteReader reader(bytes);
  EAFE_RETURN_NOT_OK(reader.Skip(kMagicSize));
  EAFE_ASSIGN_OR_RETURN(uint32_t version, reader.TakeU32());
  if (version > kFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("container format version %u is newer than this build "
                  "supports (%u)",
                  version, kFormatVersion));
  }
  if (version == 0) {
    return Status::InvalidArgument("corrupt container: format version 0");
  }
  EAFE_ASSIGN_OR_RETURN(uint32_t kind_wire, reader.TakeU32());
  LoadedModel loaded;
  switch (kind_wire) {
    case static_cast<uint32_t>(ModelKind::kRandomForest):
    case static_cast<uint32_t>(ModelKind::kGradientBoostedTrees): {
      loaded.kind = static_cast<ModelKind>(kind_wire);
      EAFE_ASSIGN_OR_RETURN(ml::FlatTreeModel model,
                            ParseTreeModel(&reader, loaded.kind));
      loaded.tree = std::move(model);
      return loaded;
    }
    case static_cast<uint32_t>(ModelKind::kFpe): {
      loaded.kind = ModelKind::kFpe;
      EAFE_ASSIGN_OR_RETURN(fpe::FpeModel model, ParseFpeModel(&reader));
      loaded.fpe = std::move(model);
      return loaded;
    }
    default:
      return Status::InvalidArgument(
          StrFormat("unknown model kind %u in container", kind_wire));
  }
}

Status SaveModel(const ml::RandomForest& forest, const std::string& path) {
  EAFE_ASSIGN_OR_RETURN(std::string bytes, SerializeForest(forest));
  return WriteFileBytes(path, bytes);
}

Status SaveModel(const ml::GradientBoostedTrees& booster,
                 const std::string& path) {
  EAFE_ASSIGN_OR_RETURN(std::string bytes, SerializeGbdt(booster));
  return WriteFileBytes(path, bytes);
}

Status SaveModel(const fpe::FpeModel& model, const std::string& path) {
  EAFE_ASSIGN_OR_RETURN(std::string bytes, SerializeFpe(model));
  return WriteFileBytes(path, bytes);
}

Result<LoadedModel> LoadModel(const std::string& path) {
  EAFE_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return DeserializeModel(bytes);
}

}  // namespace eafe::serve
