#ifndef EAFE_SERVE_MODEL_STORE_H_
#define EAFE_SERVE_MODEL_STORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/status.h"
#include "fpe/fpe_model.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/flat_model.h"
#include "ml/random_forest.h"

namespace eafe::serve {

/// Versioned binary container for trained models — the deployment unit
/// the FPE amortization story needs: pre-train once, save, and serve
/// against any number of target datasets from the flat arrays.
///
/// Layout (all integers little-endian, doubles as IEEE-754 u64 bits):
///
///   magic "EAFEMODL"   8 bytes
///   u32 format version  (kFormatVersion)
///   u32 model kind      (ModelKind)
///   sections until end of container, each:
///     u32 section id | u64 payload length | payload
///
/// Compatibility rules: a loader rejects containers whose format
/// version is newer than it understands, and *skips* sections with
/// unknown ids — new optional sections can be appended without breaking
/// old loaders, while incompatible layout changes bump the version.
/// Every read is bounds-checked (serve/wire.h) and the decoded model is
/// structurally validated, so truncated or corrupted containers fail
/// with a clean Status instead of undefined behaviour.
///
/// Tree models (forest / gbdt) store their saved form (ml::
/// SharedBinnerModel::Flatten): the fit's flat image, structure-of-arrays
/// node records (ml/flat_model.h), plus the fitted FeatureBinner
/// thresholds, so a loaded model encodes raw frames itself and predicts
/// bit-identically to the in-memory model. FPE models store the compressor
/// configuration plus the logistic classifier's scaler and weights.

enum class ModelKind : uint32_t {
  kRandomForest = 1,
  kGradientBoostedTrees = 2,
  kFpe = 3,
};

inline constexpr uint32_t kFormatVersion = 1;
inline constexpr size_t kMagicSize = 8;
inline constexpr char kMagic[kMagicSize + 1] = "EAFEMODL";

// Section ids. Tree kinds use 1-3; the FPE kind uses 16-18. Id 19 held an
// MLP head that no build writes any more; a loader skips it like any
// unknown section.
inline constexpr uint32_t kSectionTreeMeta = 1;
inline constexpr uint32_t kSectionTreeNodes = 2;
inline constexpr uint32_t kSectionBinnerCuts = 3;
inline constexpr uint32_t kSectionFpeMeta = 16;
inline constexpr uint32_t kSectionScaler = 17;
inline constexpr uint32_t kSectionLogistic = 18;

/// Serializes a fitted model to container bytes. Every fitted forest
/// serializes; FPE models must be trained with the logistic classifier
/// (forest-backed FPE is NotImplemented).
Result<std::string> SerializeForest(const ml::RandomForest& forest);
Result<std::string> SerializeGbdt(const ml::GradientBoostedTrees& booster);
Result<std::string> SerializeFpe(const fpe::FpeModel& model);

/// A deserialized container: tree kinds carry the flat arrays (feed to
/// FlatPredictor::Create), the FPE kind carries a restored FpeModel.
struct LoadedModel {
  ModelKind kind = ModelKind::kRandomForest;
  std::optional<ml::FlatTreeModel> tree;
  std::optional<fpe::FpeModel> fpe;
};

/// Decodes container bytes. Anything else, including the retired
/// "eafe-fpe-model v1" text format, fails as a bad magic.
Result<LoadedModel> DeserializeModel(std::string_view bytes);

/// File convenience wrappers. LoadModel reads the whole file into memory
/// and decodes it with DeserializeModel.
Status SaveModel(const ml::RandomForest& forest, const std::string& path);
Status SaveModel(const ml::GradientBoostedTrees& booster,
                 const std::string& path);
Status SaveModel(const fpe::FpeModel& model, const std::string& path);
Result<LoadedModel> LoadModel(const std::string& path);

}  // namespace eafe::serve

#endif  // EAFE_SERVE_MODEL_STORE_H_
