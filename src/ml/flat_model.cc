#include "ml/flat_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/activation.h"
#include "core/string_util.h"

namespace eafe::ml {

Status FlatTreeModel::Validate() const {
  const size_t n = feature.size();
  if (split_bin.size() != n || left.size() != n || right.size() != n ||
      value.size() != n || proba.size() != n) {
    return Status::InvalidArgument(
        "corrupt flat model: node arrays disagree in length");
  }
  if (kind != EnsembleKind::kForestVote && kind != EnsembleKind::kBoostedSum) {
    return Status::InvalidArgument("corrupt flat model: unknown ensemble kind");
  }
  if (num_features == 0) {
    return Status::InvalidArgument("corrupt flat model: zero features");
  }
  if (tree_offsets.size() < 2 || tree_offsets.front() != 0 ||
      tree_offsets.back() != n) {
    return Status::InvalidArgument(
        "corrupt flat model: tree offsets do not span the node arrays");
  }
  if (cut_offsets.size() != static_cast<size_t>(num_features) + 1 ||
      cut_offsets.front() != 0 || cut_offsets.back() != cuts.size()) {
    return Status::InvalidArgument(
        "corrupt flat model: cut offsets do not span the cuts array");
  }
  for (size_t f = 0; f < num_features; ++f) {
    if (cut_offsets[f] > cut_offsets[f + 1]) {
      return Status::InvalidArgument(
          "corrupt flat model: cut offsets are not monotone");
    }
    // Codes are uint8: the encoder counts at most kCutSlots - 1 cuts.
    if (cut_offsets[f + 1] - cut_offsets[f] > kCutSlots - 1) {
      return Status::InvalidArgument(StrFormat(
          "corrupt flat model: feature %zu has more than %zu cuts", f,
          kCutSlots - 1));
    }
    for (uint64_t c = cut_offsets[f] + 1; c < cut_offsets[f + 1]; ++c) {
      if (!(cuts[static_cast<size_t>(c - 1)] <
            cuts[static_cast<size_t>(c)])) {
        return Status::InvalidArgument(StrFormat(
            "corrupt flat model: cuts of feature %zu are not ascending", f));
      }
    }
  }
  const bool classification_vote =
      kind == EnsembleKind::kForestVote &&
      task == data::TaskType::kClassification;
  if (classification_vote && num_classes < 2) {
    return Status::InvalidArgument(
        "corrupt flat model: classification forest needs >= 2 classes");
  }
  if (kind == EnsembleKind::kBoostedSum && !(learning_rate > 0.0)) {
    return Status::InvalidArgument(
        "corrupt flat model: booster needs a positive learning rate");
  }
  for (size_t t = 0; t + 1 < tree_offsets.size(); ++t) {
    const uint32_t begin = tree_offsets[t];
    const uint32_t end = tree_offsets[t + 1];
    if (begin >= end) {
      return Status::InvalidArgument(
          StrFormat("corrupt flat model: tree %zu is empty or its offsets "
                    "are not increasing",
                    t));
    }
    // Only the last offset is checked against n above; a middle one past
    // it would send this loop beyond the node arrays.
    if (end > n) {
      return Status::InvalidArgument(StrFormat(
          "corrupt flat model: tree %zu runs past the node arrays", t));
    }
    for (uint32_t i = begin; i < end; ++i) {
      const int32_t f = feature[i];
      if (f < 0) {  // Leaf.
        if (left[i] != -1 || right[i] != -1) {
          return Status::InvalidArgument(
              StrFormat("corrupt flat model: leaf node %u has children", i));
        }
        if (classification_vote) {
          const double v = value[i];
          if (!(v >= 0.0) || v != std::floor(v) ||
              v >= static_cast<double>(num_classes) ||
              v >= static_cast<double>(kMaxVoteClasses)) {
            return Status::InvalidArgument(StrFormat(
                "corrupt flat model: leaf node %u predicts an invalid "
                "class id",
                i));
          }
        }
        continue;
      }
      if (static_cast<uint32_t>(f) >= num_features) {
        return Status::InvalidArgument(StrFormat(
            "corrupt flat model: node %u splits on unknown feature %d", i,
            f));
      }
      const uint64_t num_cuts =
          cut_offsets[static_cast<size_t>(f) + 1] -
          cut_offsets[static_cast<size_t>(f)];
      if (split_bin[i] >= num_cuts) {
        return Status::InvalidArgument(StrFormat(
            "corrupt flat model: node %u splits past feature %d's last "
            "bin boundary",
            i, f));
      }
      // Children strictly after the parent and inside the owning tree:
      // any traversal advances monotonically and must terminate.
      for (const int32_t child : {left[i], right[i]}) {
        if (child <= static_cast<int32_t>(i) ||
            static_cast<uint32_t>(child) >= end) {
          return Status::InvalidArgument(StrFormat(
              "corrupt flat model: node %u has an out-of-tree or "
              "non-forward child",
              i));
        }
      }
    }
  }
  return Status::OK();
}

FlatEnsemble::FlatEnsemble(EnsembleKind kind, data::TaskType task,
                           size_t num_features, int num_classes,
                           double base_score, double learning_rate) {
  model_.kind = kind;
  model_.task = task;
  model_.num_features = static_cast<uint32_t>(num_features);
  model_.num_classes = static_cast<uint32_t>(num_classes);
  model_.base_score = base_score;
  model_.learning_rate = learning_rate;
  model_.tree_offsets.push_back(0);
}

FlatEnsemble::FlatEnsemble(FlatTreeModel model) : model_(std::move(model)) {
  // Every child sits after its parent, so one ascending pass settles each
  // node's depth.
  std::vector<uint32_t> depth(model_.num_nodes(), 0u);
  for (size_t t = 0; t < model_.num_trees(); ++t) {
    uint32_t deepest = 0;
    for (uint32_t i = model_.tree_offsets[t]; i < model_.tree_offsets[t + 1];
         ++i) {
      if (model_.feature[i] >= 0) {
        depth[static_cast<size_t>(model_.left[i])] = depth[i] + 1;
        depth[static_cast<size_t>(model_.right[i])] = depth[i] + 1;
      } else {
        deepest = std::max(deepest, depth[i]);
      }
    }
    PackTree(t, deepest);
  }
}

uint32_t FlatEnsemble::AddNode(double value, double proba) {
  const uint32_t node = static_cast<uint32_t>(model_.num_nodes());
  model_.feature.push_back(-1);
  model_.split_bin.push_back(0);
  model_.left.push_back(-1);
  model_.right.push_back(-1);
  model_.value.push_back(value);
  model_.proba.push_back(proba);
  return node;
}

void FlatEnsemble::SetSplit(uint32_t node, int32_t feature,
                            uint8_t split_bin, uint32_t left,
                            uint32_t right) {
  model_.feature[node] = feature;
  model_.split_bin[node] = split_bin;
  model_.left[node] = static_cast<int32_t>(left);
  model_.right[node] = static_cast<int32_t>(right);
}

void FlatEnsemble::EndTree(uint32_t depth) {
  model_.tree_offsets.push_back(static_cast<uint32_t>(model_.num_nodes()));
  PackTree(num_trees() - 1, depth);
}

void FlatEnsemble::PackTree(size_t t, uint32_t depth) {
  const bool votes = model_.kind == EnsembleKind::kForestVote &&
                     model_.task == data::TaskType::kClassification;
  for (uint32_t i = model_.tree_offsets[t]; i < model_.tree_offsets[t + 1];
       ++i) {
    simd::PackedNode nd;
    if (model_.feature[i] >= 0) {
      nd.feature = model_.feature[i];
      nd.split_bin = model_.split_bin[i];
      nd.left = static_cast<uint32_t>(model_.left[i]);
      nd.right = static_cast<uint32_t>(model_.right[i]);
    } else {
      // Leaf: self-loop on feature 0 so spare fixed-depth steps stay put.
      nd.left = nd.right = i;
      if (votes) {
        vote_width_ = std::max(
            vote_width_, static_cast<size_t>(model_.value[i]) + 1);
      }
    }
    nodes_.push_back(nd);
  }
  depths_.push_back(depth);
}

void FlatEnsemble::WalkTree(size_t t, const uint8_t* codes, size_t n,
                            uint32_t* leaves) const {
  simd::WalkRows(nodes_.data(), codes, model_.num_features,
                 model_.tree_offsets[t], depths_[t], n, leaves);
}

std::vector<double> FlatEnsemble::BoostedSum(size_t n,
                                             WalkScratch* scratch) const {
  std::vector<double> out(n, model_.base_score);
  const double lr = model_.learning_rate;
  const double* value = model_.value.data();
  ForEachLeaf(n, scratch,
              [&](size_t r, uint32_t leaf) { out[r] += lr * value[leaf]; });
  return out;
}

std::vector<double> FlatEnsemble::Predict(size_t n,
                                          WalkScratch* scratch) const {
  const bool classification =
      model_.task == data::TaskType::kClassification;
  if (model_.kind == EnsembleKind::kBoostedSum) {
    std::vector<double> out = BoostedSum(n, scratch);
    if (classification) {
      for (double& score : out) score = Sigmoid(score) > 0.5 ? 1.0 : 0.0;
    }
    return out;
  }
  const double* value = model_.value.data();
  std::vector<double> out(n, 0.0);
  if (!classification) {
    ForEachLeaf(n, scratch,
                [&](size_t r, uint32_t leaf) { out[r] += value[leaf]; });
    for (double& sum : out) sum /= static_cast<double>(num_trees());
    return out;
  }
  // Majority vote over flat per-class counts, lowest class id on ties
  // (ascending scan, strict >).
  const size_t width = vote_width_;
  std::vector<uint32_t>& votes = scratch->votes;
  votes.assign(n * width, 0u);
  ForEachLeaf(n, scratch, [&](size_t r, uint32_t leaf) {
    ++votes[r * width + static_cast<size_t>(value[leaf])];
  });
  for (size_t r = 0; r < n; ++r) {
    const uint32_t* row_votes = votes.data() + r * width;
    uint32_t best_count = 0;
    size_t best_class = 0;
    for (size_t c = 0; c < width; ++c) {
      if (row_votes[c] > best_count) {
        best_count = row_votes[c];
        best_class = c;
      }
    }
    out[r] = static_cast<double>(best_class);
  }
  return out;
}

std::vector<double> FlatEnsemble::PredictProba(size_t n,
                                               WalkScratch* scratch) const {
  if (model_.kind == EnsembleKind::kBoostedSum) {
    std::vector<double> out = BoostedSum(n, scratch);
    if (model_.task == data::TaskType::kClassification) {
      for (double& score : out) score = Sigmoid(score);
    }
    return out;
  }
  const double* proba = model_.proba.data();
  std::vector<double> out(n, 0.0);
  ForEachLeaf(n, scratch,
              [&](size_t r, uint32_t leaf) { out[r] += proba[leaf]; });
  for (double& sum : out) sum /= static_cast<double>(num_trees());
  return out;
}

std::vector<double> FlatEnsemble::PredictFrame(const FeatureBinner& binner,
                                               const data::DataFrame& x,
                                               bool proba) const {
  WalkScratch scratch;
  EncodeRows(binner.padded_cuts(), x, &scratch.codes);
  return proba ? PredictProba(x.num_rows(), &scratch)
               : Predict(x.num_rows(), &scratch);
}

Result<std::vector<double>> FlatEnsemble::PredictRows(
    const FeatureBinner& binner, const std::vector<size_t>& rows) const {
  WalkScratch scratch;
  EAFE_RETURN_NOT_OK(binner.GatherRows(rows, &scratch.codes));
  return Predict(rows.size(), &scratch);
}

}  // namespace eafe::ml
