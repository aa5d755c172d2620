#include "afe/feature_space.h"

#include "core/check.h"
#include "core/string_util.h"

namespace eafe::afe {

FeatureSpace::FeatureSpace(const data::Dataset& base, const Options& options)
    : options_(options),
      name_(base.name),
      task_(base.task),
      labels_(base.labels) {
  EAFE_CHECK(base.Validate().ok());
  groups_.reserve(base.features.num_columns());
  group_names_.resize(base.features.num_columns());
  for (const data::Column& col : base.features.columns()) {
    SpaceFeature feature;
    feature.column = col;
    feature.order = 0;
    groups_.push_back({std::move(feature)});
  }
}

const std::vector<SpaceFeature>& FeatureSpace::group(size_t index) const {
  EAFE_CHECK_LT(index, groups_.size());
  return groups_[index];
}

Result<SpaceFeature> FeatureSpace::GenerateCandidate(
    const Action& action) const {
  if (action.group >= groups_.size()) {
    return Status::OutOfRange(
        StrFormat("group %zu out of range (%zu groups)", action.group,
                  groups_.size()));
  }
  const std::vector<SpaceFeature>& group = groups_[action.group];
  if (action.input_b_group >= groups_.size()) {
    return Status::OutOfRange("action input_b_group out of range");
  }
  const std::vector<SpaceFeature>& b_group = groups_[action.input_b_group];
  if (action.input_a >= group.size() || action.input_b >= b_group.size()) {
    return Status::OutOfRange("action input index out of range");
  }
  if (IsUnary(action.op) && (action.input_a != action.input_b ||
                             action.group != action.input_b_group)) {
    return Status::InvalidArgument(
        "unary operators require feature_2 == feature_1");
  }
  const SpaceFeature& a = group[action.input_a];
  const SpaceFeature& b = b_group[action.input_b];
  const size_t order = std::max(a.order, b.order) + 1;
  if (order > options_.max_order) {
    return Status::FailedPrecondition(
        StrFormat("candidate order %zu exceeds max order %zu", order,
                  options_.max_order));
  }
  EAFE_ASSIGN_OR_RETURN(data::Column column,
                        ApplyOperator(action.op, a.column, b.column));
  if (Contains(action.group, column.name())) {
    return Status::AlreadyExists("feature '" + column.name() +
                                 "' was already generated in this group");
  }
  // A constant feature carries no signal and would destabilize some
  // downstream models; treat it as unqualified at generation time.
  if (column.IsConstant()) {
    return Status::FailedPrecondition("candidate feature is constant");
  }
  SpaceFeature feature;
  feature.column = std::move(column);
  feature.order = order;
  return feature;
}

Status FeatureSpace::Accept(size_t group, SpaceFeature feature) {
  if (group >= groups_.size()) {
    return Status::OutOfRange("group out of range");
  }
  // groups_[group] holds the original feature plus accepted generations.
  if (groups_[group].size() >= options_.max_generated_per_group + 1) {
    return Status::FailedPrecondition(
        StrFormat("group %zu is full (%zu generated features)", group,
                  groups_[group].size() - 1));
  }
  group_names_[group].insert(feature.column.name());
  groups_[group].push_back(std::move(feature));
  return Status::OK();
}

FeatureSpace::Action FeatureSpace::SampleRandomAction(size_t group,
                                                      Rng* rng) const {
  return MakeAction(group,
                    AllOperators()[rng->UniformInt(
                        static_cast<uint64_t>(kNumOperators))],
                    rng);
}

FeatureSpace::Action FeatureSpace::MakeAction(size_t group, Operator op,
                                              Rng* rng) const {
  EAFE_CHECK_LT(group, groups_.size());
  Action action;
  action.group = group;
  action.op = op;
  const size_t group_size = groups_[group].size();
  action.input_a = rng->UniformInt(static_cast<uint64_t>(group_size));
  if (IsUnary(op)) {
    action.input_b_group = group;
    action.input_b = action.input_a;
  } else {
    action.input_b_group =
        rng->UniformInt(static_cast<uint64_t>(groups_.size()));
    action.input_b = rng->UniformInt(
        static_cast<uint64_t>(groups_[action.input_b_group].size()));
  }
  return action;
}

data::Dataset FeatureSpace::ToDataset() const {
  data::Dataset dataset;
  dataset.name = name_;
  dataset.task = task_;
  dataset.labels = labels_;
  size_t suffix = 0;
  for (const auto& group : groups_) {
    for (const SpaceFeature& feature : group) {
      data::Column column = feature.column;
      // Identical derived names can arise across different subgroups
      // (e.g. minmax(f1) generated from two groups sharing f1); suffix
      // duplicates rather than failing.
      if (!dataset.features.AddColumn(column).ok()) {
        column.set_name(column.name() + StrFormat("#%zu", suffix++));
        EAFE_CHECK(dataset.features.AddColumn(std::move(column)).ok());
      }
    }
  }
  return dataset;
}

size_t FeatureSpace::num_generated() const {
  size_t total = 0;
  for (const auto& group : groups_) total += group.size() - 1;
  return total;
}

bool FeatureSpace::Contains(size_t group, const std::string& name) const {
  EAFE_CHECK_LT(group, groups_.size());
  return group_names_[group].count(name) > 0;
}

}  // namespace eafe::afe
