#include "data/dataframe.h"

#include <atomic>
#include <cmath>
#include <unordered_set>

#include "core/check.h"
#include "core/string_util.h"

namespace eafe::data {
namespace {

std::atomic<size_t> g_total_select_rows{0};

}  // namespace

size_t DataFrame::TotalSelectRows() {
  return g_total_select_rows.load(std::memory_order_relaxed);
}

void DataFrame::ResetTotalSelectRows() {
  g_total_select_rows.store(0, std::memory_order_relaxed);
}

const Column& DataFrame::column(size_t index) const {
  EAFE_CHECK_LT(index, columns_.size());
  return columns_[index];
}

Column& DataFrame::column(size_t index) {
  EAFE_CHECK_LT(index, columns_.size());
  return columns_[index];
}

Result<size_t> DataFrame::ColumnIndex(const std::string& name) const {
  auto it = name_to_index_.find(name);
  if (it == name_to_index_.end()) {
    return Status::NotFound("no column named '" + name + "'");
  }
  return it->second;
}

Result<const Column*> DataFrame::ColumnByName(const std::string& name) const {
  EAFE_ASSIGN_OR_RETURN(size_t index, ColumnIndex(name));
  return &columns_[index];
}

std::vector<std::string> DataFrame::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const Column& c : columns_) names.push_back(c.name());
  return names;
}

Status DataFrame::AddColumn(Column column) {
  if (column.name().empty()) {
    return Status::InvalidArgument("column name must be nonempty");
  }
  if (name_to_index_.count(column.name())) {
    return Status::AlreadyExists("column '" + column.name() +
                                 "' already exists");
  }
  if (!columns_.empty() && column.size() != num_rows()) {
    return Status::InvalidArgument(StrFormat(
        "column '%s' has %zu rows, frame has %zu", column.name().c_str(),
        column.size(), num_rows()));
  }
  name_to_index_[column.name()] = columns_.size();
  columns_.push_back(std::move(column));
  return Status::OK();
}

Status DataFrame::DropColumn(size_t index) {
  if (index >= columns_.size()) {
    return Status::OutOfRange(
        StrFormat("column index %zu out of range (%zu columns)", index,
                  columns_.size()));
  }
  name_to_index_.erase(columns_[index].name());
  columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(index));
  for (auto& [name, idx] : name_to_index_) {
    if (idx > index) --idx;
  }
  return Status::OK();
}

Status DataFrame::DropColumnByName(const std::string& name) {
  EAFE_ASSIGN_OR_RETURN(size_t index, ColumnIndex(name));
  return DropColumn(index);
}

DataFrame DataFrame::SelectRows(const std::vector<size_t>& row_indices) const {
  g_total_select_rows.fetch_add(1, std::memory_order_relaxed);
  DataFrame out;
  for (const Column& c : columns_) {
    std::vector<double> values;
    values.reserve(row_indices.size());
    for (size_t r : row_indices) {
      EAFE_CHECK_LT(r, c.size());
      values.push_back(c[r]);
    }
    EAFE_CHECK(out.AddColumn(Column(c.name(), std::move(values))).ok());
  }
  return out;
}

DataFrame DataFrame::SelectColumns(
    const std::vector<size_t>& column_indices) const {
  DataFrame out;
  for (size_t ci : column_indices) {
    EAFE_CHECK_LT(ci, columns_.size());
    EAFE_CHECK(out.AddColumn(columns_[ci]).ok());
  }
  return out;
}

Matrix DataFrame::ToMatrix() const {
  Matrix m(num_rows(), num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    const Column& col = columns_[c];
    for (size_t r = 0; r < col.size(); ++r) m(r, c) = col[r];
  }
  return m;
}

Result<DataFrame> DataFrame::FromMatrix(const Matrix& m,
                                        const std::vector<std::string>& names) {
  if (!names.empty() && names.size() != m.cols()) {
    return Status::InvalidArgument(
        StrFormat("got %zu names for %zu columns", names.size(), m.cols()));
  }
  DataFrame out;
  for (size_t c = 0; c < m.cols(); ++c) {
    std::vector<double> values(m.rows());
    for (size_t r = 0; r < m.rows(); ++r) values[r] = m(r, c);
    const std::string name =
        names.empty() ? StrFormat("f%zu", c) : names[c];
    EAFE_RETURN_NOT_OK(out.AddColumn(Column(name, std::move(values))));
  }
  return out;
}

void DataFrame::CopyRow(size_t row, std::vector<double>* out) const {
  EAFE_CHECK_LT(row, num_rows());
  out->resize(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) (*out)[c] = columns_[c][row];
}

std::string TaskTypeToString(TaskType task) {
  return task == TaskType::kClassification ? "classification" : "regression";
}

size_t Dataset::NumClasses() const {
  if (task != TaskType::kClassification) return 0;
  std::unordered_set<int> classes;
  for (double label : labels) classes.insert(static_cast<int>(label));
  return classes.size();
}

Status CheckClassId(double label) {
  // Negated so NaN fails too.
  if (!(label >= 0.0 && label < static_cast<double>(kMaxClasses) &&
        label == std::floor(label))) {
    return Status::InvalidArgument(
        StrFormat("classification labels must be integers in [0, %u), "
                  "got %.17g",
                  kMaxClasses, label));
  }
  return Status::OK();
}

Status Dataset::Validate() const {
  if (features.num_columns() == 0) {
    return Status::InvalidArgument("dataset has no feature columns");
  }
  if (features.num_rows() != labels.size()) {
    return Status::InvalidArgument(
        StrFormat("feature rows (%zu) != labels (%zu)", features.num_rows(),
                  labels.size()));
  }
  if (labels.empty()) {
    return Status::InvalidArgument("dataset has no rows");
  }
  for (const Column& c : features.columns()) {
    if (c.HasNonFinite()) {
      return Status::InvalidArgument("column '" + c.name() +
                                     "' contains non-finite values");
    }
  }
  for (double label : labels) {
    if (!std::isfinite(label)) {
      return Status::InvalidArgument("labels contain non-finite values");
    }
    if (task == TaskType::kClassification) {
      EAFE_RETURN_NOT_OK(CheckClassId(label));
    }
  }
  if (task == TaskType::kClassification && NumClasses() < 2) {
    return Status::InvalidArgument(
        "classification dataset needs >= 2 classes");
  }
  return Status::OK();
}

Dataset Dataset::SelectRows(const std::vector<size_t>& row_indices) const {
  Dataset out;
  out.name = name;
  out.task = task;
  out.features = features.SelectRows(row_indices);
  out.labels.reserve(row_indices.size());
  for (size_t r : row_indices) {
    EAFE_CHECK_LT(r, labels.size());
    out.labels.push_back(labels[r]);
  }
  return out;
}

}  // namespace eafe::data
