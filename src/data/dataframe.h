#ifndef EAFE_DATA_DATAFRAME_H_
#define EAFE_DATA_DATAFRAME_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/matrix.h"
#include "core/status.h"
#include "data/column.h"

namespace eafe::data {

/// Column-major table of named numeric columns with uniform row count.
/// This is the substrate every model and the AFE search operate on; it is
/// intentionally small — append/drop/select plus conversions — rather than
/// a general query engine.
class DataFrame {
 public:
  DataFrame() = default;

  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  size_t num_columns() const { return columns_.size(); }
  bool empty() const { return columns_.empty(); }

  const Column& column(size_t index) const;
  Column& column(size_t index);

  /// Index of the column named `name`, or NotFound.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// The column named `name`, or NotFound.
  Result<const Column*> ColumnByName(const std::string& name) const;

  const std::vector<Column>& columns() const { return columns_; }

  std::vector<std::string> ColumnNames() const;

  /// Appends a column. Fails if the name already exists or the length
  /// disagrees with existing columns.
  Status AddColumn(Column column);

  /// Removes the column at `index`; OutOfRange if invalid.
  Status DropColumn(size_t index);

  /// Removes the column named `name`; NotFound if absent.
  Status DropColumnByName(const std::string& name);

  /// New frame containing only the given rows (indices may repeat — this
  /// doubles as bootstrap sampling). Indices must be < num_rows().
  DataFrame SelectRows(const std::vector<size_t>& row_indices) const;

  /// Process-wide count of SelectRows materializations — test
  /// instrumentation for the zero-copy forest/CV hot path (a shared-binner
  /// fit must not bump this at all). Relaxed atomic; reset only between
  /// test sections.
  static size_t TotalSelectRows();
  static void ResetTotalSelectRows();

  /// New frame containing only the given columns, in the given order.
  DataFrame SelectColumns(const std::vector<size_t>& column_indices) const;

  /// Row-major copy (num_rows x num_columns) for row-oriented learners.
  Matrix ToMatrix() const;

  /// Builds a frame from a row-major matrix with generated or provided
  /// column names. Fails if names.size() != m.cols() (when non-empty).
  static Result<DataFrame> FromMatrix(
      const Matrix& m, const std::vector<std::string>& names = {});

  /// Copies row `i` into `out` (resized to num_columns()).
  void CopyRow(size_t row, std::vector<double>* out) const;

  bool operator==(const DataFrame& other) const {
    return columns_ == other.columns_;
  }

 private:
  std::vector<Column> columns_;
  std::unordered_map<std::string, size_t> name_to_index_;
};

/// Downstream task family, following the paper: F1 for classification,
/// 1-RAE for regression.
enum class TaskType { kClassification, kRegression };

std::string TaskTypeToString(TaskType task);

/// Classification labels are class ids below this bound, so per-class
/// counts and votes stay small dense arrays.
inline constexpr uint32_t kMaxClasses = 1u << 16;

/// OK iff `label` is a class id: an integer in [0, kMaxClasses), so its
/// int cast is defined and bounded. The one per-label check behind
/// Dataset::Validate and every classifier's fit (ml::BinnedLabels).
Status CheckClassId(double label);

/// A supervised dataset: feature frame + aligned label vector + task type.
/// Classification labels are integer class ids in [0, kMaxClasses) stored
/// as doubles.
struct Dataset {
  std::string name;
  TaskType task = TaskType::kClassification;
  DataFrame features;
  std::vector<double> labels;

  size_t num_rows() const { return labels.size(); }
  size_t num_features() const { return features.num_columns(); }

  /// Number of distinct class labels (classification); 0 for regression.
  size_t NumClasses() const;

  /// OK iff features and labels are aligned, nonempty, and finite, and
  /// classification labels are class ids below kMaxClasses.
  Status Validate() const;

  /// Subset of rows (indices may repeat).
  Dataset SelectRows(const std::vector<size_t>& row_indices) const;
};

}  // namespace eafe::data

#endif  // EAFE_DATA_DATAFRAME_H_
