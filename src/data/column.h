#ifndef EAFE_DATA_COLUMN_H_
#define EAFE_DATA_COLUMN_H_

#include <cstddef>
#include <string>
#include <vector>

namespace eafe::data {

/// A named numeric column. All feature data in this library is double
/// precision: the paper's transformation operators (log, sqrt, ratio, ...)
/// are defined on reals, and categorical inputs are expected to be encoded
/// upstream (the synthetic factory emits numeric codes directly).
class Column {
 public:
  Column() = default;
  Column(std::string name, std::vector<double> values)
      : name_(std::move(name)), values_(std::move(values)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double operator[](size_t i) const { return values_[i]; }
  double& operator[](size_t i) { return values_[i]; }

  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  /// Minimum value; +inf for an empty column.
  double Min() const;
  /// Maximum value; -inf for an empty column.
  double Max() const;
  /// Arithmetic mean; 0 for an empty column.
  double Mean() const;
  /// Sample standard deviation; 0 for fewer than two values.
  double StdDev() const;

  /// True if any entry is NaN or infinite.
  bool HasNonFinite() const;

  /// Replaces NaN/inf entries with `replacement` in place; returns the
  /// number of replacements. Generated features can produce non-finite
  /// values (division by ~0, log of 0) and downstream models require
  /// finite inputs.
  size_t ReplaceNonFinite(double replacement = 0.0);

  /// Number of distinct values (exact comparison).
  size_t CountDistinct() const;

  /// True when no value differs from the first under `==` (an empty or
  /// one-row column is constant). The same verdict as CountDistinct() < 2,
  /// the test oracle, ±0.0 and NaN included, but it stops at the first
  /// differing value instead of hashing the whole column.
  bool IsConstant() const;

  bool operator==(const Column& other) const {
    return name_ == other.name_ && values_ == other.values_;
  }

 private:
  std::string name_;
  std::vector<double> values_;
};

}  // namespace eafe::data

#endif  // EAFE_DATA_COLUMN_H_
