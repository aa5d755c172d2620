#include "data/column.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace eafe::data {

double Column::Min() const {
  double m = std::numeric_limits<double>::infinity();
  for (double v : values_) m = std::min(m, v);
  return m;
}

double Column::Max() const {
  double m = -std::numeric_limits<double>::infinity();
  for (double v : values_) m = std::max(m, v);
  return m;
}

double Column::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Column::StdDev() const {
  if (values_.size() < 2) return 0.0;
  const double mean = Mean();
  double sum = 0.0;
  for (double v : values_) sum += (v - mean) * (v - mean);
  return std::sqrt(sum / static_cast<double>(values_.size() - 1));
}

bool Column::HasNonFinite() const {
  for (double v : values_) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

size_t Column::ReplaceNonFinite(double replacement) {
  size_t count = 0;
  for (double& v : values_) {
    if (!std::isfinite(v)) {
      v = replacement;
      ++count;
    }
  }
  return count;
}

size_t Column::CountDistinct() const {
  std::unordered_set<double> seen(values_.begin(), values_.end());
  return seen.size();
}

bool Column::IsConstant() const {
  for (size_t i = 1; i < values_.size(); ++i) {
    if (!(values_[i] == values_[0])) return false;
  }
  return true;
}

}  // namespace eafe::data
