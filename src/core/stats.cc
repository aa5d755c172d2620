#include "core/stats.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace eafe::stats {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double mean = Mean(values);
  double sum = 0.0;
  for (double v : values) sum += (v - mean) * (v - mean);
  return sum / static_cast<double>(values.size() - 1);
}

double StdDev(const std::vector<double>& values) {
  return std::sqrt(Variance(values));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  EAFE_CHECK_EQ(x.size(), y.size());
  if (x.size() < 2) return 0.0;
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

namespace {

// Lentz's continued fraction for the incomplete beta function.
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIterations = 300;
  constexpr double kEpsilon = 1e-14;
  constexpr double kTiny = 1e-30;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double StudentTCdf(double t, double df) {
  EAFE_CHECK_GT(df, 0.0);
  const double x = df / (df + t * t);
  const double tail = 0.5 * RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t > 0.0 ? 1.0 - tail : tail;
}

Result<TestResult> PairedTTest(const std::vector<double>& a,
                               const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("paired t-test requires equal sizes");
  }
  if (a.size() < 2) {
    return Status::InvalidArgument("paired t-test requires >= 2 pairs");
  }
  std::vector<double> diff(a.size());
  for (size_t i = 0; i < a.size(); ++i) diff[i] = b[i] - a[i];
  const double mean = Mean(diff);
  const double sd = StdDev(diff);
  const double n = static_cast<double>(diff.size());
  TestResult result;
  if (sd == 0.0) {
    result.statistic = mean > 0.0 ? 1e12 : (mean < 0.0 ? -1e12 : 0.0);
    result.p_value = mean > 0.0 ? 0.0 : 1.0;
    return result;
  }
  result.statistic = mean / (sd / std::sqrt(n));
  result.p_value = 1.0 - StudentTCdf(result.statistic, n - 1.0);
  return result;
}

Result<TestResult> WilcoxonSignedRank(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("wilcoxon requires equal sizes");
  }
  struct Entry {
    double abs_diff;
    int sign;
  };
  std::vector<Entry> entries;
  entries.reserve(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = b[i] - a[i];
    if (d != 0.0) entries.push_back({std::fabs(d), d > 0.0 ? 1 : -1});
  }
  if (entries.size() < 2) {
    return Status::InvalidArgument("wilcoxon requires >= 2 nonzero diffs");
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& x, const Entry& y) {
              return x.abs_diff < y.abs_diff;
            });
  // Average ranks within tie groups; each group of t tied |d| takes
  // (t^3 - t) / 48 off the variance of W+.
  const size_t n = entries.size();
  std::vector<double> ranks(n);
  double tie_sum = 0.0;  // Sum of t^3 - t over the tie groups.
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && entries[j + 1].abs_diff == entries[i].abs_diff) ++j;
    const double avg_rank = 0.5 * static_cast<double>(i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[k] = avg_rank;
    const double t = static_cast<double>(j - i + 1);
    tie_sum += t * t * t - t;
    i = j + 1;
  }
  double w_plus = 0.0;
  for (size_t k = 0; k < n; ++k) {
    if (entries[k].sign > 0) w_plus += ranks[k];
  }
  const double nd = static_cast<double>(n);
  const double mean_w = nd * (nd + 1.0) / 4.0;
  const double sd_w = std::sqrt(nd * (nd + 1.0) * (2.0 * nd + 1.0) / 24.0 -
                                tie_sum / 48.0);
  TestResult result;
  result.statistic = (w_plus - mean_w) / sd_w;
  result.p_value = 1.0 - NormalCdf(result.statistic);
  return result;
}

double BinaryCounts::Precision() const {
  return tp + fp == 0 ? 0.0
                      : static_cast<double>(tp) / static_cast<double>(tp + fp);
}

double BinaryCounts::Recall() const {
  return tp + fn == 0 ? 0.0
                      : static_cast<double>(tp) / static_cast<double>(tp + fn);
}

double BinaryCounts::F1() const {
  const double p = Precision();
  const double r = Recall();
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double BinaryCounts::Accuracy() const {
  const size_t total = tp + fp + tn + fn;
  return total == 0 ? 0.0
                    : static_cast<double>(tp + tn) / static_cast<double>(total);
}

BinaryCounts CountBinary(const std::vector<int>& truth,
                         const std::vector<int>& predicted) {
  EAFE_CHECK_EQ(truth.size(), predicted.size());
  BinaryCounts counts;
  for (size_t i = 0; i < truth.size(); ++i) {
    const bool t = truth[i] != 0;
    const bool p = predicted[i] != 0;
    if (t && p) {
      ++counts.tp;
    } else if (!t && p) {
      ++counts.fp;
    } else if (t && !p) {
      ++counts.fn;
    } else {
      ++counts.tn;
    }
  }
  return counts;
}

}  // namespace eafe::stats
