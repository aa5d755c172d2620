#ifndef EAFE_AFE_NFS_H_
#define EAFE_AFE_NFS_H_

#include <string>

#include "afe/search.h"

namespace eafe::afe {

/// Neural Feature Search (Chen et al., ICDM 2019), the paper's strongest
/// baseline: one RNN controller per original feature proposes
/// transformation operators; every generated candidate is evaluated on the
/// downstream task (no pre-filtering); controllers are trained by plain
/// policy gradient on the evaluation gains. The absence of any
/// pre-evaluation is exactly the inefficiency E-AFE attacks (Table I).
/// It runs E-AFE_R's agent loop (EafeSearch, kPolicyGradient) with the
/// filter off, so the two differ only in the FPE filter.
class NfsSearch : public FeatureSearch {
 public:
  explicit NfsSearch(const SearchOptions& options);

  std::string name() const override { return "NFS"; }
  Result<SearchResult> Run(const data::Dataset& dataset) override;

 private:
  SearchOptions options_;
};

}  // namespace eafe::afe

#endif  // EAFE_AFE_NFS_H_
