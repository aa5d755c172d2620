#include "afe/nfs.h"

#include "afe/eafe.h"
#include "afe/search_pipeline.h"

namespace eafe::afe {

NfsSearch::NfsSearch(const SearchOptions& options) : options_(options) {}

Result<SearchResult> NfsSearch::Run(const data::Dataset& dataset) {
  EAFE_RETURN_NOT_OK(dataset.Validate());
  // E-AFE_R is NFS plus the FPE filter, so NFS is E-AFE_R's agent loop
  // with the default (kNone) filter: every generated candidate reaches
  // the downstream task.
  EafeSearch::Options options;
  options.search = options_;
  options.variant = EafeSearch::Variant::kPolicyGradient;
  EafeSearch agents(options);
  return agents.RunAgents(dataset, StepPipelineConfig(), name());
}

}  // namespace eafe::afe
