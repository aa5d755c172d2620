#ifndef EAFE_AFE_EAFE_H_
#define EAFE_AFE_EAFE_H_

#include <string>

#include "afe/agent.h"
#include "afe/feature_space.h"
#include "afe/replay_buffer.h"
#include "afe/reward.h"
#include "afe/search.h"
#include "fpe/fpe_model.h"

namespace eafe::afe {

/// E-AFE: the paper's efficient AFE framework (Fig. 5, Algorithm 2).
/// Stage 1 initializes the per-feature policies using only FPE inference
/// as the reward (Eq. 7-9), recording promising actions in a replay
/// buffer; stage 2 trains formally against the downstream task with
/// lambda-returns (Eq. 10-12), evaluating only FPE-approved candidates.
///
/// Variants reproduce the paper's ablations:
///  - kFull:           the complete method (E-AFE).
///  - kRandomDrop:     E-AFE_D — the FPE filter replaced by a random drop
///                     at a matched pass rate; no stage-1 initialization
///                     (there is no model to initialize from).
///  - kPolicyGradient: E-AFE_R — FPE filtering kept, but the RL framework
///                     replaced by NFS-style plain policy gradient (no
///                     two-stage init, no replay buffer, no
///                     lambda-returns).
class EafeSearch : public FeatureSearch {
 public:
  enum class Variant { kFull, kRandomDrop, kPolicyGradient };

  struct Options {
    SearchOptions search;
    Variant variant = Variant::kFull;
    /// Trained FPE model; required unless variant == kRandomDrop. Not
    /// owned; must outlive the search.
    const fpe::FpeModel* fpe_model = nullptr;
    /// Stage-1 initialization epochs (kFull only).
    size_t stage1_epochs = 4;
    /// Candidate pass probability for kRandomDrop, matched to the FPE
    /// model's typical pass rate so evaluation counts are comparable.
    double random_drop_pass_rate = 0.45;
    /// P(effective) above which a candidate passes the pre-evaluation.
    double fpe_accept_threshold = 0.55;
    /// Eq. 8 shaping constants for stage-1 rewards.
    FpeRewardOptions reward;
    /// Cap on the fraction of stage-2 steps spent evaluating replayed
    /// stage-1 features. Replayed candidates always reach the downstream
    /// task (they pre-passed FPE), so an uncapped queue would spend the
    /// entire evaluation budget and erase the method's savings.
    double replay_fraction = 0.2;
    /// Stage-2 generation attempts per step. 1 is the paper's semantics
    /// (a rejected candidate is simply dropped, so evaluations per epoch
    /// shrink by the drop rate — Table IV). Values > 1 let the agent
    /// regenerate after a rejection, trading some of the evaluation
    /// savings for more accepted features per epoch.
    size_t max_generation_attempts = 1;
  };

  EafeSearch() : EafeSearch(Options()) {}
  explicit EafeSearch(const Options& options);

  std::string name() const override;
  Result<SearchResult> Run(const data::Dataset& dataset) override;

  /// Replay-buffer contents after the last Run (inspection/tests).
  const ReplayBuffer& replay_buffer() const { return replay_; }

 private:
  /// Stage 1 of Algorithm 2: FPE-only exploration that initializes
  /// `agents` and fills the replay buffer, in a space of its own built
  /// like stage 2's (`space_options`). No downstream evaluations.
  Status RunStage1(const data::Dataset& dataset,
                   const FeatureSpace::Options& space_options,
                   std::vector<RnnAgent>* agents, Rng* rng,
                   SearchResult* result);

  Options options_;
  ReplayBuffer replay_;
};

}  // namespace eafe::afe

#endif  // EAFE_AFE_EAFE_H_
