#ifndef EAFE_AFE_AGENT_H_
#define EAFE_AFE_AGENT_H_

#include <cstdint>
#include <vector>

#include "core/optimizer.h"
#include "core/rng.h"

namespace eafe::afe {

/// The per-feature RNN policy of Fig. 4: a single tanh recurrent cell
/// whose hidden state carries the action-probability context across
/// generation rounds, with a softmax head over the 9 transformation
/// operators. Trained by REINFORCE (Eq. 12) with an entropy bonus and L2
/// regularization (the ||theta||^2 term of Eq. 1), using Adam as in the
/// paper's setup.
class RnnAgent {
 public:
  struct Options {
    size_t input_dim = 12;
    size_t hidden_dim = 16;
    size_t num_actions = 9;
    double learning_rate = 0.01;  ///< Paper default.
    double l2 = 1e-4;
    double entropy_bonus = 0.01;
    uint64_t seed = 1;
  };

  RnnAgent() : RnnAgent(Options()) {}
  explicit RnnAgent(const Options& options);

  /// Clears the recurrent state and any recorded steps (start of an
  /// episode). The first round's action distribution is then uniform up
  /// to the (small) initialization noise, matching the paper's uniform
  /// first-round policy.
  void ResetEpisode();

  /// Advances the recurrent state on `input` and returns the action
  /// probabilities h_t. The step is recorded for the next Update call.
  std::vector<double> Step(const std::vector<double>& input);

  /// Samples an action index from a probability vector.
  size_t SampleAction(const std::vector<double>& probabilities, Rng* rng) const;

  /// REINFORCE update over the recorded steps: `actions[t]` is the action
  /// taken after the t-th Step and `returns[t]` its (lambda-)return U_t.
  /// Sizes must equal the number of recorded steps. Clears the records.
  void Update(const std::vector<size_t>& actions,
              const std::vector<double>& returns);

  size_t num_recorded_steps() const { return records_.size(); }
  const Options& options() const { return options_; }

  /// Flat parameter vector (for tests).
  const std::vector<double>& parameters() const { return params_; }

 private:
  struct StepRecord {
    std::vector<double> input;
    std::vector<double> hidden_prev;
    std::vector<double> hidden;  ///< tanh activations.
    std::vector<double> probs;
  };

  // Flat-parameter layout offsets.
  size_t OffsetWx() const { return 0; }
  size_t OffsetWh() const { return options_.input_dim * options_.hidden_dim; }
  size_t OffsetB() const {
    return OffsetWh() + options_.hidden_dim * options_.hidden_dim;
  }
  size_t OffsetWo() const { return OffsetB() + options_.hidden_dim; }
  size_t OffsetC() const {
    return OffsetWo() + options_.hidden_dim * options_.num_actions;
  }
  size_t NumParams() const { return OffsetC() + options_.num_actions; }

  Options options_;
  std::vector<double> params_;
  Adam adam_;
  std::vector<double> hidden_;  ///< Recurrent state.
  std::vector<StepRecord> records_;
};

}  // namespace eafe::afe

#endif  // EAFE_AFE_AGENT_H_
