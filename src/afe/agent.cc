#include "afe/agent.h"

#include <algorithm>
#include <cmath>

#include "core/activation.h"
#include "core/check.h"

namespace eafe::afe {

RnnAgent::RnnAgent(const Options& options)
    : options_(options), adam_(options.learning_rate, options.l2) {
  EAFE_CHECK_GT(options_.input_dim, 0u);
  EAFE_CHECK_GT(options_.hidden_dim, 0u);
  EAFE_CHECK_GT(options_.num_actions, 1u);
  Rng rng(options_.seed);
  params_.resize(NumParams());
  // Small initialization keeps the initial policy near uniform.
  for (double& p : params_) p = rng.Normal(0.0, 0.05);
  hidden_.assign(options_.hidden_dim, 0.0);
}

void RnnAgent::ResetEpisode() {
  std::fill(hidden_.begin(), hidden_.end(), 0.0);
  records_.clear();
}

std::vector<double> RnnAgent::Step(const std::vector<double>& input) {
  EAFE_CHECK_EQ(input.size(), options_.input_dim);
  const size_t in = options_.input_dim;
  const size_t hid = options_.hidden_dim;
  const size_t act = options_.num_actions;
  const double* wx = params_.data() + OffsetWx();
  const double* wh = params_.data() + OffsetWh();
  const double* b = params_.data() + OffsetB();
  const double* wo = params_.data() + OffsetWo();
  const double* c = params_.data() + OffsetC();

  StepRecord record;
  record.input = input;
  record.hidden_prev = hidden_;

  std::vector<double> z(hid, 0.0);
  for (size_t h = 0; h < hid; ++h) {
    double sum = b[h];
    for (size_t i = 0; i < in; ++i) sum += wx[i * hid + h] * input[i];
    for (size_t j = 0; j < hid; ++j) sum += wh[j * hid + h] * hidden_[j];
    z[h] = std::tanh(sum);
  }
  hidden_ = z;
  record.hidden = z;

  std::vector<double> probs(act, 0.0);
  for (size_t a = 0; a < act; ++a) {
    double sum = c[a];
    for (size_t h = 0; h < hid; ++h) sum += wo[h * act + a] * z[h];
    probs[a] = sum;  // The logit, until the softmax below.
  }
  SoftmaxInPlace(probs);
  record.probs = probs;
  records_.push_back(std::move(record));
  return probs;
}

size_t RnnAgent::SampleAction(const std::vector<double>& probabilities,
                              Rng* rng) const {
  EAFE_CHECK_EQ(probabilities.size(), options_.num_actions);
  return rng->Categorical(probabilities);
}

void RnnAgent::Update(const std::vector<size_t>& actions,
                      const std::vector<double>& returns) {
  EAFE_CHECK_EQ(actions.size(), records_.size());
  EAFE_CHECK_EQ(returns.size(), records_.size());
  if (records_.empty()) return;

  const size_t in = options_.input_dim;
  const size_t hid = options_.hidden_dim;
  const size_t act = options_.num_actions;
  std::vector<double> grads(params_.size(), 0.0);
  double* g_wx = grads.data() + OffsetWx();
  double* g_wh = grads.data() + OffsetWh();
  double* g_b = grads.data() + OffsetB();
  double* g_wo = grads.data() + OffsetWo();
  double* g_c = grads.data() + OffsetC();
  const double* wo = params_.data() + OffsetWo();

  for (size_t t = 0; t < records_.size(); ++t) {
    const StepRecord& record = records_[t];
    EAFE_CHECK_LT(actions[t], act);
    // Policy-gradient term: d(-log pi(a) * U)/dlogits = (pi - onehot) * U.
    std::vector<double> d_logits(act);
    for (size_t a = 0; a < act; ++a) {
      d_logits[a] = record.probs[a] * returns[t];
    }
    d_logits[actions[t]] -= returns[t];
    // Entropy bonus (exploration): loss -= beta * H(pi);
    // dH/dlogit_j = -p_j (log p_j + H).
    if (options_.entropy_bonus > 0.0) {
      double entropy = 0.0;
      for (double p : record.probs) {
        if (p > 0.0) entropy -= p * std::log(p);
      }
      for (size_t a = 0; a < act; ++a) {
        const double p = record.probs[a];
        if (p > 0.0) {
          d_logits[a] +=
              options_.entropy_bonus * p * (std::log(p) + entropy);
        }
      }
    }
    // Head gradients.
    for (size_t h = 0; h < hid; ++h) {
      for (size_t a = 0; a < act; ++a) {
        g_wo[h * act + a] += record.hidden[h] * d_logits[a];
      }
    }
    for (size_t a = 0; a < act; ++a) g_c[a] += d_logits[a];
    // Through tanh into the cell (truncated BPTT of depth 1).
    std::vector<double> d_z(hid, 0.0);
    for (size_t h = 0; h < hid; ++h) {
      double sum = 0.0;
      for (size_t a = 0; a < act; ++a) {
        sum += wo[h * act + a] * d_logits[a];
      }
      d_z[h] = sum * (1.0 - record.hidden[h] * record.hidden[h]);
    }
    for (size_t i = 0; i < in; ++i) {
      for (size_t h = 0; h < hid; ++h) {
        g_wx[i * hid + h] += record.input[i] * d_z[h];
      }
    }
    for (size_t j = 0; j < hid; ++j) {
      for (size_t h = 0; h < hid; ++h) {
        g_wh[j * hid + h] += record.hidden_prev[j] * d_z[h];
      }
    }
    for (size_t h = 0; h < hid; ++h) g_b[h] += d_z[h];
  }

  const double scale = 1.0 / static_cast<double>(records_.size());
  for (double& g : grads) g *= scale;
  adam_.Step(&params_, grads);
  records_.clear();
}

}  // namespace eafe::afe
