#include "afe/replay_buffer.h"

#include <algorithm>

#include "core/check.h"

namespace eafe::afe {

ReplayBuffer::ReplayBuffer(size_t capacity) : capacity_(capacity) {
  EAFE_CHECK_GT(capacity, 0u);
}

void ReplayBuffer::Add(ReplayEntry entry) {
  if (entries_.size() < capacity_) {
    entries_.push_back(std::move(entry));
    return;
  }
  auto weakest = std::min_element(
      entries_.begin(), entries_.end(),
      [](const ReplayEntry& a, const ReplayEntry& b) {
        return a.fpe_probability < b.fpe_probability;
      });
  if (weakest->fpe_probability < entry.fpe_probability) {
    *weakest = std::move(entry);
  }
}

const ReplayEntry& ReplayBuffer::Sample(Rng* rng) const {
  EAFE_CHECK(!entries_.empty());
  return entries_[rng->UniformInt(static_cast<uint64_t>(entries_.size()))];
}

std::vector<ReplayEntry> ReplayBuffer::SortedByProbability() const {
  std::vector<ReplayEntry> sorted = entries_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ReplayEntry& a, const ReplayEntry& b) {
                     return a.fpe_probability > b.fpe_probability;
                   });
  return sorted;
}

}  // namespace eafe::afe
