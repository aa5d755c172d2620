#ifndef EAFE_AFE_REPLAY_BUFFER_H_
#define EAFE_AFE_REPLAY_BUFFER_H_

#include <cstddef>
#include <vector>

#include "afe/operators.h"
#include "core/rng.h"

namespace eafe::afe {

/// An FPE-positive feature produced during stage-1 initialization
/// (Algorithm 2, line 7: "Store this feature to replay buffer"). Stage 2
/// evaluates these pre-screened features first ("Get feature from replay
/// buffer") instead of exploring from scratch, and also reuses their
/// operators to bias fresh generation.
struct ReplayEntry {
  size_t group = 0;
  Operator op = Operator::kLog;
  double fpe_probability = 0.0;  ///< P(effective) assigned by FPE.
  size_t order = 0;
  /// The stored feature values (Algorithm 2 replays the feature itself).
  data::Column column;
};

/// Bounded store of promising actions. When full, an insert evicts the
/// entry with the lowest FPE probability — the buffer keeps the actions
/// most worth replaying.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t capacity = 256);

  /// Inserts an entry, evicting the weakest entry when at capacity. The
  /// insert is skipped when the buffer is full and `entry` is weaker than
  /// everything stored.
  void Add(ReplayEntry entry);

  /// Uniformly samples a stored entry; buffer must be nonempty.
  const ReplayEntry& Sample(Rng* rng) const;

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  bool empty() const { return entries_.empty(); }
  const std::vector<ReplayEntry>& entries() const { return entries_; }

  /// Entries ordered by descending FPE probability — the order in which
  /// stage 2 replays them.
  std::vector<ReplayEntry> SortedByProbability() const;

  void Clear() { entries_.clear(); }

 private:
  size_t capacity_;
  std::vector<ReplayEntry> entries_;
};

}  // namespace eafe::afe

#endif  // EAFE_AFE_REPLAY_BUFFER_H_
