#include "hashing/weighted_minhash.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>

#include "core/check.h"
#include "core/string_util.h"
#include "hashing/ccws_candidates.h"
#include "hashing/minhash.h"
#include "runtime/thread_pool.h"
#include "simd/minhash_kernels.h"
#include "simd/portable_math.h"

namespace eafe::hashing {

std::string MinHashSchemeToString(MinHashScheme scheme) {
  switch (scheme) {
    case MinHashScheme::kPlain:
      return "plain";
    case MinHashScheme::kIcws:
      return "icws";
    case MinHashScheme::kCcws:
      return "ccws";
    case MinHashScheme::kPcws:
      return "pcws";
    case MinHashScheme::kLicws:
      return "licws";
    case MinHashScheme::kExactQuantile:
      return "quantile";
  }
  return "?";
}

Result<MinHashScheme> MinHashSchemeFromString(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "plain" || lower == "minhash") return MinHashScheme::kPlain;
  if (lower == "icws") return MinHashScheme::kIcws;
  if (lower == "ccws") return MinHashScheme::kCcws;
  if (lower == "pcws") return MinHashScheme::kPcws;
  if (lower == "licws" || lower == "0bit" || lower == "zerobit") {
    return MinHashScheme::kLicws;
  }
  if (lower == "quantile" || lower == "exact_quantile") {
    return MinHashScheme::kExactQuantile;
  }
  return Status::InvalidArgument("unknown MinHash scheme: " + name);
}

const std::vector<MinHashScheme>& AllMinHashSchemes() {
  static const auto* kSchemes = new std::vector<MinHashScheme>{
      MinHashScheme::kPlain, MinHashScheme::kIcws,
      MinHashScheme::kCcws,  MinHashScheme::kPcws,
      MinHashScheme::kExactQuantile,
  };
  return *kSchemes;
}

namespace {

/// Rank-based selection for the exact-quantile baseline: row indices at d
/// evenly spaced positions of the value-sorted order.
std::vector<size_t> ExactQuantileSelect(const std::vector<double>& weights,
                                        size_t num_slots) {
  std::vector<size_t> order(weights.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return weights[a] < weights[b];
  });
  std::vector<size_t> selected(num_slots);
  for (size_t j = 0; j < num_slots; ++j) {
    const double position = (static_cast<double>(j) + 0.5) /
                            static_cast<double>(num_slots) *
                            static_cast<double>(order.size());
    size_t rank = static_cast<size_t>(position);
    if (rank >= order.size()) rank = order.size() - 1;
    selected[j] = order[rank];
  }
  return selected;
}

/// log(w) per element (0 placeholder for non-positive weights, which are
/// skipped during sampling). Computed once per feature, not once per
/// (element, hash function). Uses the kernel layer's PortableLog — the
/// same function both dispatch tiers evaluate — so the sampling values
/// are bit-identical at every EAFE_SIMD level.
std::vector<double> LogWeights(const std::vector<double>& weights) {
  std::vector<double> logs(weights.size(), 0.0);
  for (size_t k = 0; k < weights.size(); ++k) {
    if (weights[k] > 0.0) logs[k] = simd::PortableLog(weights[k]);
  }
  return logs;
}

/// The pool a selection spreads its per-slot work over, for a column of
/// `rows` elements: the global pool, or null to run inline. The full
/// scans of ICWS, PCWS and LICWS, an unlisted CCWS selection, a list
/// build and the all-zero fallback use it; a listed CCWS slot costs less
/// than a pool round trip and always runs inline. Each slot is a pure
/// function of (weights, seed, j) that writes only its own index, so the
/// result is the serial loop's at any thread count.
///
/// Columns shorter than kSlotFanOutMinRows stay inline. The constant was
/// measured on the pruned CCWS kernel, which an unlisted CCWS selection
/// still runs: 48 slots fanned over 4 threads broke even with the serial
/// loop at 32-64 rows and ran 1.6-1.8x faster at 128 (median of 201,
/// 4-vCPU AVX2 guest with idle cores). The ICWS and PCWS crossover was
/// not measured; for them the constant is carried over. Below it a pool
/// round trip costs more than the slots it spreads, and with busy cores
/// fan-out only adds the round trip. A caller already on
/// a pool worker (a search pipeline worker, which filters and then
/// evaluates its own task, or a server's FPE route) also stays inline:
/// ParallelFor would run inline there anyway, and skipping GlobalPool()
/// keeps a process that never asked for the global pool from building
/// one.
constexpr size_t kSlotFanOutMinRows = 128;

runtime::ThreadPool* SlotPool(size_t rows) {
  return rows >= kSlotFanOutMinRows && !runtime::ThreadPool::OnWorkerThread()
             ? runtime::GlobalPool()
             : nullptr;
}

template <typename SlotFn>
void ForEachSlot(size_t rows, size_t num_slots, const SlotFn& slot) {
  runtime::ParallelFor(SlotPool(rows), num_slots,
                       [&](size_t begin, size_t end) {
                         for (size_t j = begin; j < end; ++j) slot(j);
                       });
}

/// Key of a value-independent selection part: a column length, a hash
/// seed and a slot count.
struct MemoKey {
  size_t rows = 0;
  uint64_t seed = 0;
  size_t slots = 0;

  bool operator==(const MemoKey&) const = default;
};

/// A fixed number of (key, value) entries, replaced round-robin.
template <typename Value, size_t kEntries>
class RoundRobinTable {
 public:
  Value* Find(const MemoKey& key) {
    for (Entry& entry : entries_) {
      if (entry.used && entry.key == key) return &entry.value;
    }
    return nullptr;
  }
  Value& Put(const MemoKey& key, Value value) {
    Entry& entry = entries_[next_victim_];
    next_victim_ = (next_victim_ + 1) % kEntries;
    entry = {true, key, std::move(value)};
    return entry.value;
  }

 private:
  struct Entry {
    bool used = false;
    MemoKey key;
    Value value;
  };
  std::array<Entry, kEntries> entries_;
  size_t next_victim_ = 0;
};

/// The value-independent parts of selections, one process-wide memo
/// behind one mutex: the uniform companion rows of Compress and the CCWS
/// candidate lists. Both are functions of their MemoKey alone, so a hit
/// is exactly what a miss computes.
///
/// A list is 48 slots x 128 rows x 8 bytes (48 KiB) and costs 1.6-3.8x
/// an unlisted selection to build (DESIGN.md §9), so the memo builds one
/// only for a length that recurs and never replaces a list in use:
/// - A key's first CCWS selection is recorded in a sightings table of
///   kSightings keys, apart from the lists, so a stream of one-off lengths
///   (a server's FPE route, one CLI call) builds nothing and displaces no
///   list.
/// - A sighted key's next selection builds its list into a free one of
///   kMaxCcwsLists slots. With none free it runs unlisted, as it would
///   without the memo: more recurring lengths than slots cost the extra
///   lengths the kernel, never a list rebuilt in turn.
/// - A list idle for more than kCcwsIdleSelections CCWS selections frees
///   its slot (checked when a key wants one, and every kCcwsIdleSelections
///   selections), so lengths a process has moved on from (the FPE
///   pretraining corpus, once a search runs) neither hold memory nor
///   block a new length.
/// The traffic measured (EXPERIMENTS.md, "Selection memo under many
/// lengths"): FPE pretraining on 8, 10 and 24 corpus lengths (e2ebench's
/// setup, `eafe pretrain`, a `--full` bench), which FpeModel compresses
/// grouped by length, and searches, which compress one length each.
class SelectionMemo {
 public:
  std::vector<size_t> UniformRows(size_t rows, uint64_t seed,
                                  size_t slots) {
    const MemoKey key = {rows, seed, slots};
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (const auto* selected = uniform_rows_.Find(key)) return *selected;
    }
    std::vector<size_t> selected(slots);
    for (size_t j = 0; j < slots; ++j) {
      selected[j] = simd::PlainHashArgmin(nullptr, rows, seed, j);
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    return uniform_rows_.Put(key, std::move(selected));
  }

  /// The key's candidate list, or null when the selection runs unlisted:
  /// at the key's first sight, with every list slot in use, or while
  /// another caller builds the key's list. Readers share the list.
  std::shared_ptr<const CcwsCandidates> CcwsList(size_t rows, uint64_t seed,
                                                 size_t slots) {
    if (rows > std::numeric_limits<uint32_t>::max()) return nullptr;
    const MemoKey key = {rows, seed, slots};
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (++selections_ % kCcwsIdleSelections == 0) FreeIdleSlots();
      if (ListSlot* held = FindList(key)) {
        held->last_use = selections_;
        return held->list;  // Null while another caller builds it.
      }
      if (sightings_.Find(key) == nullptr) {
        sightings_.Put(key, true);
        return nullptr;
      }
      FreeIdleSlots();
      ListSlot* free_slot = FreeList();
      if (free_slot == nullptr) return nullptr;
      *free_slot = {true, key, nullptr, selections_};  // Reserved.
    }
    auto list = std::make_shared<const CcwsCandidates>(rows, seed, slots,
                                                       SlotPool(rows));
    const std::lock_guard<std::mutex> lock(mutex_);
    // The reservation is gone if it idled out during the build.
    if (ListSlot* held = FindList(key); held != nullptr) held->list = list;
    return list;
  }

  size_t CcwsListsHeld() {
    const std::lock_guard<std::mutex> lock(mutex_);
    size_t held = 0;
    for (const ListSlot& slot : lists_) held += slot.list != nullptr ? 1 : 0;
    return held;
  }

 private:
  /// One list slot: its key's list (null while reserved for a build) and
  /// the CCWS selection count at the key's last use.
  struct ListSlot {
    bool used = false;
    MemoKey key;
    std::shared_ptr<const CcwsCandidates> list;
    uint64_t last_use = 0;
  };

  /// Keys whose first CCWS selection the memo remembers.
  static constexpr size_t kSightings = 64;

  ListSlot* FindList(const MemoKey& key) {
    for (ListSlot& slot : lists_) {
      if (slot.used && slot.key == key) return &slot;
    }
    return nullptr;
  }
  ListSlot* FreeList() {
    for (ListSlot& slot : lists_) {
      if (!slot.used) return &slot;
    }
    return nullptr;
  }
  void FreeIdleSlots() {
    for (ListSlot& slot : lists_) {
      if (selections_ - slot.last_use > kCcwsIdleSelections) slot = {};
    }
  }

  std::mutex mutex_;
  RoundRobinTable<std::vector<size_t>, 8> uniform_rows_;
  RoundRobinTable<bool, kSightings> sightings_;
  std::array<ListSlot, kMaxCcwsLists> lists_;
  uint64_t selections_ = 0;
};

SelectionMemo& Memo() {
  static auto* memo = new SelectionMemo();
  return *memo;
}

}  // namespace

std::vector<size_t> UniformSlotRows(size_t rows, uint64_t seed,
                                    size_t num_slots) {
  return Memo().UniformRows(rows, seed, num_slots);
}

size_t CcwsListsHeld() { return Memo().CcwsListsHeld(); }

std::vector<size_t> WeightedMinHashSelect(MinHashScheme scheme,
                                          const std::vector<double>& weights,
                                          size_t num_slots, uint64_t seed) {
  EAFE_CHECK(!weights.empty());
  if (scheme == MinHashScheme::kPlain) {
    return PlainMinHashSelect(weights, num_slots, seed);
  }
  if (scheme == MinHashScheme::kExactQuantile) {
    return ExactQuantileSelect(weights, num_slots);
  }
  // Validated once per feature, not once per slot.
  bool any_positive = false;
  double max_weight = 0.0;
  for (double w : weights) {
    EAFE_CHECK_GE(w, 0.0);
    any_positive = any_positive || w > 0.0;
    max_weight = std::max(max_weight, w);
  }
  const size_t n = weights.size();
  std::vector<size_t> selected(num_slots);
  if (!any_positive) {
    // Degenerate all-zero feature: fall back to uniform hashing so the
    // signature is still defined.
    ForEachSlot(n, num_slots, [&](size_t j) {
      selected[j] = simd::PlainHashArgmin(nullptr, n, seed, j);
    });
    return selected;
  }
  if (scheme == MinHashScheme::kCcws) {
    const std::shared_ptr<const CcwsCandidates> list =
        Memo().CcwsList(n, seed, num_slots);
    const auto kernel = [&](size_t j) {
      const size_t k = simd::CwsArgmin(simd::CwsKernelScheme::kCcws,
                                       weights.data(), nullptr, n, seed, j);
      EAFE_CHECK_MSG(k < n,
                     "consistent weighted sampling needs a positive weight");
      selected[j] = k;
    };
    if (list == nullptr) {
      ForEachSlot(n, num_slots, kernel);
      return selected;
    }
    // A listed slot evaluates a few rows, which costs less than a pool
    // round trip, so listed slots run inline; one whose list runs out
    // falls back to the kernel.
    for (size_t j = 0; j < num_slots; ++j) {
      selected[j] = list->Select(weights.data(), max_weight, j);
      if (selected[j] == n) kernel(j);
    }
    return selected;
  }
  // ICWS, PCWS and LICWS quantize log(weight): hoist it out of the
  // per-slot loop, it is identical for all d hash functions. LICWS runs
  // the ICWS kernel: 0-bit CWS is ICWS sampling with the quantization
  // index dropped from the signature, and a signature here holds only
  // the selected rows.
  const std::vector<double> logs = LogWeights(weights);
  const simd::CwsKernelScheme kernel = scheme == MinHashScheme::kPcws
                                           ? simd::CwsKernelScheme::kPcws
                                           : simd::CwsKernelScheme::kIcws;
  ForEachSlot(n, num_slots, [&](size_t j) {
    const size_t k =
        simd::CwsArgmin(kernel, weights.data(), logs.data(), n, seed, j);
    EAFE_CHECK_MSG(k < n,
                   "consistent weighted sampling needs a positive weight");
    selected[j] = k;
  });
  return selected;
}

}  // namespace eafe::hashing
