#ifndef EAFE_SIMD_PREDICT_KERNELS_H_
#define EAFE_SIMD_PREDICT_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace eafe::simd {

/// Hot traversal record for flat-tree batch inference: 16 bytes, four
/// per cache line. Leaves are packed as self-loops (feature 0, left ==
/// right == own index) so the fixed-depth walk never tests for them.
struct PackedNode {
  int32_t feature = 0;    ///< Code column routed on (0 for leaves).
  uint8_t split_bin = 0;  ///< Go left if code <= split_bin.
  uint32_t left = 0;      ///< Absolute node index.
  uint32_t right = 0;
};

/// Walks all `n` row-major encoded rows (row r's codes at codes + r *
/// stride) through the tree rooted at `root` for exactly `steps` levels
/// and writes each row's final node index to leaves[r].
///
/// Node loads are data-dependent uint8 lookups, so hardware gathers lose
/// to plain loads here. The walk keeps eight rows in flight instead, so
/// their independent node loads overlap rather than serializing one
/// dependent chain. That block runs at every dispatch level: a 16-row
/// AVX2 variant measured 0.85x of it. Pure integer control flow, so the
/// leaves are the same on every machine.
void WalkRows(const PackedNode* nodes, const uint8_t* codes, size_t stride,
              uint32_t root, uint32_t steps, size_t n, uint32_t* leaves);

}  // namespace eafe::simd

#endif  // EAFE_SIMD_PREDICT_KERNELS_H_
