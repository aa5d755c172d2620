#include "afe/replay_buffer.h"

#include <gtest/gtest.h>

namespace eafe::afe {
namespace {

ReplayEntry Entry(Operator op, double probability) {
  ReplayEntry entry;
  entry.op = op;
  entry.fpe_probability = probability;
  return entry;
}

TEST(ReplayBufferTest, AddAndSize) {
  ReplayBuffer buffer(4);
  EXPECT_TRUE(buffer.empty());
  buffer.Add(Entry(Operator::kLog, 0.9));
  buffer.Add(Entry(Operator::kSqrt, 0.8));
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.capacity(), 4u);
}

TEST(ReplayBufferTest, EvictsWeakestWhenFull) {
  ReplayBuffer buffer(2);
  buffer.Add(Entry(Operator::kLog, 0.9));
  buffer.Add(Entry(Operator::kSqrt, 0.3));
  buffer.Add(Entry(Operator::kMultiply, 0.7));  // Evicts 0.3.
  EXPECT_EQ(buffer.size(), 2u);
  for (const ReplayEntry& e : buffer.entries()) {
    EXPECT_NE(e.op, Operator::kSqrt);
  }
}

TEST(ReplayBufferTest, WeakerEntrySkippedWhenFull) {
  ReplayBuffer buffer(2);
  buffer.Add(Entry(Operator::kLog, 0.9));
  buffer.Add(Entry(Operator::kSqrt, 0.8));
  buffer.Add(Entry(Operator::kModulo, 0.1));  // Weaker than everything.
  EXPECT_EQ(buffer.size(), 2u);
  for (const ReplayEntry& e : buffer.entries()) {
    EXPECT_NE(e.op, Operator::kModulo);
  }
}

TEST(ReplayBufferTest, SampleReturnsStoredEntries) {
  ReplayBuffer buffer(8);
  buffer.Add(Entry(Operator::kAdd, 0.6));
  buffer.Add(Entry(Operator::kDivide, 0.7));
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const ReplayEntry& e = buffer.Sample(&rng);
    EXPECT_TRUE(e.op == Operator::kAdd || e.op == Operator::kDivide);
  }
}

TEST(ReplayBufferTest, ClearEmpties) {
  ReplayBuffer buffer(4);
  buffer.Add(Entry(Operator::kLog, 0.5));
  buffer.Clear();
  EXPECT_TRUE(buffer.empty());
}

}  // namespace
}  // namespace eafe::afe
