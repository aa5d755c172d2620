#include "trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace eafe::e2e {
namespace {

Span MakeSpan(uint64_t id, uint64_t parent, const std::string& name,
              double start_us, double end_us) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  return span;
}

TEST(SpanRecorder, NestedSpansRecordParentsAndOrder) {
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "ml.cv", 0, 7);
    { ScopedSpan inner(&recorder, "ml.fit", outer.id(), 7); }
    { ScopedSpan inner(&recorder, "ml.predict_heldout", outer.id(), 7); }
  }
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "ml.cv");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[0].id);
  EXPECT_EQ(spans[1].item, 7u);
  EXPECT_EQ(spans[0].layer(), "ml");
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
  EXPECT_LE(spans[2].end_us, spans[0].end_us);
  EXPECT_LE(spans[1].end_us, spans[2].start_us);
}

TEST(SpanRecorder, NullRecorderRecordsNothing) {
  ScopedSpan span(nullptr, "afe.generate", 0);
  EXPECT_EQ(span.id(), 0u);
}

TEST(SelfTimes, ChildrenAreSubtracted) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "replay.candidate", 0, 100),
      MakeSpan(2, 1, "afe.generate", 10, 30),
      MakeSpan(3, 1, "ml.cv", 40, 90),
      MakeSpan(4, 3, "ml.fit", 50, 70),
  };
  const std::vector<double> self = SelfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[0], 30.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[3], 20.0);
  EXPECT_DOUBLE_EQ(UnattributedFraction(spans), 0.3);
  const auto busy = LayerBusySeconds(spans);
  EXPECT_DOUBLE_EQ(busy.at("ml"), 50e-6);
  EXPECT_DOUBLE_EQ(busy.at("afe"), 20e-6);
}

TEST(SelfTimes, OverlappingChildrenAreMergedNeverNegative) {
  // Three folds on pool threads overlap each other and one pokes past
  // the parent's end; the union covers [10, 100] of the parent.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "ml.cv", 0, 100),
      MakeSpan(2, 1, "ml.fit", 10, 80),
      MakeSpan(3, 1, "ml.fit", 20, 90),
      MakeSpan(4, 1, "ml.fit", 30, 120),
  };
  const std::vector<double> self = SelfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0);
  for (double value : self) EXPECT_GE(value, 0.0);
}

TEST(SelfTimes, ZeroChildAndZeroLengthSpans) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "serve.codec", 5, 5),
      MakeSpan(2, 0, "serve.walk_b1", 5, 9),
      MakeSpan(3, 2, "serve.inner", 7, 7),
  };
  const std::vector<double> self = SelfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[0], 0.0);
  EXPECT_DOUBLE_EQ(self[1], 4.0);
  EXPECT_DOUBLE_EQ(self[2], 0.0);
  EXPECT_DOUBLE_EQ(MedianDurationUs(spans, "serve.walk_b1"), 4.0);
  EXPECT_DOUBLE_EQ(MedianDurationUs(spans, "missing"), 0.0);
}

TEST(SpansUnder, SelectsWholeSubtrees) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "replay.candidate", 0, 10),
      MakeSpan(2, 1, "ml.cv", 1, 9),
      MakeSpan(3, 2, "ml.fit", 2, 3),
      MakeSpan(4, 0, "replay.probe", 10, 20),
      MakeSpan(5, 4, "serve.codec", 11, 12),
  };
  const std::vector<Span> path = SpansUnder(spans, "replay.candidate");
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[2].name, "ml.fit");
}

TEST(SpanRecorder, ConcurrentThreadsGetDistinctIdsAndThreadIndices) {
  SpanRecorder recorder;
  const uint64_t root = recorder.Begin("ml.cv", 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&recorder, root] {
      for (int i = 0; i < 50; ++i) {
        ScopedSpan span(&recorder, "ml.fit", root);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  recorder.End(root);
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 201u);
  for (size_t i = 0; i < spans.size(); ++i) EXPECT_EQ(spans[i].id, i + 1);
  uint32_t max_thread = 0;
  for (const Span& span : spans) max_thread = std::max(max_thread, span.thread);
  EXPECT_GE(max_thread, 1u);  // The OS may reuse a finished thread's id.
  EXPECT_GE(SelfTimesUs(spans)[0], 0.0);
}

TEST(ChromeTrace, EscapesNamesAndEmitsCompleteEvents) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\x01"), "a\\\"b\\\\c\\nd\\u0001");
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "odd\"name\\x", 0, 1.5),
      MakeSpan(2, 1, "ml.fit", 0.25, 1.0),
  };
  const std::string json = ChromeTraceJson(spans);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"odd\\\"name\\\\x\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":1"), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

}  // namespace
}  // namespace eafe::e2e
