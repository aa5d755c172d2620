#include "tools/lint/lint.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tools/lint/include_graph.h"

namespace eafe::lint {
namespace {

// Every rule must (a) fire on a known-bad snippet with a pointed message
// and (b) stay quiet on the idiomatic equivalent — the lint suite is only
// trustworthy if both directions are pinned.

TEST(StripCommentsAndStringsTest, ErasesCommentsAndLiteralsKeepingLines) {
  const std::string source =
      "int a; // std::thread in a comment\n"
      "/* rand() in a block\n"
      "   comment */ int b;\n"
      "const char* s = \"std::random_device\";\n"
      "char c = 'r';\n";
  const std::string stripped = StripCommentsAndStrings(source);
  EXPECT_EQ(stripped.find("thread"), std::string::npos);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("random_device"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
  // Line structure is preserved so findings keep real line numbers.
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
}

TEST(StripCommentsAndStringsTest, HandlesRawStringsAndDigitSeparators) {
  const std::string source =
      "auto r = R\"(rand() time(nullptr))\";\n"
      "int n = 1'000'000;\n"
      "int m = n;\n";
  const std::string stripped = StripCommentsAndStrings(source);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int m = n;"), std::string::npos);
}

TEST(DeterminismTest, FiresOnEntropyAndWallClockSources) {
  const std::string source =
      "#include <random>\n"
      "int a = rand();\n"
      "std::random_device rd;\n"
      "auto t = std::chrono::system_clock::now();\n"
      "long w = std::time(nullptr);\n";
  const std::vector<Finding> findings = CheckDeterminism("src/ml/x.cc", source);
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[0].rule, kRuleDeterminism);
  EXPECT_NE(findings[0].message.find("eafe::Rng"), std::string::npos);
  EXPECT_EQ(findings[1].line, 3u);
  EXPECT_EQ(findings[2].line, 4u);
  EXPECT_EQ(findings[3].line, 5u);
}

TEST(DeterminismTest, IgnoresLookalikesCommentsAndSteadyClock) {
  const std::string source =
      "// rand() in prose is fine\n"
      "double elapsed = stopwatch.time();\n"
      "double t = elapsed_time(3);\n"
      "auto now = std::chrono::steady_clock::now();\n"
      "int time_budget = 3;\n";
  EXPECT_TRUE(CheckDeterminism("src/ml/x.cc", source).empty());
}

TEST(DeterminismTest, AllowEscapeAndSeedEntryPointAreExempt) {
  const std::string escaped =
      "std::random_device rd;  // eafe-lint: allow(determinism) os seed\n";
  EXPECT_TRUE(CheckDeterminism("src/ml/x.cc", escaped).empty());
  // The escape names a specific rule; other rules still apply.
  EXPECT_TRUE(CheckDeterminism("src/core/rng.cc", "int a = rand();").empty());
}

TEST(RawThreadTest, FiresOutsideRuntime) {
  const std::string source =
      "#include <thread>\n"
      "std::thread t([] {});\n"
      "auto f = std::async([] { return 1; });\n"
      "pthread_create(nullptr, nullptr, nullptr, nullptr);\n";
  const std::vector<Finding> findings = CheckRawThreads("src/afe/x.cc", source);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, kRuleRawThread);
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_NE(findings[0].message.find("runtime::ThreadPool"),
            std::string::npos);
}

TEST(RawThreadTest, RuntimeHardwareConcurrencyAndEscapeAreExempt) {
  EXPECT_TRUE(
      CheckRawThreads("src/runtime/thread_pool.cc", "std::thread t;").empty());
  EXPECT_TRUE(CheckRawThreads(
                  "src/core/flags.cc",
                  "size_t n = std::thread::hardware_concurrency();")
                  .empty());
  EXPECT_TRUE(CheckRawThreads(
                  "src/afe/x.cc",
                  "std::thread t;  // eafe-lint: allow(raw-thread) why\n")
                  .empty());
}

TEST(RawDeserializeTest, FiresOnFreadAndReinterpretCast) {
  const std::string source =
      "#include <cstdio>\n"
      "size_t n = fread(buf, 1, 64, f);\n"
      "const Header* h = reinterpret_cast<const Header*>(bytes.data());\n";
  const std::vector<Finding> findings =
      CheckRawDeserialize("src/fpe/fpe_model.cc", source);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, kRuleRawDeserialize);
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_NE(findings[0].message.find("serve/wire.h"), std::string::npos);
  EXPECT_EQ(findings[1].line, 3u);
}

TEST(RawDeserializeTest, ServeCommentsAndEscapeAreExempt) {
  EXPECT_TRUE(CheckRawDeserialize(
                  "src/serve/wire.cc",
                  "auto* p = reinterpret_cast<const char*>(bytes);")
                  .empty());
  EXPECT_TRUE(CheckRawDeserialize(
                  "src/ml/x.cc", "// fread is banned; reinterpret_cast too\n")
                  .empty());
  EXPECT_TRUE(
      CheckRawDeserialize(
          "src/ml/x.cc",
          "fread(b, 1, 4, f);  // eafe-lint: allow(raw-deserialize) why\n")
          .empty());
  // std::bit_cast is the sanctioned in-process punning tool.
  EXPECT_TRUE(CheckRawDeserialize(
                  "src/afe/x.cc", "auto u = std::bit_cast<uint64_t>(d);")
                  .empty());
}

TEST(SimdRuleTest, FiresOnIntrinsicsOutsideSimd) {
  const std::string source =
      "#include <immintrin.h>\n"
      "__m256d v = _mm256_set1_pd(1.0);\n"
      "__m128i w = _mm_setzero_si128();\n";
  const std::vector<Finding> findings =
      CheckSimdIntrinsics("src/ml/histogram_builder.cc", source);
  ASSERT_EQ(findings.size(), 5u);  // immintrin + two types + two calls
  EXPECT_EQ(findings[0].rule, kRuleSimd);
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_NE(findings[0].message.find("src/simd/"), std::string::npos);
  EXPECT_EQ(findings[1].line, 2u);
}

TEST(SimdRuleTest, SimdDirCommentsAndEscapeAreExempt) {
  // src/simd/ is the sanctioned home for intrinsics.
  EXPECT_TRUE(CheckSimdIntrinsics(
                  "src/simd/minhash_kernels_avx2.cc",
                  "#include <immintrin.h>\n__m256d v = _mm256_set1_pd(1);")
                  .empty());
  // Prose mentioning intrinsics does not fire.
  EXPECT_TRUE(CheckSimdIntrinsics(
                  "src/ml/x.cc", "// _mm256_add_pd lives in src/simd/ now\n")
                  .empty());
  // The per-line escape hatch works.
  EXPECT_TRUE(
      CheckSimdIntrinsics(
          "src/ml/x.cc",
          "__m256d v = _mm256_set1_pd(1.0);  // eafe-lint: allow(simd) why\n")
          .empty());
  // Ordinary identifiers that merely contain 'mm' or 'simd' do not fire.
  EXPECT_TRUE(CheckSimdIntrinsics(
                  "src/ml/x.cc", "size_t comm = simd_level + mmio_len;")
                  .empty());
}

TEST(ServeSocketTest, FiresOnRawSocketCallsOutsideServerDir) {
  const std::string source =
      "int fd = socket(AF_INET, SOCK_STREAM, 0);\n"
      "::bind(fd, addr, len);\n"
      "send(fd, buf, n, 0);\n"
      "recv(fd, buf, n, 0);\n";
  const std::vector<Finding> findings =
      CheckServeSockets("src/afe/eval_service.cc", source);
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_EQ(findings[0].rule, kRuleServeSocket);
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_NE(findings[0].message.find("src/serve/server/"),
            std::string::npos);
  EXPECT_EQ(findings[1].line, 2u);  // global-scope ::bind is the POSIX one
}

TEST(ServeSocketTest, ServerDirIsExempt) {
  EXPECT_TRUE(CheckServeSockets(
                  "src/serve/server/server.cc",
                  "::listen(fd, 128);\n::accept(fd, nullptr, nullptr);\n")
                  .empty());
}

TEST(ServeSocketTest, IgnoresLookalikesMembersAndStdBind) {
  // std::bind is the <functional> adaptor, not the socket call.
  EXPECT_TRUE(CheckServeSockets(
                  "src/ml/x.cc", "auto f = std::bind(&F::g, this);")
                  .empty());
  // Member calls belong to someone else's API.
  EXPECT_TRUE(CheckServeSockets(
                  "src/ml/x.cc",
                  "client.send(data);\nchannel->recv(buffer);")
                  .empty());
  // Mentions outside call position (prose, variable names) do not fire.
  EXPECT_TRUE(CheckServeSockets(
                  "src/ml/x.cc",
                  "// send the batch through the socket layer\n"
                  "int send_count = 0; send_count += 1;")
                  .empty());
  // The per-line escape hatch works.
  EXPECT_TRUE(CheckServeSockets(
                  "src/ml/x.cc",
                  "send(fd, b, n, 0);  // eafe-lint: allow(serve-socket) x\n")
                  .empty());
}

constexpr char kTestsCMake[] = R"cmake(
# labels drive suite selection
eafe_add_test(good_test
  LABELS "ml;tsan"
  SOURCES ml/good_test.cc
)
eafe_add_test(unlabeled_test SOURCES core/plain_test.cc)
eafe_add_test(needs_tsan_test
  LABELS runtime
  SOURCES runtime/pool_test.cc
)
)cmake";

std::optional<std::string> FakeSource(const std::string& path) {
  if (path == "ml/good_test.cc") return "TEST(G, ParallelForIsCovered) {}";
  if (path == "core/plain_test.cc") return "TEST(P, NoConcurrency) {}";
  if (path == "runtime/pool_test.cc") {
    return "#include \"runtime/thread_pool.h\"\nruntime::ThreadPool pool;";
  }
  return std::nullopt;
}

TEST(TestLabelsTest, ParsesRegistrations) {
  const std::vector<TestRegistration> tests =
      ParseTestRegistrations(kTestsCMake);
  ASSERT_EQ(tests.size(), 3u);
  EXPECT_EQ(tests[0].name, "good_test");
  EXPECT_EQ(tests[0].labels, (std::vector<std::string>{"ml", "tsan"}));
  EXPECT_EQ(tests[0].sources, (std::vector<std::string>{"ml/good_test.cc"}));
  EXPECT_TRUE(tests[1].labels.empty());
  EXPECT_EQ(tests[2].labels, (std::vector<std::string>{"runtime"}));
}

TEST(TestLabelsTest, FlagsUnlabeledAndMissingTsan) {
  const std::vector<Finding> findings =
      CheckTestLabels(ParseTestRegistrations(kTestsCMake), FakeSource);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, kRuleTestLabels);
  EXPECT_NE(findings[0].message.find("unlabeled_test"), std::string::npos);
  EXPECT_NE(findings[1].message.find("needs_tsan_test"), std::string::npos);
  EXPECT_NE(findings[1].message.find("ThreadPool"), std::string::npos);
  EXPECT_NE(findings[1].message.find("tsan"), std::string::npos);
}

TEST(TestLabelsTest, TsanLabeledConcurrencyTestIsClean) {
  const std::string cmake =
      "eafe_add_test(t LABELS \"runtime;tsan\" SOURCES runtime/pool_test.cc)";
  EXPECT_TRUE(
      CheckTestLabels(ParseTestRegistrations(cmake), FakeSource).empty());
}

TEST(TestLabelsTest, PipelineTypesRequireTsan) {
  // The pipelined-search surface counts as concurrency: sources naming
  // SearchStepPipeline need the tsan label.
  const std::string cmake =
      "eafe_add_test(q LABELS afe SOURCES afe/step_test.cc)";
  const auto source = [](const std::string&) -> std::optional<std::string> {
    return "afe::SearchStepPipeline pipeline(config, &frame, &service);";
  };
  const std::vector<Finding> findings =
      CheckTestLabels(ParseTestRegistrations(cmake), source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("SearchStepPipeline"),
            std::string::npos);

  // Exact identifier matching: a source that only names PipelineTest or
  // PipelineMode (e.g. setting SearchOptions::pipeline) is not on the
  // concurrency surface and stays clean without the label.
  const auto benign = [](const std::string&) -> std::optional<std::string> {
    return "TEST(PipelineTest, X) { options.pipeline = PipelineMode::kAsync; }";
  };
  EXPECT_TRUE(
      CheckTestLabels(ParseTestRegistrations(
                          "eafe_add_test(p LABELS afe SOURCES afe/p_test.cc)"),
                      benign)
          .empty());
}

// ---------------------------------------------------------------------------
// Tokenizer regressions. The stripper must agree with the compiler on
// where every literal and comment ends — each case here is a lexing
// corner that once produced (or would produce) misfires inside rules.

TEST(TokenizerTest, RawStringCustomDelimiterIgnoresPlainCloseQuote) {
  // The body contains `)"` — a naive terminator search would end the
  // literal there and lint the rest of the body as code.
  const std::string source =
      "auto r = R\"x(rand() )\" fake close)x\";\n"
      "int keep = 1;\n";
  const std::string stripped = StripCommentsAndStrings(source);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("fake"), std::string::npos);
  EXPECT_NE(stripped.find("int keep = 1;"), std::string::npos);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
}

TEST(TokenizerTest, BackslashNewlineContinuesLineComment) {
  // A line splice at the end of a // comment extends it onto the next
  // physical line, exactly as the preprocessor sees it.
  const std::string source =
      "int a = 1;  // spills over \\\n"
      "rand();\n"
      "int b = 2;\n";
  const std::string stripped = StripCommentsAndStrings(source);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int a = 1;"), std::string::npos);
  EXPECT_NE(stripped.find("int b = 2;"), std::string::npos);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
}

TEST(TokenizerTest, AdjacentEscapesDoNotShiftLiteralBoundaries) {
  // `\\` immediately before the closing quote must not swallow it, and
  // `\"` inside a literal must not end it early.
  const std::string source =
      "const char* s = \"ends with \\\\\";\n"
      "int tail = 3;\n"
      "const char* t = \"quote \\\" rand() inside\";\n"
      "int last = 4;\n";
  const std::string stripped = StripCommentsAndStrings(source);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int tail = 3;"), std::string::npos);
  EXPECT_NE(stripped.find("int last = 4;"), std::string::npos);

  // Extraction keeps the escapes undecoded, exactly as written.
  const std::vector<StringLiteral> literals = ExtractStringLiterals(source);
  ASSERT_EQ(literals.size(), 2u);
  EXPECT_EQ(literals[0].text, "ends with \\\\");
  EXPECT_EQ(literals[0].line, 1u);
  EXPECT_EQ(literals[1].text, "quote \\\" rand() inside");
  EXPECT_EQ(literals[1].line, 3u);
}

TEST(TokenizerTest, UnterminatedLiteralsAtEofDoNotOverrun) {
  // Each truncation ends mid-state; the stripper must stop cleanly at
  // EOF (ASan runs of this suite prove there is no overrun).
  const std::string open_string = "const char* s = \"never closed";
  std::string stripped = StripCommentsAndStrings(open_string);
  EXPECT_EQ(stripped.size(), open_string.size());
  EXPECT_EQ(stripped.find("never"), std::string::npos);

  const std::string open_raw = "auto r = R\"(open forever";
  stripped = StripCommentsAndStrings(open_raw);
  EXPECT_EQ(stripped.size(), open_raw.size());
  EXPECT_EQ(stripped.find("forever"), std::string::npos);

  const std::string open_char = "char c = 'x";
  stripped = StripCommentsAndStrings(open_char);
  EXPECT_EQ(stripped.size(), open_char.size());
  EXPECT_EQ(stripped.find('x'), std::string::npos);

  const std::string trailing_backslash = "// comment ends in \\";
  stripped = StripCommentsAndStrings(trailing_backslash);
  EXPECT_EQ(stripped.size(), trailing_backslash.size());
  EXPECT_EQ(stripped.find("comment"), std::string::npos);

  // Extraction over a truncated literal yields the partial body.
  const std::vector<StringLiteral> literals =
      ExtractStringLiterals(open_string);
  ASSERT_EQ(literals.size(), 1u);
  EXPECT_EQ(literals[0].text, "never closed");
}

TEST(ExtractStringLiteralsTest, SkipsCommentsAndReadsRawBodiesVerbatim) {
  const std::string source =
      "// \"not extracted\"\n"
      "const char* a = \"first\";\n"
      "auto r = R\"y(raw \"quoted\" body)y\";\n";
  const std::vector<StringLiteral> literals = ExtractStringLiterals(source);
  ASSERT_EQ(literals.size(), 2u);
  EXPECT_EQ(literals[0].text, "first");
  EXPECT_EQ(literals[0].line, 2u);
  EXPECT_EQ(literals[1].text, "raw \"quoted\" body");
  EXPECT_EQ(literals[1].line, 3u);
}

TEST(FindingFormatTest, GithubWorkflowCommandsEscapeMetacharacters) {
  Finding finding;
  finding.file = "src/a,b:c.cc";
  finding.line = 7;
  finding.rule = "layering";
  finding.message = "100% broken\nsee docs";
  // Properties escape ',' and ':' (list delimiters); message data only
  // needs % CR LF.
  EXPECT_EQ(finding.ToGithub(),
            "::error file=src/a%2Cb%3Ac.cc,line=7,"
            "title=eafe-lint [layering]::100%25 broken%0Asee docs");

  Finding repo_level;
  repo_level.rule = "metric-registry";
  repo_level.message = "drift";
  EXPECT_EQ(repo_level.ToGithub(),
            "::error title=eafe-lint [metric-registry]::drift");
}

TEST(RuleIdsTest, AllRuleIdsIsCompleteAndUnique) {
  const std::vector<std::string> ids = AllRuleIds();
  EXPECT_EQ(ids.size(), 12u);
  EXPECT_EQ(std::set<std::string>(ids.begin(), ids.end()).size(), ids.size());
  for (const char* rule :
       {kRuleIncludeCycle, kRuleLayering, kRuleCondvarPredicate,
        kRuleNakedLock, kRuleMetricRegistry, kRuleUnusedSuppression}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), rule), ids.end()) << rule;
  }
}

TEST(ParseAllowDirectivesTest, ParsesLinesAndMultiRuleLists) {
  const std::string source =
      "a();  // eafe-lint: allow(simd, raw-thread) dispatch shim\n"
      "b();\n"
      "c();  // eafe-lint: allow(determinism)\n";
  const std::vector<AllowDirective> directives = ParseAllowDirectives(source);
  ASSERT_EQ(directives.size(), 3u);
  EXPECT_EQ(directives[0].line, 1u);
  EXPECT_EQ(directives[0].rule, "simd");
  EXPECT_EQ(directives[1].line, 1u);
  EXPECT_EQ(directives[1].rule, "raw-thread");
  EXPECT_EQ(directives[2].line, 3u);
  EXPECT_EQ(directives[2].rule, "determinism");
}

TEST(CondvarPredicateTest, FiresOnPredicatelessWaitsInScope) {
  const std::string source =
      "cv_.wait(lock);\n"
      "cv_.wait_for(lock, std::chrono::milliseconds(5));\n"
      "cv_.wait_until(lock, deadline);\n"
      "cv_.wait((lock));\n";  // nested parens still count one argument
  const std::vector<Finding> findings =
      CheckCondvarPredicate("src/runtime/thread_pool.cc", source);
  ASSERT_EQ(findings.size(), 4u);
  for (size_t i = 0; i < findings.size(); ++i) {
    EXPECT_EQ(findings[i].rule, kRuleCondvarPredicate);
    EXPECT_EQ(findings[i].line, i + 1);
    EXPECT_NE(findings[i].message.find("predicate"), std::string::npos);
  }
  // src/serve/server/ is the other directory in scope.
  EXPECT_EQ(
      CheckCondvarPredicate("src/serve/server/batch_queue.cc", "cv.wait(lk);")
          .size(),
      1u);
}

TEST(CondvarPredicateTest, PredicateFutureAndOutOfScopeAreQuiet) {
  // The predicate overloads carry one extra argument and are the point.
  EXPECT_TRUE(CheckCondvarPredicate(
                  "src/runtime/q.cc",
                  "cv_.wait(lock, [&] { return ready_; });")
                  .empty());
  EXPECT_TRUE(CheckCondvarPredicate(
                  "src/runtime/q.cc",
                  "cv_.wait_for(lock, timeout, [&] { return done(a, b); });")
                  .empty());
  // Zero-argument wait is std::future's API, not a condvar.
  EXPECT_TRUE(
      CheckCondvarPredicate("src/runtime/q.cc", "future.wait();").empty());
  // Free functions and declarations named wait are not member waits.
  EXPECT_TRUE(
      CheckCondvarPredicate("src/runtime/q.cc", "int r = wait(fd);").empty());
  EXPECT_TRUE(CheckCondvarPredicate("src/runtime/q.cc",
                                    "std::future<int> wait(Task t);")
                  .empty());
  // Outside src/runtime/ and src/serve/server/ the rule does not apply.
  EXPECT_TRUE(CheckCondvarPredicate("src/ml/x.cc", "cv.wait(lock);").empty());
  // The per-line escape hatch works.
  EXPECT_TRUE(
      CheckCondvarPredicate(
          "src/runtime/q.cc",
          "cv_.wait(lock);  // eafe-lint: allow(condvar-predicate) why\n")
          .empty());
}

TEST(NakedLockTest, FiresOnBareLockAndUnlockOutsideRuntime) {
  const std::string source =
      "mu_.lock();\n"
      "mu_.unlock();\n"
      "state->mu.lock();\n";
  const std::vector<Finding> findings =
      CheckNakedLocks("src/serve/server/batch_queue.cc", source);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, kRuleNakedLock);
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_NE(findings[0].message.find("RAII"), std::string::npos);
  EXPECT_EQ(findings[1].line, 2u);
  EXPECT_EQ(findings[2].line, 3u);
}

TEST(NakedLockTest, GuardsRuntimeTemplateClosersAndEscapeAreQuiet) {
  // RAII declarations: `> lock(mu_)` is a template closer followed by a
  // variable name, not a member call.
  EXPECT_TRUE(CheckNakedLocks("src/serve/server/s.cc",
                              "std::lock_guard<std::mutex> lock(mu_);\n"
                              "std::unique_lock<std::mutex> held(mu_);\n")
                  .empty());
  // std::lock(a, b) is the deadlock-avoiding free function.
  EXPECT_TRUE(CheckNakedLocks("src/ml/x.cc", "std::lock(a, b);").empty());
  // src/runtime/ is the audited home for manual lock juggling.
  EXPECT_TRUE(
      CheckNakedLocks("src/runtime/thread_pool.cc", "mu_.lock();").empty());
  // weak_ptr::lock() is promotion, not a mutex; the escape documents it.
  EXPECT_TRUE(
      CheckNakedLocks(
          "src/ml/x.cc",
          "auto s = weak.lock();  // eafe-lint: allow(naked-lock) weak_ptr\n")
          .empty());
}

TEST(MetricRegistryTest, FlagsUnregisteredDuplicateUndocumentedAndStale) {
  const std::string registry =
      "inline constexpr char kGood[] = \"eafe_good_total\";\n"
      "inline constexpr char kDup[] = \"eafe_dup_total\";\n"
      "inline constexpr char kDupAgain[] = \"eafe_dup_total\";\n"
      "inline constexpr char kUndoc[] = \"eafe_undocumented_total\";\n"
      "inline constexpr char kStale[] = \"eafe_stale_total\";\n";
  const std::string user =
      "metrics.Add(\"eafe_good_total\", 1);\n"
      "metrics.Add(\"eafe_dup_total\", 1);\n"
      "metrics.Add(\"eafe_undocumented_total\", 1);\n"
      "metrics.Add(\"eafe_rogue_total\", 1);\n";
  const std::string readme =
      "| eafe_good_total | eafe_dup_total | eafe_stale_total |";
  const std::vector<Finding> findings = CheckMetricRegistry(
      {{kMetricRegistryPath, registry}, {"src/foo/bar.cc", user}}, readme);
  ASSERT_EQ(findings.size(), 4u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule, kRuleMetricRegistry);
  }
  // Duplicate registration, anchored at the second declaration.
  EXPECT_EQ(findings[0].file, kMetricRegistryPath);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("registered twice"), std::string::npos);
  // Use without registration, anchored at the use site.
  EXPECT_EQ(findings[1].file, "src/foo/bar.cc");
  EXPECT_EQ(findings[1].line, 4u);
  EXPECT_NE(findings[1].message.find("eafe_rogue_total"), std::string::npos);
  // Registered but used nowhere.
  EXPECT_NE(findings[2].message.find("eafe_stale_total"), std::string::npos);
  EXPECT_NE(findings[2].message.find("used by no literal"), std::string::npos);
  // Registered but absent from README's metrics docs.
  EXPECT_NE(findings[3].message.find("eafe_undocumented_total"),
            std::string::npos);
  EXPECT_NE(findings[3].message.find("README"), std::string::npos);
}

TEST(MetricRegistryTest, ExactMatchCleanAndMissingRegistry) {
  // Prefix families are registered as the literal the call site spells
  // ("eafe_pipeline"); matching is exact, not substring.
  const std::string registry =
      "inline constexpr char kPipelinePrefix[] = \"eafe_pipeline\";\n";
  const std::string user = "counters.Publish(\"eafe_pipeline\", stats);\n";
  EXPECT_TRUE(CheckMetricRegistry(
                  {{kMetricRegistryPath, registry}, {"src/afe/s.cc", user}},
                  "the eafe_pipeline family")
                  .empty());
  // Strings that are not eafe_* metric names never participate.
  EXPECT_TRUE(CheckMetricRegistry({{kMetricRegistryPath, registry},
                                   {"src/afe/s.cc",
                                    "Log(\"eafe_pipeline\");\n"
                                    "Log(\"plain diagnostic text\");\n"}},
                                  "eafe_pipeline docs")
                  .empty());
  // A tree without the registry header is a single repo-level finding.
  const std::vector<Finding> missing =
      CheckMetricRegistry({{"src/afe/s.cc", user}}, "");
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].rule, kRuleMetricRegistry);
  EXPECT_EQ(missing[0].file, kMetricRegistryPath);
  EXPECT_NE(missing[0].message.find("missing"), std::string::npos);
}

TEST(UnusedSuppressionTest, FlagsStaleAndUnknownKeepsLoadBearing) {
  const std::string source =
      "int a = rand();  // eafe-lint: allow(determinism) seeded by env\n"
      "int b = 2;       // eafe-lint: allow(determinism) suppresses nil\n"
      "int c = 3;       // eafe-lint: allow(determinizm) typo\n";
  Finding suppressed;
  suppressed.file = "src/ml/x.cc";
  suppressed.line = 1;
  suppressed.rule = kRuleDeterminism;
  const std::vector<Finding> findings =
      CheckUnusedSuppressions("src/ml/x.cc", source, {suppressed});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, kRuleUnusedSuppression);
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_NE(findings[0].message.find("suppresses nothing"), std::string::npos);
  EXPECT_EQ(findings[1].line, 3u);
  EXPECT_NE(findings[1].message.find("no known rule"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Include-graph engine: parsing, resolution, cycles, layering, and the
// spec <-> architecture-doc cross-check, all over synthetic trees.

TEST(IncludeGraphTest, ParseIncludesSkipsCommentsAndSystemIncludes) {
  const std::string source =
      "#include <vector>\n"
      "#include \"core/matrix.h\"\n"
      "// #include \"ml/evaluator.h\"\n"
      "  #  include \"data/column.h\"\n";
  const std::vector<IncludeEdge> edges = ParseIncludes("src/ml/x.cc", source);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].from, "src/ml/x.cc");
  EXPECT_EQ(edges[0].line, 2u);
  EXPECT_EQ(edges[0].target, "core/matrix.h");
  EXPECT_TRUE(edges[0].to.empty());  // resolution is BuildIncludeGraph's job
  EXPECT_EQ(edges[1].line, 4u);
  EXPECT_EQ(edges[1].target, "data/column.h");
}

TEST(IncludeGraphTest, BuildResolvesSrcFirstThenRepoRoot) {
  const std::map<std::string, std::string> files = {
      {"src/core/a.h", ""},
      {"src/ml/b.h", "#include \"core/a.h\"\n#include \"missing/z.h\"\n"},
      {"tools/lint/t.cc",
       "#include \"tools/lint/t.h\"\n#include \"core/a.h\"\n"},
      {"tools/lint/t.h", ""},
  };
  const IncludeGraph graph = BuildIncludeGraph(files);
  EXPECT_EQ(graph.files.size(), 4u);
  ASSERT_EQ(graph.edges.size(), 4u);
  EXPECT_EQ(graph.edges[0].from, "src/ml/b.h");
  EXPECT_EQ(graph.edges[0].to, "src/core/a.h");  // src/ root wins
  EXPECT_TRUE(graph.edges[1].to.empty());        // unresolved -> external
  EXPECT_EQ(graph.edges[2].from, "tools/lint/t.cc");
  EXPECT_EQ(graph.edges[2].to, "tools/lint/t.h");  // repo-root fallback
  EXPECT_EQ(graph.edges[3].to, "src/core/a.h");

  // The resolved synthetic tree is acyclic.
  EXPECT_TRUE(FindIncludeCycles(graph).empty());
  EXPECT_TRUE(CheckIncludeCycles(graph).empty());
}

TEST(IncludeGraphTest, FindsCyclesAndSelfIncludes) {
  const std::map<std::string, std::string> files = {
      {"src/core/a.h", "#include \"core/b.h\"\n"},
      {"src/core/b.h", "#include \"core/a.h\"\n"},
      {"src/core/c.h", "#include \"core/c.h\"\n"},
      {"src/core/d.h", "#include \"core/a.h\"\n"},  // points in, not cyclic
  };
  const IncludeGraph graph = BuildIncludeGraph(files);
  const std::vector<std::vector<std::string>> cycles =
      FindIncludeCycles(graph);
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0],
            (std::vector<std::string>{"src/core/a.h", "src/core/b.h"}));
  EXPECT_EQ(cycles[1], (std::vector<std::string>{"src/core/c.h"}));

  const std::vector<Finding> findings = CheckIncludeCycles(graph);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, kRuleIncludeCycle);
  EXPECT_EQ(findings[0].file, "src/core/a.h");
  EXPECT_EQ(findings[0].line, 1u);  // anchored at the offending #include
  EXPECT_NE(findings[0].message.find(
                "src/core/a.h -> src/core/b.h -> src/core/a.h"),
            std::string::npos);
  EXPECT_EQ(findings[1].file, "src/core/c.h");
  EXPECT_NE(findings[1].message.find("src/core/c.h -> src/core/c.h"),
            std::string::npos);
}

LayerSpec Spec(const std::string& text) {
  std::string error;
  const std::optional<LayerSpec> spec = ParseLayerSpec(text, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  return spec.value_or(LayerSpec{});
}

TEST(LayerSpecTest, ParsesBottomUpDeclarationsCommentsAndStar) {
  const LayerSpec spec = Spec(
      "# comment line\n"
      "core:\n"
      "runtime: core\n"
      "ml: core, runtime  # trailing comment\n"
      "tools: *\n");
  EXPECT_EQ(spec.order,
            (std::vector<std::string>{"core", "runtime", "ml", "tools"}));
  EXPECT_TRUE(spec.allowed.at("core").empty());
  EXPECT_EQ(spec.allowed.at("ml"),
            (std::set<std::string>{"core", "runtime"}));
  EXPECT_EQ(spec.allowed.at("tools"), (std::set<std::string>{"*"}));
}

TEST(LayerSpecTest, RejectsMalformedSpecsWithPointedErrors) {
  std::string error;
  EXPECT_FALSE(ParseLayerSpec("core:\nml: data\n", &error).has_value());
  EXPECT_NE(error.find("undeclared"), std::string::npos);
  EXPECT_FALSE(ParseLayerSpec("core:\ncore:\n", &error).has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos);
  EXPECT_FALSE(ParseLayerSpec("core\n", &error).has_value());
  EXPECT_NE(error.find("expected"), std::string::npos);
  EXPECT_FALSE(ParseLayerSpec("# only comments\n", &error).has_value());
  EXPECT_NE(error.find("no layers"), std::string::npos);
}

TEST(LayerSpecTest, LayerOfMapsEveryTreeShape) {
  EXPECT_EQ(LayerOf("src/core/rng.h"), "core");
  EXPECT_EQ(LayerOf("src/serve/server/server.cc"), "serve");  // nested dirs
  EXPECT_EQ(LayerOf("src/eafe.h"), "api");
  EXPECT_EQ(LayerOf("tools/lint/lint.cc"), "tools");
  EXPECT_EQ(LayerOf("tests/tools/lint_test.cc"), "tests");
  EXPECT_EQ(LayerOf("bench/bench_main.cc"), "bench");
  EXPECT_EQ(LayerOf("examples/quickstart.cpp"), "examples");
  EXPECT_EQ(LayerOf("docs/ARCHITECTURE.md"), "");
  EXPECT_EQ(LayerOf("src/loose_file.cc"), "");
}

TEST(LayeringTest, FlagsBreachesAndHonorsSpecAndStar) {
  const std::map<std::string, std::string> files = {
      {"src/core/a.h", "#include \"core/b.h\"\n"},  // same layer: fine
      {"src/core/b.h", ""},
      {"src/data/column.h", "#include \"ml/m.h\"\n"},  // breach: data !> ml
      {"src/ml/m.h", "#include \"data/column.h\"\n#include \"core/a.h\"\n"},
      {"tools/lint/t.cc", "#include \"ml/m.h\"\n"},  // '*' layer: fine
  };
  const LayerSpec spec = Spec(
      "core:\n"
      "data: core\n"
      "ml: core, data\n"
      "tools: *\n");
  const std::vector<Finding> findings =
      CheckLayering(BuildIncludeGraph(files), spec);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleLayering);
  EXPECT_EQ(findings[0].file, "src/data/column.h");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_NE(findings[0].message.find("may only include {core}"),
            std::string::npos);
}

TEST(LayeringTest, UnknownDirectoriesAndUndeclaredLayersAreFindings) {
  const std::map<std::string, std::string> files = {
      {"src/core/a.h", ""},
      {"third_party/x.h", "#include \"core/a.h\"\n"},
  };
  const LayerSpec spec = Spec("core:\n");
  const std::vector<Finding> unknown =
      CheckLayering(BuildIncludeGraph(files), spec);
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_NE(unknown[0].message.find("no known layer"), std::string::npos);

  // A real layer the spec forgot to declare is its own finding.
  const std::map<std::string, std::string> undeclared = {
      {"src/core/a.h", ""},
      {"src/ml/m.h", "#include \"core/a.h\"\n"},
  };
  const std::vector<Finding> findings =
      CheckLayering(BuildIncludeGraph(undeclared), spec);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("not declared"), std::string::npos);
}

constexpr char kArchDocGood[] = R"md(# Architecture

Dependencies point strictly downward.

## Layers

```
tools/   tests/
───────────────────
ml/
───────────────────
core/
```
)md";

TEST(ArchDocCrossCheckTest, AcceptsMatchingSpecAndDiagram) {
  const LayerSpec spec = Spec(
      "core:\n"
      "ml: core\n"
      "tools: *\n"
      "tests: *\n");
  EXPECT_TRUE(
      CheckLayerSpecMatchesArchitectureDoc(spec, kArchDocGood).empty());
}

TEST(ArchDocCrossCheckTest, FlagsMissingLayersInBothDirections) {
  // 'data' is in the spec but not the diagram; 'tests' is in the
  // diagram but not the spec.
  const LayerSpec spec = Spec(
      "core:\n"
      "data: core\n"
      "ml: core, data\n"
      "tools: *\n");
  const std::vector<Finding> findings =
      CheckLayerSpecMatchesArchitectureDoc(spec, kArchDocGood);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, kRuleLayering);
  EXPECT_NE(findings[0].message.find("'data'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("missing"), std::string::npos);
  EXPECT_NE(findings[1].message.find("'tests'"), std::string::npos);
  EXPECT_NE(findings[1].message.find("not declared"), std::string::npos);
}

TEST(ArchDocCrossCheckTest, FlagsUpwardDependenciesAllowsSameBand) {
  // The spec parses (declared bottom-up) but contradicts the diagram:
  // core sits in the bottom band yet claims a dependency on ml above it.
  const LayerSpec upward = Spec(
      "ml:\n"
      "core: ml\n"
      "tools: *\n"
      "tests: *\n");
  const std::vector<Finding> findings =
      CheckLayerSpecMatchesArchitectureDoc(upward, kArchDocGood);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleLayering);
  EXPECT_NE(findings[0].message.find("higher band"), std::string::npos);

  // Peers in one band may depend on each other (runtime <- simd).
  constexpr char kPeers[] =
      "## Layers\n```\nruntime/  simd/\n─────\ncore/\n```\n";
  const LayerSpec peers = Spec(
      "core:\n"
      "runtime: core\n"
      "simd: core, runtime\n");
  EXPECT_TRUE(CheckLayerSpecMatchesArchitectureDoc(peers, kPeers).empty());
}

TEST(ArchDocCrossCheckTest, MissingOrEmptyDiagramIsItselfAFinding) {
  const LayerSpec spec = Spec("core:\n");
  const std::vector<Finding> no_heading =
      CheckLayerSpecMatchesArchitectureDoc(spec, "no layer section here");
  ASSERT_EQ(no_heading.size(), 1u);
  EXPECT_NE(no_heading[0].message.find("fenced layer diagram"),
            std::string::npos);

  const std::vector<Finding> no_tokens = CheckLayerSpecMatchesArchitectureDoc(
      spec, "## Layers\n```\njust prose, no layer tokens\n```\n");
  ASSERT_EQ(no_tokens.size(), 1u);
  EXPECT_NE(no_tokens[0].message.find("names no"), std::string::npos);
}

}  // namespace
}  // namespace eafe::lint
