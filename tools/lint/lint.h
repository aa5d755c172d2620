#ifndef EAFE_TOOLS_LINT_LINT_H_
#define EAFE_TOOLS_LINT_LINT_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

// eafe_lint: project-invariant checker.
//
// The rules here guard project invariants that no type can express. The
// load-bearing one is determinism: every run is bit-identical at any
// --threads, which is only true while all randomness flows through
// eafe::Rng from an explicit seed and no wall-clock leaks into results.
// The others keep threads, intrinsics, sockets, raw decoding and manual
// locking in their audited homes, and metric names and test labels
// registered. (The evaluation memo's key, every EvaluatorOptions field, is
// a static_assert in src/ml/evaluator.h instead.)
//
// The rules run on every commit (tools/check.sh --suite lint, CI `lint`
// job). Each rule can be silenced on a single line
// with `// eafe-lint: allow(<rule>)` — the escape is part of the diff and
// shows up in review, unlike a silently-missing invariant — and the
// unused-suppression rule deletes escapes that stop earning their keep.
//
// Beyond the token rules here, the include-graph engine
// (tools/lint/include_graph.h) runs project-wide structural analysis:
// include-cycle detection over the dependency DAG and the layering rule
// driven by tools/lint/layers.spec, cross-checked against the normative
// layer diagram in docs/ARCHITECTURE.md.

namespace eafe::lint {

struct Finding {
  std::string file;     // repo-relative path ("" for repo-level findings)
  size_t line = 0;      // 1-based; 0 when the finding is not line-anchored
  std::string rule;     // rule id, e.g. "determinism"
  std::string message;  // pointed, actionable description

  std::string ToString() const;
  // GitHub Actions workflow command ("::error file=...,line=...::...") so
  // `eafe_lint --format=github` annotates PR diffs inline.
  std::string ToGithub() const;
};

// Rule ids (also the tokens accepted by `eafe-lint: allow(...)`).
inline constexpr char kRuleDeterminism[] = "determinism";
inline constexpr char kRuleRawThread[] = "raw-thread";
inline constexpr char kRuleTestLabels[] = "test-labels";
inline constexpr char kRuleRawDeserialize[] = "raw-deserialize";
inline constexpr char kRuleSimd[] = "simd";
inline constexpr char kRuleServeSocket[] = "serve-socket";
inline constexpr char kRuleIncludeCycle[] = "include-cycle";
inline constexpr char kRuleLayering[] = "layering";
inline constexpr char kRuleCondvarPredicate[] = "condvar-predicate";
inline constexpr char kRuleNakedLock[] = "naked-lock";
inline constexpr char kRuleMetricRegistry[] = "metric-registry";
inline constexpr char kRuleUnusedSuppression[] = "unused-suppression";

// Every rule id, in a stable order (drives --list-rules and the
// unknown-rule check on `allow(...)` escapes).
std::vector<std::string> AllRuleIds();

// Replaces the bodies of //- and /* */-comments and string/char literals
// with spaces, preserving newlines so byte offsets keep their line numbers.
// Run before token matching so prose mentioning std::thread can't fire.
std::string StripCommentsAndStrings(const std::string& source);

// Comments-only variant: string and char literals survive. The include
// graph parses on this (an include target *is* a string literal), and
// the metric-registry rule reads name literals from it.
std::string StripComments(const std::string& source);

// String literals of `source` with their 1-based lines, comments ignored,
// escape sequences left undecoded, raw-string bodies returned verbatim.
struct StringLiteral {
  std::string text;
  size_t line = 0;
};
std::vector<StringLiteral> ExtractStringLiterals(const std::string& source);

// One `// eafe-lint: allow(<rule>)` escape. Directives are parsed from
// raw source, line by line; a line may carry several rules.
struct AllowDirective {
  size_t line = 0;
  std::string rule;
};
std::vector<AllowDirective> ParseAllowDirectives(const std::string& source);

// ---------------------------------------------------------------------------
// Rule: determinism
//
// src/ must not read ambient entropy or wall-clock state: rand/srand/
// drand48, std::random_device, time()/std::time, gettimeofday, and
// std::chrono::system_clock are banned. Seeds enter through eafe::Rng
// (src/core/rng.cc is the allowlisted seed entry point); monotonic
// steady_clock timing (core/stopwatch.h) is fine because it never feeds
// results.
std::vector<Finding> CheckDeterminism(const std::string& path,
                                      const std::string& source);

// ---------------------------------------------------------------------------
// Rule: raw-thread
//
// src/ outside src/runtime/ must not spawn threads directly (std::thread,
// std::jthread, std::async, pthread_create): all parallelism goes through
// runtime::ThreadPool/ParallelFor so the determinism tests cover it and
// nested fan-out degrades to inline execution instead of oversubscription.
// std::thread::hardware_concurrency() is metadata, not a thread, and is
// exempt.
std::vector<Finding> CheckRawThreads(const std::string& path,
                                     const std::string& source);

// ---------------------------------------------------------------------------
// Rule: raw-deserialize
//
// src/ outside src/serve/ must not decode bytes through `fread` or
// `reinterpret_cast`: struct-dump IO is endian/padding-dependent and a
// truncated or hostile file becomes undefined behaviour. All wire decoding
// goes through the bounds-checked serve/wire.h readers (model containers
// via serve/model_store.h); in-process type punning uses std::bit_cast.
std::vector<Finding> CheckRawDeserialize(const std::string& path,
                                         const std::string& source);

// ---------------------------------------------------------------------------
// Rule: simd
//
// src/ outside src/simd/ must not use raw SIMD intrinsics: no
// <immintrin.h>-family includes and no _mm*/__m128/__m256/__m512
// identifiers. Vector code lives behind the runtime-dispatched kernels in
// src/simd/ (scalar fallback, EAFE_SIMD override, dispatch counters); a
// stray intrinsic elsewhere would compile for one ISA only and dodge the
// scalar-equivalence property tests.
std::vector<Finding> CheckSimdIntrinsics(const std::string& path,
                                         const std::string& source);

// ---------------------------------------------------------------------------
// Rule: serve-socket
//
// src/ outside src/serve/server/ must not call the raw POSIX socket
// surface (socket, bind, listen, accept, connect, send, recv, ...). The
// server directory is the one audited networking layer — non-blocking
// fds, bounded frames, admission control — and a stray blocking send()
// elsewhere would dodge its overload and robustness tests. Member calls
// (client.send(...)) and std::bind are not socket calls and do not fire.
std::vector<Finding> CheckServeSockets(const std::string& path,
                                       const std::string& source);

// ---------------------------------------------------------------------------
// Rule: condvar-predicate
//
// Every condition_variable wait in src/runtime/ and src/serve/server/
// must use the predicate overload: `cv.wait(lock)` without a predicate
// is the lost-wakeup / spurious-wakeup class TSan cannot see (the code
// is data-race-free and still hangs). `cv.wait(lock, pred)` re-checks
// the condition under the lock on every wakeup. wait_for/wait_until
// follow the same rule. Zero-argument waits (std::future::wait) are a
// different API and do not fire.
std::vector<Finding> CheckCondvarPredicate(const std::string& path,
                                           const std::string& source);

// ---------------------------------------------------------------------------
// Rule: naked-lock
//
// src/ outside src/runtime/ must not call bare `.lock()` / `.unlock()`:
// an early return or exception between the pair leaks the mutex held
// forever. RAII guards (std::lock_guard, std::unique_lock,
// std::scoped_lock) unlock on every exit path; src/runtime/ is the one
// audited home for manual lock juggling (its queue fast paths drop the
// lock before notifying, under TSan coverage).
std::vector<Finding> CheckNakedLocks(const std::string& path,
                                     const std::string& source);

// ---------------------------------------------------------------------------
// Rule: metric-registry
//
// Every `eafe_*` metric-name literal in src/ must appear exactly once in
// the registry header src/runtime/metric_names.h, and every registered
// name must appear in README.md's metric-family docs. A metric that is
// registered nowhere is invisible to operators reading the registry; a
// registered name missing from README is docs drift; a registry entry no
// code uses is stale. Names ending in '_' (or used as prefixes, e.g.
// "eafe_pipeline") cover the whole runtime-completed family.
//
// `sources` maps repo-relative paths to content and must contain the
// registry header (kMetricRegistryPath) and the scanned src/ files.
// Findings are unfiltered; LintRepository applies allow() escapes.
inline constexpr char kMetricRegistryPath[] = "src/runtime/metric_names.h";
std::vector<Finding> CheckMetricRegistry(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const std::string& readme);

// ---------------------------------------------------------------------------
// Rule: unused-suppression
//
// Every `// eafe-lint: allow(<rule>)` escape must suppress something:
// a directive whose (line, rule) matches none of the unfiltered findings
// for its file is dead weight that silently blesses future violations on
// that line. Directives naming unknown rules are flagged too.
// `unsuppressed` is the full unfiltered finding set for `path`.
std::vector<Finding> CheckUnusedSuppressions(
    const std::string& path, const std::string& source,
    const std::vector<Finding>& unsuppressed);

// ---------------------------------------------------------------------------
// Rule: test-labels
//
// Every eafe_add_test() in tests/CMakeLists.txt must carry at least one
// label (labels drive suite selection in tools/check.sh), and any test
// whose sources touch the concurrency surface (ParallelFor, ThreadPool,
// EvalService, and the pipelined-search type SearchStepPipeline) must
// carry `tsan` so the ThreadSanitizer suite picks it up automatically.

struct TestRegistration {
  std::string name;
  size_t line = 0;  // 1-based line of the eafe_add_test( call
  std::vector<std::string> labels;
  std::vector<std::string> sources;  // as written, relative to tests/
};

// Parses eafe_add_test(name LABELS ... SOURCES ...) calls out of
// tests/CMakeLists.txt (comments stripped; quoted "a;b" label lists split).
std::vector<TestRegistration> ParseTestRegistrations(
    const std::string& cmake_source);

// `read_source` maps a SOURCES entry to that file's content, or nullopt if
// unreadable (unreadable files are themselves findings).
std::vector<Finding> CheckTestLabels(
    const std::vector<TestRegistration>& tests,
    const std::function<std::optional<std::string>(const std::string&)>&
        read_source);

// ---------------------------------------------------------------------------
// Driver: runs every rule over a repository checkout — the per-file token
// rules over src/, the include-graph rules (cycles, layering, spec/doc
// cross-check) over src/ + tools/ + tests/ + bench/ + examples/, the
// metric registry against src/runtime/metric_names.h + README.md, and
// the test-label rule over tests/CMakeLists.txt. allow() escapes are
// applied centrally here, and escapes that suppress nothing become
// unused-suppression findings. Findings are sorted by (file, line, rule)
// and deterministic. `error` receives a message and the result is
// nullopt if the tree is not lintable (missing anchor files such as
// tests/CMakeLists.txt or tools/lint/layers.spec).
std::optional<std::vector<Finding>> LintRepository(const std::string& root,
                                                   std::string* error);

}  // namespace eafe::lint

#endif  // EAFE_TOOLS_LINT_LINT_H_
