// eafe_lint — repository invariant checker (see tools/lint/lint.h for the
// token rules and tools/lint/include_graph.h for the include-graph rules,
// and why each exists). Exit codes: 0 clean, 1 findings, 2 usage/IO.
//
//   eafe_lint [--root <repo>] [--format=plain|github]
//                               lint a checkout (default: cwd, plain)
//   eafe_lint --list-rules      print rule ids and one-line summaries
//
// --format=github emits GitHub Actions workflow commands
// (::error file=...,line=...::message) so CI findings annotate PR diffs
// inline; tools/check.sh selects it automatically under GITHUB_ACTIONS.

#include <cstdio>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: eafe_lint [--root <repo>] [--format=plain|github] | "
               "eafe_lint --list-rules\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string format = "plain";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg == "--list-rules") {
      std::printf(
          "determinism         no rand()/std::random_device/time()/"
          "system_clock in src/ (seed entry point: src/core/rng.cc)\n"
          "raw-thread          no std::thread/std::jthread/std::async/"
          "pthread_create outside src/runtime/\n"
          "raw-deserialize     no fread/reinterpret_cast decoding outside "
          "src/serve/ (use the bounds-checked wire readers)\n"
          "simd                no raw _mm*/__m256 intrinsics outside "
          "src/simd/ (dispatched kernels only)\n"
          "serve-socket        no raw POSIX socket calls outside "
          "src/serve/server/\n"
          "condvar-predicate   condition_variable waits in src/runtime/ and "
          "src/serve/server/ use the predicate overload\n"
          "naked-lock          no bare .lock()/.unlock() outside "
          "src/runtime/ (RAII guards only)\n"
          "metric-registry     every eafe_* metric literal is registered "
          "once in src/runtime/metric_names.h and documented in README\n"
          "include-cycle       the internal include graph has no cycles\n"
          "layering            every #include obeys tools/lint/layers.spec "
          "(cross-checked against docs/ARCHITECTURE.md)\n"
          "test-labels         every eafe_add_test is labeled; concurrency "
          "tests carry `tsan`\n"
          "unused-suppression  every eafe-lint: allow(...) escape "
          "suppresses a real finding\n");
      return 0;
    } else {
      return Usage();
    }
  }
  if (format != "plain" && format != "github") return Usage();

  std::string error;
  const auto findings = eafe::lint::LintRepository(root, &error);
  if (!findings.has_value()) {
    std::fprintf(stderr, "eafe_lint: %s\n", error.c_str());
    return 2;
  }
  for (const eafe::lint::Finding& finding : *findings) {
    const std::string rendered =
        format == "github" ? finding.ToGithub() : finding.ToString();
    std::printf("%s\n", rendered.c_str());
  }
  if (!findings->empty()) {
    std::fprintf(stderr, "eafe_lint: %zu finding(s)\n", findings->size());
    return 1;
  }
  std::printf("eafe_lint: clean\n");
  return 0;
}
