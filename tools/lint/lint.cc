#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "tools/lint/include_graph.h"

namespace eafe::lint {
namespace {

namespace fs = std::filesystem;

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Drops findings whose (line, rule) is covered by an allow() directive
// in `source`. Rule bodies produce unfiltered findings; the public
// Check* wrappers and LintRepository filter here (LintRepository keeps
// the unfiltered set too, for unused-suppression detection).
std::vector<Finding> FilterAllowed(std::vector<Finding> findings,
                                   const std::string& source) {
  std::set<std::pair<size_t, std::string>> allowed;
  for (const AllowDirective& directive : ParseAllowDirectives(source)) {
    allowed.insert({directive.line, directive.rule});
  }
  std::vector<Finding> kept;
  for (Finding& finding : findings) {
    if (allowed.count({finding.line, finding.rule}) == 0) {
      kept.push_back(std::move(finding));
    }
  }
  return kept;
}

// An identifier token in comment/string-stripped source.
struct Ident {
  std::string text;
  size_t line = 0;   // 1-based
  size_t begin = 0;  // byte offset of first char
  size_t end = 0;    // one past last char
  char prev = '\0';  // previous non-whitespace char ('\0' at start of file)
};

std::vector<Ident> Identifiers(const std::string& text) {
  std::vector<Ident> idents;
  size_t line = 1;
  char prev = '\0';
  for (size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (IsIdentChar(c) && std::isdigit(static_cast<unsigned char>(c)) == 0) {
      Ident ident;
      ident.line = line;
      ident.begin = i;
      ident.prev = prev;
      while (i < text.size() && IsIdentChar(text[i])) ++i;
      ident.end = i;
      ident.text = text.substr(ident.begin, ident.end - ident.begin);
      idents.push_back(std::move(ident));
      prev = 'a';  // any identifier char stands in for "identifier before"
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) == 0) prev = c;
    ++i;
  }
  return idents;
}

// True when the identifier is reached through a member access: `.name`
// or `->name`. A bare '>' is NOT enough — `std::lock_guard<std::mutex>
// lock(mu_)` puts a template closer before the variable name `lock`,
// which is a declaration, not a call on something.
bool IsMemberAccess(const std::string& text, const Ident& ident) {
  size_t pos = ident.begin;
  while (pos > 0 &&
         std::isspace(static_cast<unsigned char>(text[pos - 1])) != 0) {
    --pos;
  }
  if (pos == 0) return false;
  if (text[pos - 1] == '.') return true;
  return text[pos - 1] == '>' && pos >= 2 && text[pos - 2] == '-';
}

size_t NextNonSpacePos(const std::string& text, size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

char NextNonSpace(const std::string& text, size_t pos) {
  pos = NextNonSpacePos(text, pos);
  return pos < text.size() ? text[pos] : '\0';
}

// Number of top-level arguments of the call whose opening '(' sits at
// `open` in stripped text — `cv.wait(lk)` is 1, `cv.wait(lk, [&]{...})`
// is 2 (commas inside nested ()/[]/{} don't count), `f.wait()` is 0.
// nullopt when the list never closes (truncated source).
std::optional<size_t> CountCallArgs(const std::string& text, size_t open) {
  size_t depth = 0;
  size_t commas = 0;
  bool any_tokens = false;
  for (size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[' || c == '{') {
      if (depth > 0) any_tokens = true;
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      if (depth == 0) return std::nullopt;  // malformed
      --depth;
      if (depth == 0) return any_tokens ? commas + 1 : 0;
      any_tokens = true;
    } else if (depth >= 1) {
      if (c == ',' && depth == 1) {
        ++commas;
      } else if (std::isspace(static_cast<unsigned char>(c)) == 0) {
        any_tokens = true;
      }
    }
  }
  return std::nullopt;
}

// True when the identifier ending at `end` is followed (modulo whitespace)
// by `suffix`, e.g. "::hardware_concurrency".
bool FollowedBy(const std::string& text, size_t end,
                const std::string& suffix) {
  size_t pos = end;
  for (char expected : suffix) {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
    if (pos >= text.size() || text[pos] != expected) return false;
    ++pos;
  }
  // The suffix must end on an identifier boundary.
  return pos >= text.size() || !IsIdentChar(text[pos]) ||
         !IsIdentChar(suffix.back());
}

std::optional<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

std::string Finding::ToString() const {
  std::ostringstream out;
  if (!file.empty()) {
    out << file << ":";
    if (line > 0) out << line << ":";
    out << " ";
  }
  out << "[" << rule << "] " << message;
  return out.str();
}

std::string Finding::ToGithub() const {
  // Workflow-command escaping: properties additionally escape ':' and
  // ',' (they delimit the property list), message data only % CR LF.
  const auto escape_data = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '%') {
        out += "%25";
      } else if (c == '\r') {
        out += "%0D";
      } else if (c == '\n') {
        out += "%0A";
      } else {
        out += c;
      }
    }
    return out;
  };
  const auto escape_property = [&escape_data](const std::string& s) {
    std::string out;
    for (const char c : escape_data(s)) {
      if (c == ':') {
        out += "%3A";
      } else if (c == ',') {
        out += "%2C";
      } else {
        out += c;
      }
    }
    return out;
  };
  std::ostringstream out;
  out << "::error ";
  if (!file.empty()) {
    out << "file=" << escape_property(file) << ",";
    if (line > 0) out << "line=" << line << ",";
  }
  out << "title=" << escape_property("eafe-lint [" + rule + "]")
      << "::" << escape_data(message);
  return out.str();
}

std::vector<std::string> AllRuleIds() {
  return {kRuleDeterminism,      kRuleRawThread,
          kRuleRawDeserialize,   kRuleSimd,
          kRuleServeSocket,      kRuleCondvarPredicate,
          kRuleNakedLock,        kRuleMetricRegistry,
          kRuleIncludeCycle,     kRuleLayering,
          kRuleTestLabels,       kRuleUnusedSuppression};
}

namespace {

// Shared stripping state machine. `strings_too` blanks string/char
// literal bodies as well as comments; either way newlines survive so
// byte offsets keep their line numbers, and the lexer must agree with
// the compiler on where literals end (escapes, raw-string delimiters,
// backslash-continued // comments) or rules misfire inside them.
std::string StripImpl(const std::string& source, bool strings_too) {
  std::string out = source;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          // Raw string literal R"delim( ... )delim" — scan to the close
          // (custom delimiters included), blanking when strings_too.
          if (i > 0 && out[i - 1] == 'R' &&
              (i < 2 || !IsIdentChar(out[i - 2]))) {
            size_t open = out.find('(', i + 1);
            if (open == std::string::npos) break;
            const std::string delim = out.substr(i + 1, open - i - 1);
            const std::string close = ")" + delim + "\"";
            size_t stop = out.find(close, open + 1);
            if (stop == std::string::npos) stop = out.size();
            const size_t end = std::min(stop + close.size(), out.size());
            if (strings_too) {
              for (size_t j = i; j < end; ++j) {
                if (out[j] != '\n') out[j] = ' ';
              }
            }
            i = end - 1;
          } else {
            state = State::kString;
          }
        } else if (c == '\'') {
          // Skip digit separators (1'000'000) — not a char literal.
          if (i > 0 && std::isdigit(static_cast<unsigned char>(out[i - 1]))) {
            break;
          }
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\\' && next == '\n') {
          // Line splice: a backslash-newline continues the // comment
          // onto the next physical line, exactly as the preprocessor
          // sees it — ending the comment here would lint the
          // continuation as code.
          out[i] = ' ';
          ++i;  // keep the newline, stay in the comment
        } else if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          if (strings_too) out[i] = ' ';
          if (next != '\n') {
            if (strings_too && i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n' && strings_too) {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          if (strings_too) out[i] = ' ';
          if (next != '\n') {
            if (strings_too && i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n' && strings_too) {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& source) {
  return StripImpl(source, /*strings_too=*/true);
}

std::string StripComments(const std::string& source) {
  return StripImpl(source, /*strings_too=*/false);
}

std::vector<StringLiteral> ExtractStringLiterals(const std::string& source) {
  // On comment-stripped text, literal boundaries are unambiguous; walk
  // them with the same rules StripImpl uses.
  const std::string text = StripComments(source);
  std::vector<StringLiteral> literals;
  size_t line = 1;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      continue;
    }
    if (c != '"') continue;
    // Raw string: content runs verbatim to )delim".
    if (i > 0 && text[i - 1] == 'R' && (i < 2 || !IsIdentChar(text[i - 2]))) {
      const size_t open = text.find('(', i + 1);
      if (open == std::string::npos) break;
      const std::string delim = text.substr(i + 1, open - i - 1);
      const std::string close = ")" + delim + "\"";
      size_t stop = text.find(close, open + 1);
      if (stop == std::string::npos) stop = text.size();
      StringLiteral literal;
      literal.line = line;
      literal.text = text.substr(open + 1, stop - open - 1);
      line += static_cast<size_t>(
          std::count(literal.text.begin(), literal.text.end(), '\n'));
      literals.push_back(std::move(literal));
      i = std::min(stop + close.size(), text.size());
      if (i > 0) --i;
      continue;
    }
    StringLiteral literal;
    literal.line = line;
    size_t j = i + 1;
    for (; j < text.size() && text[j] != '"'; ++j) {
      if (text[j] == '\\' && j + 1 < text.size()) {
        literal.text += text[j];
        ++j;
      }
      if (text[j] == '\n') ++line;
      literal.text += text[j];
    }
    literals.push_back(std::move(literal));
    i = j;  // at the closing quote (or EOF)
  }
  return literals;
}

std::vector<AllowDirective> ParseAllowDirectives(const std::string& source) {
  // Scanned on the raw source: the directive lives in a comment, which
  // the stripper erases.
  std::vector<AllowDirective> directives;
  size_t line = 1;
  size_t line_start = 0;
  for (size_t i = 0; i <= source.size(); ++i) {
    if (i == source.size() || source[i] == '\n') {
      const std::string text = source.substr(line_start, i - line_start);
      const size_t at = text.find("eafe-lint: allow(");
      if (at != std::string::npos) {
        const size_t open = text.find('(', at);
        const size_t close = text.find(')', open);
        if (close != std::string::npos) {
          std::string list = text.substr(open + 1, close - open - 1);
          std::replace(list.begin(), list.end(), ',', ' ');
          std::istringstream parts(list);
          std::string token;
          while (parts >> token) {
            AllowDirective directive;
            directive.line = line;
            directive.rule = token;
            directives.push_back(std::move(directive));
          }
        }
      }
      line_start = i + 1;
      ++line;
    }
  }
  return directives;
}

namespace {

// Unfiltered rule bodies. The public Check* wrappers below apply the
// allow() escapes; LintRepository calls these directly so it can both
// filter centrally and flag escapes that suppress nothing.

std::vector<Finding> DeterminismFindings(const std::string& path,
                                         const std::string& source) {
  // The one allowlisted seed entry point: if ambient entropy is ever
  // needed, it is read here, converted to an explicit uint64 seed, and
  // logged — never consumed anywhere else.
  if (path == "src/core/rng.cc") return {};
  static const std::unordered_set<std::string> kBanned = {
      "rand",          "srand",         "drand48",     "random_device",
      "system_clock",  "gettimeofday",  "clock_gettime"};
  const std::string stripped = StripCommentsAndStrings(source);
  std::vector<Finding> findings;
  for (const Ident& ident : Identifiers(stripped)) {
    bool bad = false;
    if (kBanned.count(ident.text) > 0) {
      bad = true;
    } else if (ident.text == "time") {
      // Bare time(...) / std::time(...) — member accesses like
      // sample.time(...) are someone else's deterministic accessor.
      bad = NextNonSpace(stripped, ident.end) == '(' && ident.prev != '.' &&
            ident.prev != '>' && ident.prev != 'a';
    }
    if (!bad) continue;
    Finding finding;
    finding.file = path;
    finding.line = ident.line;
    finding.rule = kRuleDeterminism;
    finding.message =
        "'" + ident.text +
        "' reads ambient entropy or wall-clock state; results must be "
        "bit-identical for a given seed at any --threads. Draw randomness "
        "from eafe::Rng (seeded explicitly) instead, or append "
        "'// eafe-lint: allow(determinism)' with a justification.";
    findings.push_back(std::move(finding));
  }
  return findings;
}

std::vector<Finding> RawThreadFindings(const std::string& path,
                                       const std::string& source) {
  if (path.rfind("src/runtime/", 0) == 0) return {};
  const std::string stripped = StripCommentsAndStrings(source);
  std::vector<Finding> findings;
  const std::vector<Ident> idents = Identifiers(stripped);
  for (size_t i = 0; i < idents.size(); ++i) {
    const Ident& ident = idents[i];
    std::string spelled;
    if (ident.text == "std" && i + 1 < idents.size() &&
        FollowedBy(stripped, ident.end, "::")) {
      const Ident& member = idents[i + 1];
      if (member.text == "thread" || member.text == "jthread" ||
          member.text == "async") {
        // std::thread::hardware_concurrency() is metadata, not a thread.
        if (member.text == "thread" &&
            FollowedBy(stripped, member.end, "::hardware_concurrency")) {
          continue;
        }
        spelled = "std::" + member.text;
      }
    } else if (ident.text == "pthread_create") {
      spelled = ident.text;
    }
    if (spelled.empty()) continue;
    Finding finding;
    finding.file = path;
    finding.line = ident.line;
    finding.rule = kRuleRawThread;
    finding.message =
        "'" + spelled +
        "' spawns threads outside src/runtime/. All parallelism goes "
        "through runtime::ThreadPool / runtime::ParallelFor so the TSan "
        "suite and the determinism tests cover it; use those, or append "
        "'// eafe-lint: allow(raw-thread)' with a justification.";
    findings.push_back(std::move(finding));
  }
  return findings;
}

std::vector<Finding> RawDeserializeFindings(const std::string& path,
                                            const std::string& source) {
  // serve/ is the one audited decoding layer: every read there goes
  // through the bounds-checked ByteReader, so the raw primitives stay
  // confined to files this rule's reviewers already watch.
  if (path.rfind("src/serve/", 0) == 0) return {};
  const std::string stripped = StripCommentsAndStrings(source);
  std::vector<Finding> findings;
  for (const Ident& ident : Identifiers(stripped)) {
    if (ident.text != "fread" && ident.text != "reinterpret_cast") continue;
    Finding finding;
    finding.file = path;
    finding.line = ident.line;
    finding.rule = kRuleRawDeserialize;
    finding.message =
        "'" + ident.text +
        "' decodes bytes outside src/serve/. Struct-dump IO depends on "
        "endianness and padding, and truncated or hostile input becomes "
        "undefined behaviour; route wire decoding through the "
        "bounds-checked serve/wire.h readers (std::bit_cast for in-process "
        "type punning), or append '// eafe-lint: allow(raw-deserialize)' "
        "with a justification.";
    findings.push_back(std::move(finding));
  }
  return findings;
}

std::vector<Finding> SimdFindings(const std::string& path,
                                  const std::string& source) {
  // src/simd/ is the one dispatched kernel layer: its *_avx2.cc TUs are
  // the only code compiled with -mavx2, and every kernel there has a
  // scalar mirror covered by the equivalence tests.
  if (path.rfind("src/simd/", 0) == 0) return {};
  const std::string stripped = StripCommentsAndStrings(source);
  std::vector<Finding> findings;
  for (const Ident& ident : Identifiers(stripped)) {
    // _mm_/_mm256_/_mm512_ intrinsics, __m128/__m256/__m512 vector
    // types, and the intrinsic headers (immintrin, x86intrin, emmintrin,
    // arm_neon-style *intrin names).
    const bool intrinsic =
        ident.text.rfind("_mm", 0) == 0 ||
        ident.text.rfind("__m128", 0) == 0 ||
        ident.text.rfind("__m256", 0) == 0 ||
        ident.text.rfind("__m512", 0) == 0 ||
        (ident.text.size() >= 6 &&
         ident.text.compare(ident.text.size() - 6, 6, "intrin") == 0);
    if (!intrinsic) continue;
    Finding finding;
    finding.file = path;
    finding.line = ident.line;
    finding.rule = kRuleSimd;
    finding.message =
        "'" + ident.text +
        "' is a raw SIMD intrinsic outside src/simd/. Vector code goes "
        "behind the runtime-dispatched kernels in src/simd/ (scalar "
        "fallback, EAFE_SIMD override, dispatch counters) so it stays "
        "covered by the scalar-equivalence tests; add a kernel there, or "
        "append '// eafe-lint: allow(simd)' with a justification.";
    findings.push_back(std::move(finding));
  }
  return findings;
}

std::vector<Finding> ServeSocketFindings(const std::string& path,
                                         const std::string& source) {
  // src/serve/server/ is the one audited networking layer: every fd
  // there is non-blocking, every frame bounded, and the overload and
  // robustness tests in tests/serve/ exercise exactly that code.
  if (path.rfind("src/serve/server/", 0) == 0) return {};
  static const std::unordered_set<std::string> kBanned = {
      "socket",     "bind",        "listen",      "accept",
      "accept4",    "connect",     "send",        "recv",
      "sendto",     "recvfrom",    "sendmsg",     "recvmsg",
      "setsockopt", "getsockopt",  "getsockname", "getpeername",
      "shutdown"};
  const std::string stripped = StripCommentsAndStrings(source);
  std::vector<Finding> findings;
  const std::vector<Ident> idents = Identifiers(stripped);
  for (size_t i = 0; i < idents.size(); ++i) {
    const Ident& ident = idents[i];
    if (kBanned.count(ident.text) == 0) continue;
    // Only call position fires: `send(` but not a mention of the word.
    if (NextNonSpace(stripped, ident.end) != '(') continue;
    // Member calls (client.send(...), conn->recv(...)) are someone
    // else's API, not the POSIX one.
    if (ident.prev == '.' || ident.prev == '>') continue;
    // Qualified names: `::bind(` is the POSIX call, `std::bind(` (or any
    // other namespace) is not.
    if (ident.prev == ':' && i > 0 && idents[i - 1].text != "" &&
        FollowedBy(stripped, idents[i - 1].end, "::") &&
        idents[i - 1].end < ident.begin) {
      continue;
    }
    Finding finding;
    finding.file = path;
    finding.line = ident.line;
    finding.rule = kRuleServeSocket;
    finding.message =
        "'" + ident.text +
        "' touches the raw socket surface outside src/serve/server/. "
        "Networking lives behind EafeServer / BlockingClient there — "
        "non-blocking fds, bounded frames, admission control, covered by "
        "the serve robustness tests; use those, or append "
        "'// eafe-lint: allow(serve-socket)' with a justification.";
    findings.push_back(std::move(finding));
  }
  return findings;
}

std::vector<Finding> CondvarPredicateFindings(const std::string& path,
                                              const std::string& source) {
  // Only the two directories that wait on condition variables are in
  // scope; a future.wait() in src/afe/ is a different API and fine.
  const bool in_scope = path.rfind("src/runtime/", 0) == 0 ||
                        path.rfind("src/serve/server/", 0) == 0;
  if (!in_scope) return {};
  const std::string stripped = StripCommentsAndStrings(source);
  std::vector<Finding> findings;
  for (const Ident& ident : Identifiers(stripped)) {
    if (ident.text != "wait" && ident.text != "wait_for" &&
        ident.text != "wait_until") {
      continue;
    }
    // Member-call position only: `cv.wait(` / `cv_->wait(`.
    if (!IsMemberAccess(stripped, ident)) continue;
    const size_t open = NextNonSpacePos(stripped, ident.end);
    if (open >= stripped.size() || stripped[open] != '(') continue;
    const std::optional<size_t> args = CountCallArgs(stripped, open);
    if (!args.has_value()) continue;  // truncated source; not this rule's job
    // Predicate overloads carry one extra argument: wait(lock, pred),
    // wait_for(lock, dur, pred). Zero-arg wait() is std::future's.
    const bool bad = ident.text == "wait" ? *args == 1 : *args == 2;
    if (!bad) continue;
    Finding finding;
    finding.file = path;
    finding.line = ident.line;
    finding.rule = kRuleCondvarPredicate;
    finding.message =
        "'" + ident.text + "' with " + std::to_string(*args) +
        " argument(s) waits without a predicate. A bare condition-variable "
        "wait is the lost-/spurious-wakeup class TSan cannot see; use the "
        "predicate overload (cv." + ident.text +
        "(lock, ..., [&]{ return <condition>; })) so the condition is "
        "re-checked under the lock on every wakeup, or append "
        "'// eafe-lint: allow(condvar-predicate)' with a justification.";
    findings.push_back(std::move(finding));
  }
  return findings;
}

std::vector<Finding> NakedLockFindings(const std::string& path,
                                       const std::string& source) {
  // src/runtime/ is the one audited home for manual lock juggling (its
  // queue fast paths drop the lock before notifying, under TSan).
  if (path.rfind("src/", 0) != 0 || path.rfind("src/runtime/", 0) == 0) {
    return {};
  }
  const std::string stripped = StripCommentsAndStrings(source);
  std::vector<Finding> findings;
  for (const Ident& ident : Identifiers(stripped)) {
    if (ident.text != "lock" && ident.text != "unlock") continue;
    // Member-call position only: `m.lock()` / `mu_->unlock()`. The free
    // std::lock(a, b), type names (std::unique_lock), and declarations
    // like `std::lock_guard<std::mutex> lock(mu_)` do not fire.
    if (!IsMemberAccess(stripped, ident)) continue;
    if (NextNonSpace(stripped, ident.end) != '(') continue;
    Finding finding;
    finding.file = path;
    finding.line = ident.line;
    finding.rule = kRuleNakedLock;
    finding.message =
        "bare '." + ident.text +
        "()' outside src/runtime/: an early return or exception between "
        "lock() and unlock() leaks the mutex held forever. Hold locks "
        "through RAII guards (std::lock_guard, std::unique_lock, "
        "std::scoped_lock) that release on every exit path, or append "
        "'// eafe-lint: allow(naked-lock)' with a justification.";
    findings.push_back(std::move(finding));
  }
  return findings;
}

}  // namespace

std::vector<Finding> CheckDeterminism(const std::string& path,
                                      const std::string& source) {
  return FilterAllowed(DeterminismFindings(path, source), source);
}

std::vector<Finding> CheckRawThreads(const std::string& path,
                                     const std::string& source) {
  return FilterAllowed(RawThreadFindings(path, source), source);
}

std::vector<Finding> CheckRawDeserialize(const std::string& path,
                                         const std::string& source) {
  return FilterAllowed(RawDeserializeFindings(path, source), source);
}

std::vector<Finding> CheckSimdIntrinsics(const std::string& path,
                                         const std::string& source) {
  return FilterAllowed(SimdFindings(path, source), source);
}

std::vector<Finding> CheckServeSockets(const std::string& path,
                                       const std::string& source) {
  return FilterAllowed(ServeSocketFindings(path, source), source);
}

std::vector<Finding> CheckCondvarPredicate(const std::string& path,
                                           const std::string& source) {
  return FilterAllowed(CondvarPredicateFindings(path, source), source);
}

std::vector<Finding> CheckNakedLocks(const std::string& path,
                                     const std::string& source) {
  return FilterAllowed(NakedLockFindings(path, source), source);
}

std::vector<Finding> CheckMetricRegistry(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const std::string& readme) {
  const auto is_metric_name = [](const std::string& text) {
    if (text.rfind("eafe_", 0) != 0) return false;
    for (const char c : text) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_';
      if (!ok) return false;
    }
    return true;
  };

  std::vector<Finding> findings;
  const std::string* registry = nullptr;
  for (const auto& [path, content] : sources) {
    if (path == kMetricRegistryPath) registry = &content;
  }
  if (registry == nullptr) {
    Finding finding;
    finding.file = kMetricRegistryPath;
    finding.rule = kRuleMetricRegistry;
    finding.message =
        "metric registry header is missing; every eafe_* metric-name "
        "literal in src/ must be declared there exactly once.";
    findings.push_back(std::move(finding));
    return findings;
  }

  // Registered names, first-declaration line, duplicate declarations.
  std::map<std::string, size_t> registered;  // name -> first line
  for (const StringLiteral& literal : ExtractStringLiterals(*registry)) {
    if (!is_metric_name(literal.text)) continue;
    const auto [it, inserted] = registered.insert({literal.text, literal.line});
    if (!inserted) {
      Finding finding;
      finding.file = kMetricRegistryPath;
      finding.line = literal.line;
      finding.rule = kRuleMetricRegistry;
      finding.message = "metric name '" + literal.text +
                        "' is registered twice (first at line " +
                        std::to_string(it->second) +
                        "); the registry declares each name exactly once.";
      findings.push_back(std::move(finding));
    }
  }

  // Uses across the scanned sources.
  std::set<std::string> used;
  for (const auto& [path, content] : sources) {
    if (path == kMetricRegistryPath) continue;
    for (const StringLiteral& literal : ExtractStringLiterals(content)) {
      if (!is_metric_name(literal.text)) continue;
      used.insert(literal.text);
      if (registered.count(literal.text) > 0) continue;
      Finding finding;
      finding.file = path;
      finding.line = literal.line;
      finding.rule = kRuleMetricRegistry;
      finding.message =
          "metric literal \"" + literal.text +
          "\" is not declared in " + kMetricRegistryPath +
          ". Every eafe_* metric name is registered there exactly once "
          "(and documented in README.md) so operators can enumerate the "
          "observability surface without grepping; add it, or append "
          "'// eafe-lint: allow(metric-registry)' with a justification.";
      findings.push_back(std::move(finding));
    }
  }

  for (const auto& [name, line] : registered) {
    if (readme.find(name) == std::string::npos) {
      Finding finding;
      finding.file = kMetricRegistryPath;
      finding.line = line;
      finding.rule = kRuleMetricRegistry;
      finding.message =
          "registered metric '" + name +
          "' is not documented in README.md; the metrics table there must "
          "cover every registry entry (docs drift is exactly what this "
          "rule exists to stop).";
      findings.push_back(std::move(finding));
    }
    if (used.count(name) == 0) {
      Finding finding;
      finding.file = kMetricRegistryPath;
      finding.line = line;
      finding.rule = kRuleMetricRegistry;
      finding.message =
          "registered metric '" + name +
          "' is used by no literal in the scanned sources; delete the "
          "stale registry entry (or the code that should publish it).";
      findings.push_back(std::move(finding));
    }
  }
  return findings;
}

std::vector<Finding> CheckUnusedSuppressions(
    const std::string& path, const std::string& source,
    const std::vector<Finding>& unsuppressed) {
  static const std::vector<std::string> kKnown = AllRuleIds();
  std::vector<Finding> findings;
  for (const AllowDirective& directive : ParseAllowDirectives(source)) {
    if (std::find(kKnown.begin(), kKnown.end(), directive.rule) ==
        kKnown.end()) {
      Finding finding;
      finding.file = path;
      finding.line = directive.line;
      finding.rule = kRuleUnusedSuppression;
      finding.message = "allow(" + directive.rule +
                        ") names no known rule (see --list-rules); a typo "
                        "here suppresses nothing and hides the intent.";
      findings.push_back(std::move(finding));
      continue;
    }
    bool suppresses = false;
    for (const Finding& finding : unsuppressed) {
      if (finding.line == directive.line && finding.rule == directive.rule) {
        suppresses = true;
        break;
      }
    }
    if (suppresses) continue;
    Finding finding;
    finding.file = path;
    finding.line = directive.line;
    finding.rule = kRuleUnusedSuppression;
    finding.message =
        "allow(" + directive.rule +
        ") suppresses nothing on this line; stale escapes silently bless "
        "future violations, so delete the directive (re-add it with a "
        "justification if the violation ever returns).";
    findings.push_back(std::move(finding));
  }
  return findings;
}

std::vector<TestRegistration> ParseTestRegistrations(
    const std::string& cmake_source) {
  // Blank out # comments (CMake has no block comments we use).
  std::string text = cmake_source;
  bool in_comment = false;
  for (char& c : text) {
    if (c == '\n') {
      in_comment = false;
    } else if (c == '#') {
      in_comment = true;
    }
    if (in_comment) c = ' ';
  }

  std::vector<TestRegistration> tests;
  size_t line = 1;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++line;
      continue;
    }
    if (text.compare(i, 14, "eafe_add_test(") != 0 ||
        (i > 0 && IsIdentChar(text[i - 1]))) {
      continue;
    }
    TestRegistration test;
    test.line = line;
    size_t pos = i + 14;
    size_t depth = 1;
    std::vector<std::string> tokens;
    std::string current;
    bool quoted = false;
    size_t token_line = line;
    for (; pos < text.size() && depth > 0; ++pos) {
      const char c = text[pos];
      if (c == '\n') ++token_line;
      if (quoted) {
        if (c == '"') {
          quoted = false;
          tokens.push_back(current);
          current.clear();
        } else {
          current += c;
        }
        continue;
      }
      if (c == '"') {
        quoted = true;
      } else if (c == '(') {
        ++depth;
      } else if (c == ')') {
        --depth;
      } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        if (!current.empty()) {
          tokens.push_back(current);
          current.clear();
        }
      } else {
        current += c;
      }
    }
    if (!current.empty()) tokens.push_back(current);
    enum class Mode { kName, kNone, kLabels, kSources };
    Mode mode = Mode::kName;
    for (const std::string& token : tokens) {
      if (token == "LABELS") {
        mode = Mode::kLabels;
      } else if (token == "SOURCES") {
        mode = Mode::kSources;
      } else if (mode == Mode::kName) {
        test.name = token;
        mode = Mode::kNone;
      } else if (mode == Mode::kLabels) {
        // Quoted label lists use CMake's ';' separator: "ml;tsan".
        std::string labels = token;
        std::replace(labels.begin(), labels.end(), ';', ' ');
        std::istringstream parts(labels);
        std::string label;
        while (parts >> label) test.labels.push_back(label);
      } else if (mode == Mode::kSources) {
        test.sources.push_back(token);
      }
    }
    tests.push_back(std::move(test));
    line = token_line;
    i = pos - 1;
  }
  return tests;
}

std::vector<Finding> CheckTestLabels(
    const std::vector<TestRegistration>& tests,
    const std::function<std::optional<std::string>(const std::string&)>&
        read_source) {
  static const std::vector<std::string> kConcurrencyTokens = {
      "ParallelFor", "ThreadPool", "EvalService", "SearchStepPipeline"};
  std::vector<Finding> findings;
  for (const TestRegistration& test : tests) {
    if (test.labels.empty()) {
      Finding finding;
      finding.file = "tests/CMakeLists.txt";
      finding.line = test.line;
      finding.rule = kRuleTestLabels;
      finding.message =
          "eafe_add_test(" + test.name +
          ") carries no LABELS; labels drive suite selection in "
          "tools/check.sh (e.g. LABELS ml, or \"ml;tsan\").";
      findings.push_back(std::move(finding));
    }
    const bool has_tsan =
        std::find(test.labels.begin(), test.labels.end(), "tsan") !=
        test.labels.end();
    if (has_tsan) continue;
    for (const std::string& source_path : test.sources) {
      const std::optional<std::string> source = read_source(source_path);
      if (!source.has_value()) {
        Finding finding;
        finding.file = "tests/CMakeLists.txt";
        finding.line = test.line;
        finding.rule = kRuleTestLabels;
        finding.message = "eafe_add_test(" + test.name +
                          ") lists unreadable source '" + source_path + "'.";
        findings.push_back(std::move(finding));
        continue;
      }
      const std::string stripped = StripCommentsAndStrings(*source);
      std::string hit;
      for (const Ident& ident : Identifiers(stripped)) {
        if (std::find(kConcurrencyTokens.begin(), kConcurrencyTokens.end(),
                      ident.text) != kConcurrencyTokens.end()) {
          hit = ident.text;
          break;
        }
      }
      if (hit.empty()) continue;
      Finding finding;
      finding.file = "tests/CMakeLists.txt";
      finding.line = test.line;
      finding.rule = kRuleTestLabels;
      finding.message =
          "eafe_add_test(" + test.name + "): source '" + source_path +
          "' references " + hit +
          " but the test is not labeled `tsan`; the ThreadSanitizer suite "
          "discovers its targets by that label, so this test would never "
          "run under TSan. Add LABELS \"...;tsan\".";
      findings.push_back(std::move(finding));
      break;  // one finding per test is enough to point at the fix
    }
  }
  return findings;
}

std::optional<std::vector<Finding>> LintRepository(const std::string& root,
                                                   std::string* error) {
  const fs::path base(root);
  const fs::path src = base / "src";
  const fs::path tests_cmake = base / "tests" / "CMakeLists.txt";
  const fs::path layers_spec = base / "tools" / "lint" / "layers.spec";
  const fs::path architecture = base / "docs" / "ARCHITECTURE.md";
  const fs::path readme = base / "README.md";
  for (const fs::path& anchor :
       {src, tests_cmake, layers_spec, architecture, readme}) {
    if (!fs::exists(anchor)) {
      if (error != nullptr) {
        *error = "not a lintable eafe checkout: missing " + anchor.string() +
                 " (pass --root <repo>)";
      }
      return std::nullopt;
    }
  }

  // The whole C++ tree as repo-relative path -> content; std::map keeps
  // iteration (and therefore finding order) deterministic.
  std::map<std::string, std::string> tree;
  for (const char* dir : {"src", "tools", "tests", "bench", "examples"}) {
    const fs::path sub = base / dir;
    if (!fs::exists(sub)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(sub)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      std::optional<std::string> source = ReadFile(entry.path());
      if (!source.has_value()) {
        if (error != nullptr) {
          *error = "unreadable file: " + entry.path().string();
        }
        return std::nullopt;
      }
      tree[fs::relative(entry.path(), base).generic_string()] =
          *std::move(source);
    }
  }

  // Unfiltered findings grouped per file, so the escape filter and the
  // unused-suppression scan work from the same set.
  std::map<std::string, std::vector<Finding>> per_file;
  const auto add = [&per_file](std::vector<Finding> found) {
    for (Finding& finding : found) {
      per_file[finding.file].push_back(std::move(finding));
    }
  };

  // Per-file token rules over src/.
  for (const auto& [path, content] : tree) {
    if (path.rfind("src/", 0) != 0) continue;
    add(DeterminismFindings(path, content));
    add(RawThreadFindings(path, content));
    add(RawDeserializeFindings(path, content));
    add(SimdFindings(path, content));
    add(ServeSocketFindings(path, content));
    add(CondvarPredicateFindings(path, content));
    add(NakedLockFindings(path, content));
  }

  // Metric registry over src/ literals + README coverage.
  {
    std::vector<std::pair<std::string, std::string>> sources;
    for (const auto& [path, content] : tree) {
      if (path.rfind("src/", 0) == 0) sources.emplace_back(path, content);
    }
    const std::optional<std::string> readme_text = ReadFile(readme);
    if (!readme_text.has_value()) {
      if (error != nullptr) *error = "unreadable file: " + readme.string();
      return std::nullopt;
    }
    add(CheckMetricRegistry(sources, *readme_text));
  }

  // Include-graph rules: cycles, layering, spec/doc cross-check.
  const std::optional<std::string> spec_text = ReadFile(layers_spec);
  const std::optional<std::string> architecture_text = ReadFile(architecture);
  if (!spec_text.has_value() || !architecture_text.has_value()) {
    if (error != nullptr) *error = "unreadable layers.spec/ARCHITECTURE.md";
    return std::nullopt;
  }
  std::string spec_error;
  const std::optional<LayerSpec> spec =
      ParseLayerSpec(*spec_text, &spec_error);
  if (!spec.has_value()) {
    if (error != nullptr) {
      *error = "tools/lint/layers.spec: " + spec_error;
    }
    return std::nullopt;
  }
  const IncludeGraph graph = BuildIncludeGraph(tree);
  add(CheckIncludeCycles(graph));
  add(CheckLayering(graph, *spec));
  add(CheckLayerSpecMatchesArchitectureDoc(*spec, *architecture_text));

  // Apply allow() escapes centrally, file by file. Findings anchored in
  // non-C++ files (README, layers.spec, ARCHITECTURE.md) have no escape
  // syntax and pass through unfiltered.
  std::vector<Finding> findings;
  for (const auto& [file, found] : per_file) {
    const auto it = tree.find(file);
    std::vector<Finding> kept =
        it == tree.end() ? found : FilterAllowed(found, it->second);
    findings.insert(findings.end(),
                    std::make_move_iterator(kept.begin()),
                    std::make_move_iterator(kept.end()));
  }

  // Stale-escape scan, src/ only: tools/lint's own sources and tests
  // spell the directive inside string literals, which the line-oriented
  // directive parser cannot tell from a real escape.
  for (const auto& [path, content] : tree) {
    if (path.rfind("src/", 0) != 0) continue;
    static const std::vector<Finding> kNoFindings;
    const auto it = per_file.find(path);
    const std::vector<Finding>& unsuppressed =
        it == per_file.end() ? kNoFindings : it->second;
    std::vector<Finding> stale =
        CheckUnusedSuppressions(path, content, unsuppressed);
    findings.insert(findings.end(),
                    std::make_move_iterator(stale.begin()),
                    std::make_move_iterator(stale.end()));
  }

  // Test-label rule over tests/CMakeLists.txt.
  const std::optional<std::string> cmake_source = ReadFile(tests_cmake);
  if (!cmake_source.has_value()) {
    if (error != nullptr) *error = "unreadable file: " + tests_cmake.string();
    return std::nullopt;
  }
  std::vector<Finding> label_findings = CheckTestLabels(
      ParseTestRegistrations(*cmake_source),
      [&base](const std::string& path) {
        return ReadFile(base / "tests" / path);
      });
  findings.insert(findings.end(),
                  std::make_move_iterator(label_findings.begin()),
                  std::make_move_iterator(label_findings.end()));

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

}  // namespace eafe::lint
