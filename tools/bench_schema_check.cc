// bench_schema_check — schema gate for the committed BENCH_*.json
// snapshots (and the ones CI regenerates):
//
//   bench_schema_check BENCH_simd.json BENCH_tree.json ...
//
// Each file must be non-empty JSONL: every line one flat JSON object —
// string keys, scalar values (string / finite number / bool), no
// nesting, no duplicate keys. Every line must carry an identity key
// ("bench" or "task") and at least one timing key ("seconds",
// "fit_seconds" or "wall_seconds"). BENCH_serve.json lines must
// additionally carry "qps", "p50_ms" and "p99_ms" — the keys the
// roadmap's serving story is tracked by — and BENCH_pipeline.json lines
// must carry "sync_seconds", "async_seconds" and "speedup", the keys
// the pipelined-search scalability gate compares. "simd_minhash" lines
// in BENCH_simd.json must carry "scheme", "level", "kernel"
// ("full_scan" or "pruned") and "speedup_vs_oracle" — each argmin
// variant is timed against the scalar full scan it must match. The
// parser is
// deliberately in-tree and dependency-free, like everything else here.
//
// Runs inside the lint suite (ctest label `lint`) and again in the
// serve suite after eafe_loadgen appends a fresh line.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace eafe::tools {
namespace {

/// Minimal parser for one flat JSON object line. Fills `keys` (and
/// `strings` with the string-valued entries) and returns an empty
/// string on success, else the error description.
std::string ParseFlatObject(const std::string& line,
                            std::set<std::string>* keys,
                            std::map<std::string, std::string>* strings) {
  size_t i = 0;
  const auto skip_space = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(
                                  line[i])) != 0) {
      ++i;
    }
  };
  const auto parse_string = [&](std::string* out) -> bool {
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    out->clear();
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        ++i;
        if (i >= line.size()) return false;
        switch (line[i]) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          default: return false;  // exotic escapes don't belong here
        }
      } else {
        out->push_back(line[i]);
      }
      ++i;
    }
    if (i >= line.size()) return false;
    ++i;  // closing quote
    return true;
  };
  const auto parse_number = [&]() -> bool {
    const size_t begin = i;
    if (i < line.size() && (line[i] == '-' || line[i] == '+')) ++i;
    bool digits = false;
    while (i < line.size() &&
           (std::isdigit(static_cast<unsigned char>(line[i])) != 0 ||
            line[i] == '.' || line[i] == 'e' || line[i] == 'E' ||
            line[i] == '-' || line[i] == '+')) {
      digits = digits ||
               std::isdigit(static_cast<unsigned char>(line[i])) != 0;
      ++i;
    }
    if (!digits) return false;
    const double value = std::strtod(line.c_str() + begin, nullptr);
    return std::isfinite(value);  // "nan"/"inf" never parse this far
  };

  skip_space();
  if (i >= line.size() || line[i] != '{') return "line is not an object";
  ++i;
  skip_space();
  if (i < line.size() && line[i] == '}') {
    return "object carries no keys";
  }
  for (;;) {
    skip_space();
    std::string key;
    if (!parse_string(&key)) return "expected a quoted key";
    if (!keys->insert(key).second) return "duplicate key: " + key;
    skip_space();
    if (i >= line.size() || line[i] != ':') {
      return "missing ':' after key " + key;
    }
    ++i;
    skip_space();
    std::string value;
    if (i < line.size() && line[i] == '"') {
      if (!parse_string(&value)) {
        return "unterminated string value for " + key;
      }
      (*strings)[key] = value;
    } else if (line.compare(i, 4, "true") == 0) {
      i += 4;
    } else if (line.compare(i, 5, "false") == 0) {
      i += 5;
    } else if (i < line.size() && (line[i] == '{' || line[i] == '[')) {
      return "nested value for " + key + " (bench lines must stay flat)";
    } else if (!parse_number()) {
      return "value for " + key + " is not a finite scalar";
    }
    skip_space();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  if (i >= line.size() || line[i] != '}') return "missing closing '}'";
  ++i;
  skip_space();
  if (i != line.size()) return "trailing bytes after the object";
  return "";
}

bool HasAny(const std::set<std::string>& keys,
            const std::vector<std::string>& any) {
  for (const std::string& key : any) {
    if (keys.count(key) > 0) return true;
  }
  return false;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Returns the number of problems found in one file.
int CheckFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return 1;
  }
  const std::string base = Basename(path);
  int problems = 0;
  int lines = 0;
  std::string line;
  int line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    if (line.empty()) continue;
    ++lines;
    std::set<std::string> keys;
    std::map<std::string, std::string> strings;
    const std::string error = ParseFlatObject(line, &keys, &strings);
    if (!error.empty()) {
      std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), line_number,
                   error.c_str());
      ++problems;
      continue;
    }
    if (!HasAny(keys, {"bench", "task"})) {
      std::fprintf(stderr,
                   "%s:%d: no identity key (\"bench\" or \"task\")\n",
                   path.c_str(), line_number);
      ++problems;
    }
    if (!HasAny(keys,
                {"seconds", "seconds_per_call", "fit_seconds",
                 "wall_seconds"})) {
      std::fprintf(stderr, "%s:%d: no timing key\n", path.c_str(),
                   line_number);
      ++problems;
    }
    if (base == "BENCH_serve.json") {
      for (const char* required : {"qps", "p50_ms", "p99_ms"}) {
        if (keys.count(required) == 0) {
          std::fprintf(stderr, "%s:%d: serve line misses \"%s\"\n",
                       path.c_str(), line_number, required);
          ++problems;
        }
      }
    }
    if (base == "BENCH_simd.json" && strings["bench"] == "simd_minhash") {
      for (const char* required :
           {"scheme", "level", "kernel", "speedup_vs_oracle"}) {
        if (keys.count(required) == 0) {
          std::fprintf(stderr, "%s:%d: simd_minhash line misses \"%s\"\n",
                       path.c_str(), line_number, required);
          ++problems;
        }
      }
      const std::string& kernel = strings["kernel"];
      if (keys.count("kernel") > 0 && kernel != "full_scan" &&
          kernel != "pruned") {
        std::fprintf(stderr,
                     "%s:%d: simd_minhash kernel \"%s\" is neither "
                     "\"full_scan\" nor \"pruned\"\n",
                     path.c_str(), line_number, kernel.c_str());
        ++problems;
      }
    }
    if (base == "BENCH_pipeline.json") {
      for (const char* required :
           {"sync_seconds", "async_seconds", "speedup"}) {
        if (keys.count(required) == 0) {
          std::fprintf(stderr, "%s:%d: pipeline line misses \"%s\"\n",
                       path.c_str(), line_number, required);
          ++problems;
        }
      }
    }
  }
  if (lines == 0) {
    std::fprintf(stderr, "%s: no bench lines\n", path.c_str());
    ++problems;
  }
  return problems;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: bench_schema_check BENCH_a.json [BENCH_b.json "
                 "...]\n");
    return 2;
  }
  int problems = 0;
  for (int i = 1; i < argc; ++i) problems += CheckFile(argv[i]);
  if (problems > 0) {
    std::fprintf(stderr, "bench_schema_check: %d problem%s\n", problems,
                 problems == 1 ? "" : "s");
    return 1;
  }
  std::printf("bench_schema_check: %d file%s ok\n", argc - 1,
              argc - 1 == 1 ? "" : "s");
  return 0;
}

}  // namespace
}  // namespace eafe::tools

int main(int argc, char** argv) { return eafe::tools::Main(argc, argv); }
