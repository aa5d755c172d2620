#include "core/flags.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "core/check.h"
#include "core/string_util.h"

namespace eafe {

FlagParser& FlagParser::AddString(const std::string& name,
                                  const std::string& def,
                                  const std::string& help) {
  EAFE_CHECK(!flags_.count(name));
  flags_[name] = {Type::kString, def, help};
  order_.push_back(name);
  return *this;
}

FlagParser& FlagParser::AddInt(const std::string& name, int64_t def,
                               const std::string& help, int64_t min,
                               int64_t max) {
  EAFE_CHECK(!flags_.count(name));
  EAFE_CHECK(min <= def && def <= max);
  flags_[name] = {Type::kInt, std::to_string(def), help, min, max};
  order_.push_back(name);
  return *this;
}

FlagParser& FlagParser::AddDouble(const std::string& name, double def,
                                  const std::string& help) {
  EAFE_CHECK(!flags_.count(name));
  flags_[name] = {Type::kDouble, StrFormat("%g", def), help};
  order_.push_back(name);
  return *this;
}

FlagParser& FlagParser::AddBool(const std::string& name, bool def,
                                const std::string& help) {
  EAFE_CHECK(!flags_.count(name));
  flags_[name] = {Type::kBool, def ? "true" : "false", help};
  order_.push_back(name);
  return *this;
}

FlagParser& FlagParser::AddThreads() {
  const int64_t hardware = std::max<int64_t>(
      static_cast<int64_t>(std::thread::hardware_concurrency()), 1);
  return AddInt("threads", hardware,
                "worker threads for evaluation/CV/forest parallelism "
                "(1 = serial)",
                1);
}

Status FlagParser::SetValue(const std::string& name,
                            const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  switch (it->second.type) {
    case Type::kInt: {
      auto parsed = ParseInt(value);
      if (!parsed.ok()) return parsed.status();
      const Flag& flag = it->second;
      if (*parsed < flag.min || *parsed > flag.max) {
        return Status::InvalidArgument(
            flag.max == std::numeric_limits<int64_t>::max()
                ? StrFormat("flag --%s must be >= %lld, got %s",
                            name.c_str(), static_cast<long long>(flag.min),
                            value.c_str())
                : StrFormat("flag --%s must be in [%lld, %lld], got %s",
                            name.c_str(), static_cast<long long>(flag.min),
                            static_cast<long long>(flag.max),
                            value.c_str()));
      }
      break;
    }
    case Type::kDouble: {
      auto parsed = ParseDouble(value);
      if (!parsed.ok()) return parsed.status();
      break;
    }
    case Type::kBool: {
      const std::string lower = ToLower(value);
      if (lower != "true" && lower != "false" && lower != "1" &&
          lower != "0") {
        return Status::InvalidArgument("flag --" + name +
                                       " expects true/false, got " + value);
      }
      break;
    }
    case Type::kString:
      break;
  }
  it->second.value = value;
  return Status::OK();
}

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage(argv[0]).c_str(), stdout);
      return Status::NotFound("help requested");
    }
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      EAFE_RETURN_NOT_OK(SetValue(arg.substr(0, eq), arg.substr(eq + 1)));
      continue;
    }
    auto it = flags_.find(arg);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + arg);
    }
    if (it->second.type == Type::kBool) {
      it->second.value = "true";
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag --" + arg + " needs a value");
    }
    EAFE_RETURN_NOT_OK(SetValue(arg, argv[++i]));
  }
  return Status::OK();
}

std::string FlagParser::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  EAFE_CHECK(it != flags_.end());
  return it->second.value;
}

int64_t FlagParser::GetInt(const std::string& name) const {
  auto it = flags_.find(name);
  EAFE_CHECK(it != flags_.end() && it->second.type == Type::kInt);
  return ParseInt(it->second.value).ValueOrDie();
}

double FlagParser::GetDouble(const std::string& name) const {
  auto it = flags_.find(name);
  EAFE_CHECK(it != flags_.end() && it->second.type == Type::kDouble);
  return ParseDouble(it->second.value).ValueOrDie();
}

bool FlagParser::GetBool(const std::string& name) const {
  auto it = flags_.find(name);
  EAFE_CHECK(it != flags_.end() && it->second.type == Type::kBool);
  const std::string lower = ToLower(it->second.value);
  return lower == "true" || lower == "1";
}

std::string FlagParser::Usage(const std::string& program) const {
  std::string usage = "Usage: " + program + " [flags]\n";
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(name);
    usage += StrFormat("  --%-24s %s (default: %s)\n", name.c_str(),
                       flag.help.c_str(), flag.value.c_str());
  }
  return usage;
}

}  // namespace eafe
