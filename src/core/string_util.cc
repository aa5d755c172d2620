#include "core/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace eafe {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += separator;
    out += parts[i];
  }
  return out;
}

Result<double> ParseDouble(std::string_view token) {
  const std::string buffer(Trim(token));
  if (buffer.empty()) {
    return Status::InvalidArgument("empty token is not a double");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  // strtod sets ERANGE on underflow too, but then returns the nearest
  // double (subnormal or ±0), which is what the text means; only overflow
  // (±HUGE_VAL) is out of range.
  const bool underflow = errno == ERANGE && !std::isinf(value);
  if ((errno != 0 && !underflow) || end != buffer.c_str() + buffer.size()) {
    return Status::InvalidArgument("cannot parse double: '" + buffer + "'");
  }
  return value;
}

Result<int64_t> ParseInt(std::string_view token) {
  const std::string buffer(Trim(token));
  if (buffer.empty()) {
    return Status::InvalidArgument("empty token is not an integer");
  }
  errno = 0;
  char* end = nullptr;
  const int64_t value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno != 0 || end != buffer.c_str() + buffer.size()) {
    return Status::InvalidArgument("cannot parse integer: '" + buffer + "'");
  }
  return value;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return out;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace eafe
