#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "core/stats.h"

namespace eafe::e2e {

std::string_view Span::layer() const {
  const std::string_view view(name);
  return view.substr(0, view.find('.'));
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

uint64_t SpanRecorder::Begin(std::string_view name, uint64_t parent,
                             uint64_t item) {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = threads_.emplace(
      std::this_thread::get_id(), static_cast<uint32_t>(threads_.size()));
  (void)inserted;
  Span span;
  span.name = std::string(name);
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.item = item;
  span.thread = it->second;
  span.start_us = now;
  span.end_us = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_us = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    const auto parent = index.find(span.parent);
    if (span.parent == 0 || parent == index.end()) continue;
    children[parent->second].emplace_back(span.start_us, span.end_us);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    bool open = false;
    for (auto [start, end] : intervals) {
      start = std::max(start, span.start_us);
      end = std::min(end, span.end_us);
      if (end <= start) continue;
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = std::max(0.0, span.duration_us() - covered);
  }
  return self;
}

std::map<std::string, double> LayerBusySeconds(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesUs(spans);
  std::map<std::string, double> busy;
  for (size_t i = 0; i < spans.size(); ++i) {
    busy[std::string(spans[i].layer())] += self[i] * 1e-6;
  }
  return busy;
}

std::vector<Span> SpansUnder(const std::vector<Span>& spans,
                             std::string_view root_name) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<Span> out;
  for (const Span& span : spans) {
    const Span* root = &span;
    while (root->parent != 0) {
      const auto it = index.find(root->parent);
      if (it == index.end()) break;
      root = &spans[it->second];
    }
    if (root->name == root_name) out.push_back(span);
  }
  return out;
}

double UnattributedFraction(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesUs(spans);
  double total = 0.0;
  double unattributed = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) continue;
    total += spans[i].duration_us();
    unattributed += self[i];
  }
  return total > 0.0 ? unattributed / total : 0.0;
}

double MedianDurationUs(const std::vector<Span>& spans,
                        std::string_view name) {
  std::vector<double> durations;
  for (const Span& span : spans) {
    if (span.name == name) durations.push_back(span.duration_us());
  }
  return stats::Median(std::move(durations));
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char numbers[160];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (i > 0) out += ',';
    out += "\n{\"name\":\"" + JsonEscape(span.name) + "\",\"cat\":\"" +
           JsonEscape(span.layer()) + "\",\"ph\":\"X\",\"pid\":1,";
    std::snprintf(numbers, sizeof(numbers),
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"item\":%llu}}",
                  span.thread, span.start_us, span.duration_us(),
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.item));
    out += numbers;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace eafe::e2e
