#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Trace& Trace::Get() {
  static Trace trace;
  return trace;
}

int Trace::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(id);
  // Stamp last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = NowNs();
  return id;
}

void Trace::End(int id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  spans_[static_cast<size_t>(id)].end_ns = now;
  // Spans close innermost-first; tolerate an out-of-order close by
  // dropping everything opened after `id`.
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

void Trace::Attr(int id, const char* key, double value) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].attrs.emplace_back(key, value);
}

std::vector<double> Trace::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::vector<double> Trace::AttrValues(const std::string& name,
                                      const std::string& key) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    for (const auto& [k, v] : s.attrs) {
      if (k == key) out.push_back(v);
    }
  }
  return out;
}

std::map<std::string, double> Trace::LayerSelfSeconds() const {
  // Children close before their parent and never overlap one another
  // (one thread), so a parent's covered time is the sum of its children.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
  }
  return out;
}

bool Trace::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(17) << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent;
    if (!s.attrs.empty()) {
      out << ", \"attrs\": {";
      for (size_t a = 0; a < s.attrs.size(); ++a) {
        out << (a ? ", " : "") << "\"" << s.attrs[a].first
            << "\": " << s.attrs[a].second;
      }
      out << "}";
    }
    out << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
