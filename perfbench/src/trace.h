// In-memory span tracer for the benchmark's traced runs.
//
// A span is (name, start, end, parent) plus optional numeric attributes
// (counts, bytes) recorded at the same boundary. Spans are opened around
// the benchmark's own calls into each library layer; nothing inside the
// library is instrumented. When tracing is off, Begin/End/Attr are a
// branch on one flag, so untraced runs time the same code path.
//
// Span names are "<layer>.<what>", e.g. "core.fixed_window.round". The
// layer is the text before the first dot; Summary() charges each span's
// self time (its duration minus the part its children cover) to it.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

int64_t NowNs();

class Trace {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;  ///< -1 while open
    int parent = -1;      ///< index of the enclosing span, -1 at the root
    std::vector<std::pair<std::string, double>> attrs;
  };

  static Trace& Get();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when tracing is off.
  int Begin(const char* name);
  void End(int id);
  /// Attaches `key = value` to span `id` (ignored for -1).
  void Attr(int id, const char* key, double value);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in milliseconds of every closed span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Every value of attribute `key` on spans called `name`.
  std::vector<double> AttrValues(const std::string& name,
                                 const std::string& key) const;
  /// Self seconds per layer (prefix before the first '.').
  std::map<std::string, double> LayerSelfSeconds() const;

  /// Writes every span as one JSON document to `path`.
  bool Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction or Close().
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(Trace::Get().Begin(name)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Attr(const char* key, double value) {
    Trace::Get().Attr(id_, key, value);
  }
  void Close() {
    if (!closed_) Trace::Get().End(id_);
    closed_ = true;
  }

 private:
  int id_;
  bool closed_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
