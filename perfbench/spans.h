// In-memory span recorder for the benchmark's traced mode.
//
// The benchmark times each layer from outside: it opens a span around every
// public call the feedback loop makes into the storage, optimizer, core,
// exec, sql and obs modules. A span records its name, start, end, the span
// that was open when it began (its parent) and the query id shared by one
// loop call's spans. Spans stay in memory until the run ends; a layer's
// self time is its span's duration minus the time its child spans cover.
// Single-threaded by design: every traced call is made from the driver
// thread (the engine's own worker threads are inside those calls).

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t query = 0;
  };

  /// Tags the spans opened from now on with `query` (0 = no query).
  void set_query(uint64_t query) { query_ = query; }

  int32_t Begin(const char* name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.query = query_;
    spans_.push_back(s);
    const int32_t id = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(id);
    spans_.back().start_ns = NowNs();
    return id;
  }

  void End(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  /// RAII span; records nothing when `rec` is null (untraced mode).
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name)
        : rec_(rec), id_(rec != nullptr ? rec->Begin(name) : -1) {}
    ~Scope() {
      if (rec_ != nullptr) rec_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int32_t id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: duration minus the durations of its
  /// children (children of one span never overlap: one thread).
  std::vector<double> SelfMs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = DurationMs(spans_[i]);
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= DurationMs(s);
    }
    return self;
  }

  /// Summed duration and self time per span name.
  struct Totals {
    double total_ms = 0;
    double self_ms = 0;
    int64_t calls = 0;
  };
  std::map<std::string, Totals> ByName() const {
    std::map<std::string, Totals> out;
    const std::vector<double> self = SelfMs();
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      t.total_ms += DurationMs(spans_[i]);
      t.self_ms += self[i];
      ++t.calls;
    }
    return out;
  }

  /// One line per span: id, parent, query, name, start and end (ns from
  /// the first span). Returns false if the file cannot be written.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "id\tparent\tquery\tname\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%llu\t%s\t%lld\t%lld\n", i, s.parent,
                   static_cast<unsigned long long>(s.query), s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
    }
    return std::fclose(f) == 0;
  }

  static double DurationMs(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t query_ = 0;
};

}  // namespace perfbench
