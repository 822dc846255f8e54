// In-memory span recorder of the layered benchmark's traced mode.
//
// Spans are recorded only in the benchmark's own code, around each
// call into a library layer's public functions; a span is named
// "<layer>.<call>", where the layer is the src/ module that owns the
// called function. Spans stay in memory and are written out as JSON
// lines when the run ends. A disabled tracer records nothing: Span
// then costs one branch.

#ifndef LAYERBENCH_TRACE_H_
#define LAYERBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace grepair {
namespace layerbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  struct Record {
    const char* name = nullptr;  ///< string literal, "<layer>.<call>"
    int64_t parent = -1;         ///< index of the enclosing span
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) records_.reserve(1 << 20);
  }
  bool enabled() const { return enabled_; }

  int64_t Open(const char* name) {
    Record r;
    r.name = name;
    r.parent = open_.empty() ? -1 : open_.back();
    r.start_ns = NowNs();
    records_.push_back(r);
    open_.push_back(static_cast<int64_t>(records_.size()) - 1);
    return open_.back();
  }
  void Close(int64_t id) {
    records_[id].end_ns = NowNs();
    open_.pop_back();
  }

  /// \brief Self time per layer: each span's duration minus the part
  /// its direct children cover, summed by the name's prefix up to the
  /// first '.'.
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::vector<uint64_t> child_ns(records_.size(), 0);
    for (const Record& r : records_) {
      if (r.parent >= 0) child_ns[r.parent] += r.end_ns - r.start_ns;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::string name(r.name);
      std::string layer = name.substr(0, name.find('.'));
      out[layer] += 1e-9 * static_cast<double>(r.end_ns - r.start_ns -
                                               child_ns[i]);
    }
    return out;
  }

  /// \brief Writes one JSON object per span.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%lld,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   i, static_cast<long long>(r.parent), r.name,
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Record> records_;
  std::vector<int64_t> open_;
};

/// \brief RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->enabled() ? tracer->Open(name) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_->Close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace layerbench
}  // namespace grepair

#endif  // LAYERBENCH_TRACE_H_
