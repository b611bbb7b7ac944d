// Span recorder for the traced run. Spans are kept in memory and written
// out as JSON lines when the run ends; nothing is written while measuring.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pb {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;      ///< Unique within the run; 0 = no span.
  std::uint64_t parent = 0;  ///< Span that caused this one (0 = root).
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;  ///< Client request id shared with the wire.
};

/// Single-writer span list for the benchmark's own phases and layer calls.
/// Request spans, written by two threads, live in pre-sized slots instead.
class Tracer {
 public:
  std::uint64_t Begin(const char* name, std::uint64_t parent) {
    spans_.push_back(Span{NextId(), parent, name, NowNs(), 0, 0});
    return spans_.back().id;
  }
  void End(std::uint64_t id) {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->id == id) {
        it->end_ns = NowNs();
        return;
      }
    }
  }
  std::uint64_t NextId() { return ++last_id_; }
  /// Appends finished spans (request spans collected after the run).
  void Add(const Span& span) { spans_.push_back(span); }

  /// Writes every span as one JSON object per line. False on I/O error.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"request\":%llu}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
};

/// Scoped span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent)
      : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tracer_.End(id_); }
  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace pb
