// In-memory span recording for traced runs. The harness opens a span
// around each call into a layer; spans nest through an open-span stack,
// so each record knows the span that caused it. Nothing is written
// until the run ends (SpanRecorder::WriteBinary).

#ifndef PERFBENCH_HARNESS_SPAN_RECORDER_H_
#define PERFBENCH_HARNESS_SPAN_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span. `name` indexes SpanRecorder::names(); `parent` is
/// the index of the enclosing span or -1; `tag` is the trip, window or
/// segment id the span worked on (-1 when none).
struct SpanRecord {
  int32_t name = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t tag = -1;
};

/// Records spans on one thread. A disabled recorder does nothing, so
/// the traced code paths cost two branches per span when tracing is off.
class SpanRecorder {
 public:
  void Enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  int32_t Begin(const char* name, int64_t tag = -1);
  /// Closes the innermost open span, which must be `index`.
  void End(int32_t index);

  [[nodiscard]] const std::vector<SpanRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  /// Writes every record as little-endian (int32 name, int32 parent,
  /// int64 start_ns, int64 end_ns, int64 tag). Returns false on I/O
  /// failure.
  bool WriteBinary(const std::string& path) const;

 private:
  int32_t NameId(const char* name);

  bool enabled_ = false;
  std::vector<SpanRecord> records_;
  std::vector<int32_t> open_;
  std::vector<std::string> names_;
  std::vector<const char*> name_ptrs_;
};

/// RAII span: opens on construction, closes on destruction. A null
/// recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t tag = -1)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, tag) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPAN_RECORDER_H_
