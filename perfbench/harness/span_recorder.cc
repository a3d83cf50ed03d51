#include "span_recorder.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int32_t SpanRecorder::NameId(const char* name) {
  // Span names are string literals: compare pointers first, text second.
  for (size_t i = 0; i < name_ptrs_.size(); ++i) {
    if (name_ptrs_[i] == name || std::strcmp(name_ptrs_[i], name) == 0) {
      return static_cast<int32_t>(i);
    }
  }
  name_ptrs_.push_back(name);
  names_.emplace_back(name);
  return static_cast<int32_t>(names_.size() - 1);
}

int32_t SpanRecorder::Begin(const char* name, int64_t tag) {
  if (!enabled_) return -1;
  SpanRecord record;
  record.name = NameId(name);
  record.parent = open_.empty() ? -1 : open_.back();
  record.tag = tag;
  const auto index = static_cast<int32_t>(records_.size());
  records_.push_back(record);
  open_.push_back(index);
  records_.back().start_ns = NowNs();
  return index;
}

void SpanRecorder::End(int32_t index) {
  if (!enabled_ || index < 0) return;
  records_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

bool SpanRecorder::WriteBinary(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  bool ok = true;
  for (const SpanRecord& r : records_) {
    unsigned char buf[32];
    std::memcpy(buf, &r.name, 4);
    std::memcpy(buf + 4, &r.parent, 4);
    std::memcpy(buf + 8, &r.start_ns, 8);
    std::memcpy(buf + 16, &r.end_ns, 8);
    std::memcpy(buf + 24, &r.tag, 8);
    ok = ok && std::fwrite(buf, sizeof buf, 1, file) == 1;
  }
  return std::fclose(file) == 0 && ok;
}

}  // namespace perfbench
