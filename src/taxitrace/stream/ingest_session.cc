#include "taxitrace/stream/ingest_session.h"

#include <algorithm>
#include <utility>

#include "taxitrace/common/check.h"
#include "taxitrace/common/strings.h"

namespace taxitrace {
namespace stream {

void IngestStats::Add(const IngestStats& other) {
  points_offered += other.points_offered;
  trip_markers_offered += other.trip_markers_offered;
  points_released += other.points_released;
  trip_markers_released += other.trip_markers_released;
  points_dropped_late += other.points_dropped_late;
  trip_markers_dropped_late += other.trip_markers_dropped_late;
  slots_declared_lost += other.slots_declared_lost;
  windows_opened += other.windows_opened;
  windows_opened_implicit += other.windows_opened_implicit;
  windows_closed += other.windows_closed;
  peak_buffered_records =
      std::max(peak_buffered_records, other.peak_buffered_records);
  if (latency_hist.size() < other.latency_hist.size()) {
    latency_hist.resize(other.latency_hist.size(), 0);
  }
  for (size_t i = 0; i < other.latency_hist.size(); ++i) {
    latency_hist[i] += other.latency_hist[i];
  }
}

Status ValidateIngestOptions(const IngestOptions& options) {
  const auto check = [](const char* name, int64_t value) {
    if (value >= 0 && value <= kMaxReorderLag) return Status::OK();
    return Status::InvalidArgument(
        StrFormat("ingest %s %lld outside [0, %lld]", name,
                  static_cast<long long>(value),
                  static_cast<long long>(kMaxReorderLag)));
  };
  TAXITRACE_RETURN_IF_ERROR(check("reorder_lag", options.reorder_lag));
  return check("arrival_shuffle_window", options.arrival_shuffle_window);
}

int64_t IngestLatencyQuantile(const IngestStats& stats, double q) {
  int64_t total = 0;
  for (const int64_t n : stats.latency_hist) total += n;
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  int64_t cumulative = 0;
  for (size_t b = 0; b < stats.latency_hist.size(); ++b) {
    cumulative += stats.latency_hist[b];
    if (static_cast<double>(cumulative) >= rank) {
      return static_cast<int64_t>(b);
    }
  }
  return static_cast<int64_t>(stats.latency_hist.size()) - 1;
}

int64_t IngestLatencyMax(const IngestStats& stats) {
  for (size_t b = stats.latency_hist.size(); b > 0; --b) {
    if (stats.latency_hist[b - 1] > 0) return static_cast<int64_t>(b - 1);
  }
  return 0;
}

IngestSession::IngestSession(int car_id, const IngestOptions& options,
                             trace::TripSink* sink)
    : car_id_(car_id), options_(options), sink_(sink) {
  TT_CHECK_OK(ValidateIngestOptions(options_));
  // One bucket per latency value the lossless contract allows, plus an
  // overflow bucket for anything beyond the lag (late floods can stall
  // a buffered record past the bound; the overflow keeps that visible).
  stats_.latency_hist.assign(static_cast<size_t>(options_.reorder_lag) + 2,
                             0);
}

void IngestSession::RecordLatency(int64_t latency_slots) {
  const auto last = stats_.latency_hist.size() - 1;
  const size_t bucket =
      std::min(static_cast<size_t>(std::max<int64_t>(latency_slots, 0)),
               last);
  ++stats_.latency_hist[bucket];
}

Status IngestSession::CloseWindow() {
  if (!window_open_) return Status::OK();
  window_open_ = false;
  ++stats_.windows_closed;
  trace::Trip finished = std::move(window_);
  window_ = trace::Trip{};
  if (sink_ != nullptr) {
    return sink_->Consume(std::move(finished));
  }
  return Status::OK();
}

Status IngestSession::Release(const BufferedRecord& buffered) {
  RecordLatency(arrivals_ - buffered.arrived_at);
  const StreamRecord& rec = buffered.record;
  if (rec.kind == StreamRecord::Kind::kTripBegin) {
    ++stats_.trip_markers_released;
    TAXITRACE_RETURN_IF_ERROR(CloseWindow());
    window_open_ = true;
    ++stats_.windows_opened;
    window_.trip_id = rec.trip_id;
    window_.car_id = rec.car_id;
    window_.total_time_s = rec.total_time_s;
    window_.total_distance_m = rec.total_distance_m;
    window_.total_fuel_ml = rec.total_fuel_ml;
    return Status::OK();
  }
  ++stats_.points_released;
  if (!window_open_ || window_.trip_id != rec.trip_id) {
    // The container's marker was lost or is still late: open the window
    // implicitly so its points survive (with zeroed device totals — the
    // marker carried them and it is gone).
    TAXITRACE_RETURN_IF_ERROR(CloseWindow());
    window_open_ = true;
    ++stats_.windows_opened;
    ++stats_.windows_opened_implicit;
    window_.trip_id = rec.trip_id;
    window_.car_id = rec.car_id;
  }
  window_.points.push_back(rec.point);
  return Status::OK();
}

Status IngestSession::DrainReady() {
  while (true) {
    if (!buffer_.empty() && buffer_.begin()->first == next_expected_) {
      const BufferedRecord ready = std::move(buffer_.begin()->second);
      buffer_.erase(buffer_.begin());
      ++next_expected_;
      TAXITRACE_RETURN_IF_ERROR(Release(ready));
      continue;
    }
    // Watermark close: the head of the stream has run `reorder_lag`
    // slots past the oldest gap — stop waiting for it.
    if (max_seq_ - next_expected_ > options_.reorder_lag) {
      ++stats_.slots_declared_lost;
      ++next_expected_;
      continue;
    }
    break;
  }
  stats_.peak_buffered_records =
      std::max(stats_.peak_buffered_records,
               static_cast<int64_t>(buffer_.size()));
  return Status::OK();
}

Status IngestSession::Ingest(const StreamRecord& record) {
  if (finished_) {
    return Status::FailedPrecondition(
        "IngestSession::Ingest after FinishStream");
  }
  if (record.car_id != car_id_) {
    return Status::InvalidArgument(
        StrFormat("record for car %d ingested into session of car %d",
                  record.car_id, car_id_));
  }
  ++arrivals_;
  const bool is_point = record.kind == StreamRecord::Kind::kPoint;
  if (is_point) {
    ++stats_.points_offered;
  } else {
    ++stats_.trip_markers_offered;
  }
  // Behind the watermark (slot already released or declared lost), or a
  // duplicate of a buffered slot: an explicit, counted drop.
  if (record.seq < next_expected_ ||
      buffer_.find(record.seq) != buffer_.end()) {
    if (is_point) {
      ++stats_.points_dropped_late;
    } else {
      ++stats_.trip_markers_dropped_late;
    }
    return Status::OK();
  }
  buffer_.emplace(record.seq, BufferedRecord{record, arrivals_});
  max_seq_ = std::max(max_seq_, record.seq);
  return DrainReady();
}

Status IngestSession::FinishStream() {
  if (finished_) return Status::OK();
  finished_ = true;
  // End of stream: every remaining gap is a loss, everything buffered
  // beyond it is released in seq order.
  while (!buffer_.empty()) {
    if (buffer_.begin()->first != next_expected_) {
      ++stats_.slots_declared_lost;
      ++next_expected_;
      continue;
    }
    const BufferedRecord ready = std::move(buffer_.begin()->second);
    buffer_.erase(buffer_.begin());
    ++next_expected_;
    TAXITRACE_RETURN_IF_ERROR(Release(ready));
  }
  return CloseWindow();
}

}  // namespace stream
}  // namespace taxitrace
