// Online ingestion of one car's arrival stream with bounded lag.
//
// The session is the streaming counterpart of the batch store walk: it
// accepts StreamRecords in arrival order, undoes bounded transport
// reordering, and reassembles upload sessions (container trips) as
// *windows* that are flushed to a TripSink the moment they are
// complete. Two rules govern release:
//
//  1. Contiguous release: the record with the smallest unreleased seq
//     is emitted as soon as it is present, so an in-order stream flows
//     straight through with zero buffering.
//  2. Watermark close: the watermark trails the stream head by the
//     configured lag (`watermark = max_seq_seen - reorder_lag`). A gap
//     older than the watermark stops waiting — its slots are declared
//     lost and the stream skips ahead — so no window ever survives a
//     watermark advance by more than the lag, and buffering is bounded
//     by `reorder_lag` records.
//
// The equivalence contract: whenever every record's arrival
// displacement is at most `reorder_lag / 2`, nothing is ever declared
// lost, the released order equals the canonical (batch) order exactly,
// and per-record latency is at most `reorder_lag` arrival slots.
// Records that do arrive behind the watermark are counted as explicit
// late drops — the funnel ledger reconciles offered == released +
// dropped, so nothing is ever silently lost.

#ifndef TAXITRACE_STREAM_INGEST_SESSION_H_
#define TAXITRACE_STREAM_INGEST_SESSION_H_

#include <cstdint>
#include <map>
#include <vector>

#include "taxitrace/common/status.h"
#include "taxitrace/stream/stream_source.h"
#include "taxitrace/trace/trip.h"
#include "taxitrace/trace/trip_sink.h"

namespace taxitrace {
namespace stream {

/// Upper bound on IngestOptions::reorder_lag and arrival_shuffle_window,
/// in arrival slots. A session keeps one latency bucket per slot of lag
/// (512 KiB per car at the bound), and the bound keeps every seq and
/// shuffle-key sum far from int64 overflow.
inline constexpr int64_t kMaxReorderLag = int64_t{1} << 16;

/// Knobs of the online ingestion path.
struct IngestOptions {
  /// Reorder window, in arrival slots: how far the watermark trails the
  /// stream head before a missing record is declared lost. Displacement
  /// up to reorder_lag / 2 is repaired losslessly.
  int64_t reorder_lag = 64;

  /// When positive, the pipeline perturbs each car's canonical arrival
  /// order by at most this many slots before ingesting (deterministic
  /// per-car shuffle; see ShuffleArrivals). 0 ingests canonical order.
  /// Keep it at most reorder_lag / 2 to stay within the lossless bound.
  int64_t arrival_shuffle_window = 0;
  uint64_t arrival_shuffle_seed = 0x5EEDA11CULL;
};

/// InvalidArgument unless 0 <= reorder_lag <= kMaxReorderLag and
/// 0 <= arrival_shuffle_window <= kMaxReorderLag.
Status ValidateIngestOptions(const IngestOptions& options);

/// What one (or a fold of several) ingest session(s) did. All fields
/// are plain integer counts merged additively in car order, so the
/// fold is byte-identical at any worker count.
struct IngestStats {
  int64_t points_offered = 0;        ///< Point records that arrived.
  int64_t trip_markers_offered = 0;  ///< kTripBegin records that arrived.
  int64_t points_released = 0;
  int64_t trip_markers_released = 0;
  /// Arrived behind the watermark (their slot was already released or
  /// declared lost) and were dropped — the funnel's late_arrival drops.
  int64_t points_dropped_late = 0;
  int64_t trip_markers_dropped_late = 0;
  /// Seq slots the watermark gave up waiting for. If the record later
  /// arrives it is counted above; a slot whose record never arrives at
  /// all stays accounted here.
  int64_t slots_declared_lost = 0;

  int64_t windows_opened = 0;
  /// Windows opened by a point whose marker was lost or late — the
  /// session synthesises the container so the points still flow.
  int64_t windows_opened_implicit = 0;
  int64_t windows_closed = 0;

  /// High-water mark of records buffered awaiting release (<= lag).
  int64_t peak_buffered_records = 0;

  /// Per-record release latency in arrival slots: bucket b counts
  /// records released after b further arrivals on the same stream
  /// (0 = released by the arrival that carried them). The last bucket
  /// accumulates everything >= its index.
  std::vector<int64_t> latency_hist;

  /// Adds every counter of `other` into this (latency buckets
  /// element-wise, growing to the larger histogram).
  void Add(const IngestStats& other);
};

/// Smallest latency (in slots) at or below which a fraction `q` of the
/// released records fall; 0 when nothing was released.
int64_t IngestLatencyQuantile(const IngestStats& stats, double q);

/// Largest occupied latency bucket; 0 when nothing was released.
int64_t IngestLatencyMax(const IngestStats& stats);

/// Ingests one car's stream. Not thread-safe: one session per car, one
/// car per work item — sessions never share state, which is what lets
/// the pipeline fan them out over the executor deterministically.
class IngestSession {
 public:
  /// `sink` receives each closed window as a trace::Trip, in release
  /// order, from the thread driving Ingest/FinishStream; it may be
  /// null (count-only ingestion). The sink's error aborts the session.
  /// `options` must pass ValidateIngestOptions.
  IngestSession(int car_id, const IngestOptions& options,
                trace::TripSink* sink);

  IngestSession(const IngestSession&) = delete;
  IngestSession& operator=(const IngestSession&) = delete;

  /// Accepts the next arrival. Releases every record the arrival makes
  /// ready and flushes every window those releases complete.
  Status Ingest(const StreamRecord& record);

  /// End of stream: releases everything still buffered (gaps become
  /// lost slots) and closes the open window. Ingest must not be called
  /// afterwards.
  Status FinishStream();

  [[nodiscard]] const IngestStats& stats() const { return stats_; }

  /// The watermark: seqs at or below it are released, lost, or late.
  [[nodiscard]] int64_t watermark() const {
    return max_seq_ - options_.reorder_lag;
  }
  [[nodiscard]] int64_t next_expected_seq() const { return next_expected_; }
  [[nodiscard]] int64_t max_seq_seen() const { return max_seq_; }
  [[nodiscard]] int64_t buffered_records() const {
    return static_cast<int64_t>(buffer_.size());
  }

 private:
  struct BufferedRecord {
    StreamRecord record;
    int64_t arrived_at = 0;  ///< Arrival counter when it was ingested.
  };

  Status Release(const BufferedRecord& buffered);
  Status DrainReady();
  Status CloseWindow();
  void RecordLatency(int64_t latency_slots);

  const int car_id_;
  const IngestOptions options_;
  trace::TripSink* const sink_;

  /// Out-of-order arrivals awaiting their predecessors, keyed by seq.
  /// Holds at most reorder_lag records (seqs in (next_expected_,
  /// max_seq_], and the watermark caps that span at the lag).
  std::map<int64_t, BufferedRecord> buffer_;
  int64_t next_expected_ = 0;
  int64_t max_seq_ = -1;
  int64_t arrivals_ = 0;

  bool window_open_ = false;
  trace::Trip window_;
  bool finished_ = false;

  IngestStats stats_;
};

}  // namespace stream
}  // namespace taxitrace

#endif  // TAXITRACE_STREAM_INGEST_SESSION_H_
