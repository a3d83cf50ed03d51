// CSV persistence for trips (flat point-per-row format).

#ifndef TAXITRACE_TRACE_TRACE_IO_H_
#define TAXITRACE_TRACE_TRACE_IO_H_

#include <string>
#include <vector>

#include "taxitrace/common/result.h"
#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace trace {

/// Serialises trips to CSV with header
/// trip_id,car_id,point_id,timestamp_s,lat,lon,speed_kmh,fuel_delta_ml —
/// one row per route point, trips in input order.
std::string TripsToCsv(const std::vector<Trip>& trips);

/// Parses the format written by TripsToCsv. Points with the same trip_id
/// must be contiguous; trip totals are recomputed from the points.
/// Strict: any malformed row fails the whole document, with row and
/// column context in the status message. Malformed includes a nan or
/// inf number and a trip_id beyond +-kMaxTripId (trip.h).
Result<std::vector<Trip>> TripsFromCsv(const std::string& text);

/// Row-level accounting from a lenient parse (TripsFromCsvLenient).
/// Kept as its own small struct so the trace layer does not depend on
/// the fault library; the pipeline folds these into its FaultReport.
struct TraceIoStats {
  int64_t rows_total = 0;              ///< data rows seen (header excluded).
  int64_t rows_dropped_malformed = 0;  ///< wrong width or unparsable field.
  int64_t rows_dropped_non_utf8 = 0;   ///< bytes outside printable ASCII.
};

/// Fault-tolerant variant of TripsFromCsv: a malformed data row (wrong
/// field count, unparsable number, trip_id beyond +-kMaxTripId,
/// non-text bytes) is dropped and counted in `stats` instead of failing
/// the document. Non-finite numbers are kept: the sanitiser drops and
/// counts those points. The header must still be intact — a file whose
/// header is gone is not a trace file.
/// Adjacent rows sharing a trip_id group into one trip, as in the
/// strict parser.
Result<std::vector<Trip>> TripsFromCsvLenient(const std::string& text,
                                              TraceIoStats* stats);

/// File round-trip helpers.
Status WriteTripsFile(const std::string& path,
                      const std::vector<Trip>& trips);
Result<std::vector<Trip>> ReadTripsFile(const std::string& path);

}  // namespace trace
}  // namespace taxitrace

#endif  // TAXITRACE_TRACE_TRACE_IO_H_
