#include "taxitrace/trace/trace_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "taxitrace/common/csv.h"
#include "taxitrace/common/strings.h"

namespace taxitrace {
namespace trace {
namespace {

constexpr const char* kHeader[] = {"trip_id",     "car_id", "point_id",
                                   "timestamp_s", "lat",    "lon",
                                   "speed_kmh",   "fuel_delta_ml"};
constexpr size_t kNumColumns = sizeof(kHeader) / sizeof(kHeader[0]);

/// Parses one data row into a point + its car id. On failure the status
/// carries the row number and column name of the offending field. A
/// trip id beyond +-kMaxTripId always fails (segment ids derive from
/// it); with `finite_only`, so does a nan or inf number, which strtod
/// accepts but no cleaning stage can order or measure.
Status ParseRow(const CsvRow& row, size_t row_index, bool finite_only,
                RoutePoint* point, int64_t* car_id) {
  struct Field {
    const char* name;
    bool is_int;
    void* dest;
  };
  int64_t trip_id = 0;
  const Field fields[] = {
      {"trip_id", true, &trip_id},
      {"car_id", true, car_id},
      {"point_id", true, &point->point_id},
      {"timestamp_s", false, &point->timestamp_s},
      {"lat", false, &point->position.lat_deg},
      {"lon", false, &point->position.lon_deg},
      {"speed_kmh", false, &point->speed_kmh},
      {"fuel_delta_ml", false, &point->fuel_delta_ml}};
  for (size_t c = 0; c < kNumColumns; ++c) {
    if (fields[c].is_int) {
      Result<int64_t> v = ParseInt64(row[c]);
      if (!v.ok()) {
        return Status::Corruption(
            StrFormat("row %zu, column %s: %s", row_index, fields[c].name,
                      v.status().message().c_str()));
      }
      *static_cast<int64_t*>(fields[c].dest) = *v;
    } else {
      Result<double> v = ParseDouble(row[c]);
      if (!v.ok()) {
        return Status::Corruption(
            StrFormat("row %zu, column %s: %s", row_index, fields[c].name,
                      v.status().message().c_str()));
      }
      if (finite_only && !std::isfinite(*v)) {
        return Status::Corruption(
            StrFormat("row %zu, column %s: not finite: %s", row_index,
                      fields[c].name, row[c].c_str()));
      }
      *static_cast<double*>(fields[c].dest) = *v;
    }
  }
  if (trip_id > kMaxTripId || trip_id < -kMaxTripId) {
    return Status::Corruption(StrFormat(
        "row %zu, column trip_id: beyond +-%lld: %s", row_index,
        static_cast<long long>(kMaxTripId), row[0].c_str()));
  }
  point->trip_id = trip_id;
  return Status::OK();
}

/// True when the row contains bytes that cannot appear in this format
/// (anything outside printable ASCII — the writer emits numbers only).
bool HasNonTextBytes(const CsvRow& row) {
  for (const std::string& field : row) {
    for (const char c : field) {
      const auto u = static_cast<unsigned char>(c);
      if (u < 0x20 || u > 0x7E) return true;
    }
  }
  return false;
}

void AppendPoint(std::vector<Trip>* trips, const RoutePoint& p,
                 int64_t car_id) {
  if (trips->empty() || trips->back().trip_id != p.trip_id) {
    Trip t;
    t.trip_id = p.trip_id;
    t.car_id = static_cast<int>(car_id);
    trips->push_back(std::move(t));
  }
  trips->back().points.push_back(p);
}

}  // namespace

std::string TripsToCsv(const std::vector<Trip>& trips) {
  std::vector<CsvRow> rows;
  rows.emplace_back(kHeader, kHeader + kNumColumns);
  for (const Trip& t : trips) {
    for (const RoutePoint& p : t.points) {
      rows.push_back(CsvRow{
          StrFormat("%lld", static_cast<long long>(t.trip_id)),
          StrFormat("%d", t.car_id),
          StrFormat("%lld", static_cast<long long>(p.point_id)),
          StrFormat("%.3f", p.timestamp_s),
          StrFormat("%.7f", p.position.lat_deg),
          StrFormat("%.7f", p.position.lon_deg),
          StrFormat("%.3f", p.speed_kmh),
          StrFormat("%.3f", p.fuel_delta_ml)});
    }
  }
  return WriteCsv(rows);
}

Result<std::vector<Trip>> TripsFromCsv(const std::string& text) {
  TAXITRACE_ASSIGN_OR_RETURN(std::vector<CsvRow> rows,
                             ParseCsvChecked(text, kNumColumns));
  if (rows.empty()) return Status::Corruption("missing CSV header");
  std::vector<Trip> trips;
  for (size_t r = 1; r < rows.size(); ++r) {
    RoutePoint p;
    int64_t car_id = 0;
    TAXITRACE_RETURN_IF_ERROR(
        ParseRow(rows[r], r, /*finite_only=*/true, &p, &car_id));
    AppendPoint(&trips, p, car_id);
  }
  for (Trip& t : trips) t.RecomputeTotals();
  return trips;
}

Result<std::vector<Trip>> TripsFromCsvLenient(const std::string& text,
                                              TraceIoStats* stats) {
  const std::vector<CsvRow> rows = ParseCsvLenient(text);
  if (rows.empty()) return Status::Corruption("missing CSV header");
  if (rows[0].size() != kNumColumns ||
      !std::equal(rows[0].begin(), rows[0].end(), kHeader)) {
    return Status::Corruption("unexpected CSV header");
  }
  std::vector<Trip> trips;
  for (size_t r = 1; r < rows.size(); ++r) {
    const CsvRow& row = rows[r];
    ++stats->rows_total;
    if (HasNonTextBytes(row)) {
      ++stats->rows_dropped_non_utf8;
      continue;
    }
    if (row.size() != kNumColumns) {
      ++stats->rows_dropped_malformed;
      continue;
    }
    RoutePoint p;
    int64_t car_id = 0;
    if (!ParseRow(row, r, /*finite_only=*/false, &p, &car_id).ok()) {
      ++stats->rows_dropped_malformed;
      continue;
    }
    AppendPoint(&trips, p, car_id);
  }
  for (Trip& t : trips) t.RecomputeTotals();
  return trips;
}

Status WriteTripsFile(const std::string& path,
                      const std::vector<Trip>& trips) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  const std::string text = TripsToCsv(trips);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<std::vector<Trip>> ReadTripsFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return TripsFromCsv(buf.str());
}

}  // namespace trace
}  // namespace taxitrace
