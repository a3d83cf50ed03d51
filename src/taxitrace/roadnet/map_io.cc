#include "taxitrace/roadnet/map_io.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "taxitrace/common/csv.h"
#include "taxitrace/common/strings.h"

namespace taxitrace {
namespace roadnet {
namespace {

std::string EncodeGeometry(const geo::Polyline& line) {
  std::string out;
  for (size_t i = 0; i < line.points().size(); ++i) {
    if (i > 0) out += "|";
    out += StrFormat("%.3f:%.3f", line.points()[i].x, line.points()[i].y);
  }
  return out;
}

// A numeric map field. strtod accepts "nan" and "inf", which would
// poison every distance, bound and cell computed from the map, so
// non-finite values are rejected here, naming the row and field.
Result<double> ParseFinite(const std::string& text, size_t row,
                           const char* field) {
  TAXITRACE_ASSIGN_OR_RETURN(const double v, ParseDouble(text));
  if (!std::isfinite(v)) {
    return Status::Corruption(StrFormat("row %zu, column %s: not finite: %s",
                                        row, field, text.c_str()));
  }
  return v;
}

Result<geo::Polyline> DecodeGeometry(const std::string& text, size_t row) {
  std::vector<geo::EnPoint> pts;
  for (const std::string& pair : Split(text, '|')) {
    const std::vector<std::string> xy = Split(pair, ':');
    if (xy.size() != 2) {
      return Status::Corruption("bad geometry vertex: " + pair);
    }
    TAXITRACE_ASSIGN_OR_RETURN(const double x,
                               ParseFinite(xy[0], row, "geometry"));
    TAXITRACE_ASSIGN_OR_RETURN(const double y,
                               ParseFinite(xy[1], row, "geometry"));
    pts.push_back(geo::EnPoint{x, y});
  }
  return geo::Polyline(std::move(pts));
}

Result<TravelDirection> ParseDirection(const std::string& name) {
  if (name == "both") return TravelDirection::kBoth;
  if (name == "forward") return TravelDirection::kForward;
  if (name == "backward") return TravelDirection::kBackward;
  return Status::Corruption("unknown direction: " + name);
}

Result<FeatureType> ParseFeatureType(const std::string& name) {
  if (name == "traffic_light") return FeatureType::kTrafficLight;
  if (name == "bus_stop") return FeatureType::kBusStop;
  if (name == "pedestrian_crossing") return FeatureType::kPedestrianCrossing;
  return Status::Corruption("unknown feature type: " + name);
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

std::string ElementsToCsv(const std::vector<TrafficElement>& elements) {
  std::vector<CsvRow> rows;
  rows.push_back({"id", "name", "functional_class", "speed_limit_kmh",
                  "direction", "geometry"});
  for (const TrafficElement& el : elements) {
    rows.push_back(
        {StrFormat("%lld", static_cast<long long>(el.id)), el.road_name,
         StrFormat("%d", static_cast<int>(el.functional_class)),
         StrFormat("%.1f", el.speed_limit_kmh),
         std::string(TravelDirectionName(el.direction)),
         EncodeGeometry(el.geometry)});
  }
  return WriteCsv(rows);
}

Result<std::vector<TrafficElement>> ElementsFromCsv(
    const std::string& text) {
  TAXITRACE_ASSIGN_OR_RETURN(const std::vector<CsvRow> rows,
                             ParseCsvChecked(text, 6));
  if (rows.empty()) {
    return Status::Corruption("missing elements CSV header");
  }
  std::vector<TrafficElement> out;
  for (size_t r = 1; r < rows.size(); ++r) {
    TrafficElement el;
    TAXITRACE_ASSIGN_OR_RETURN(el.id, ParseInt64(rows[r][0]));
    el.road_name = rows[r][1];
    TAXITRACE_ASSIGN_OR_RETURN(const int64_t cls, ParseInt64(rows[r][2]));
    if (cls < 1 || cls > 4) {
      return Status::Corruption("functional class out of range");
    }
    el.functional_class = static_cast<FunctionalClass>(cls);
    TAXITRACE_ASSIGN_OR_RETURN(
        el.speed_limit_kmh, ParseFinite(rows[r][3], r, "speed_limit_kmh"));
    TAXITRACE_ASSIGN_OR_RETURN(el.direction, ParseDirection(rows[r][4]));
    TAXITRACE_ASSIGN_OR_RETURN(el.geometry, DecodeGeometry(rows[r][5], r));
    out.push_back(std::move(el));
  }
  return out;
}

std::string FeaturesToCsv(const std::vector<FeatureSpec>& features) {
  std::vector<CsvRow> rows;
  rows.push_back({"type", "x", "y"});
  for (const FeatureSpec& f : features) {
    rows.push_back({std::string(FeatureTypeName(f.type)),
                    StrFormat("%.3f", f.position.x),
                    StrFormat("%.3f", f.position.y)});
  }
  return WriteCsv(rows);
}

Result<std::vector<FeatureSpec>> FeaturesFromCsv(const std::string& text) {
  TAXITRACE_ASSIGN_OR_RETURN(const std::vector<CsvRow> rows,
                             ParseCsvChecked(text, 3));
  if (rows.empty()) {
    return Status::Corruption("missing features CSV header");
  }
  std::vector<FeatureSpec> out;
  for (size_t r = 1; r < rows.size(); ++r) {
    FeatureSpec f;
    TAXITRACE_ASSIGN_OR_RETURN(f.type, ParseFeatureType(rows[r][0]));
    TAXITRACE_ASSIGN_OR_RETURN(f.position.x, ParseFinite(rows[r][1], r, "x"));
    TAXITRACE_ASSIGN_OR_RETURN(f.position.y, ParseFinite(rows[r][2], r, "y"));
    out.push_back(f);
  }
  return out;
}

Status WriteElementsFile(const std::string& path,
                         const std::vector<TrafficElement>& elements) {
  return WriteFile(path, ElementsToCsv(elements));
}

Result<std::vector<TrafficElement>> ReadElementsFile(
    const std::string& path) {
  TAXITRACE_ASSIGN_OR_RETURN(const std::string text, ReadFile(path));
  return ElementsFromCsv(text);
}

Status WriteFeaturesFile(const std::string& path,
                         const std::vector<FeatureSpec>& features) {
  return WriteFile(path, FeaturesToCsv(features));
}

Result<std::vector<FeatureSpec>> ReadFeaturesFile(const std::string& path) {
  TAXITRACE_ASSIGN_OR_RETURN(const std::string text, ReadFile(path));
  return FeaturesFromCsv(text);
}

std::string NetworkToGeoJson(const RoadNetwork& network) {
  const geo::LocalProjection& proj = network.projection();
  std::string out = "{\"type\":\"FeatureCollection\",\"features\":[";
  bool first = true;
  network.ForEachEdge([&](const Edge& e) {
    if (!first) out += ",";
    first = false;
    out +=
        "{\"type\":\"Feature\",\"geometry\":{\"type\":\"LineString\","
        "\"coordinates\":[";
    for (size_t i = 0; i < e.geometry.points().size(); ++i) {
      if (i > 0) out += ",";
      const geo::LatLon ll = proj.Inverse(e.geometry.points()[i]);
      out += StrFormat("[%.6f,%.6f]", ll.lon_deg, ll.lat_deg);
    }
    std::string elements = "[";
    for (size_t k = 0; k < e.element_ids.size(); ++k) {
      if (k > 0) elements += ",";
      elements +=
          StrFormat("%lld", static_cast<long long>(e.element_ids[k]));
    }
    elements += "]";
    out += StrFormat(
        "]},\"properties\":{\"edge\":%d,\"name\":\"%s\","
        "\"functional_class\":%d,\"speed_limit_kmh\":%.0f,"
        "\"direction\":\"%s\",\"elements\":%s}}",
        e.id, e.road_name.c_str(), static_cast<int>(e.functional_class),
        e.speed_limit_kmh,
        std::string(TravelDirectionName(e.direction)).c_str(),
        elements.c_str());
  });
  for (const MapFeature& f : network.features()) {
    if (!first) out += ",";
    first = false;
    const geo::LatLon ll = proj.Inverse(f.position);
    out += StrFormat(
        "{\"type\":\"Feature\",\"geometry\":{\"type\":\"Point\","
        "\"coordinates\":[%.6f,%.6f]},\"properties\":{\"type\":\"%s\"}}",
        ll.lon_deg, ll.lat_deg,
        std::string(FeatureTypeName(f.type)).c_str());
  }
  out += "]}";
  return out;
}

}  // namespace roadnet
}  // namespace taxitrace
