#include "taxitrace/clean/outlier_filter.h"

#include <cmath>
#include <cstddef>

namespace taxitrace {
namespace clean {
namespace {

// True when b is a position spike between a and c: far from both (`ab`,
// `bc`) while a and c are near each other. Sets `*ac` when it measures
// that distance.
bool IsSpike(double ab, double bc, const trace::RoutePoint& a,
             const trace::RoutePoint& c,
             const OutlierFilterOptions& options, double* ac) {
  if (ab < options.spike_distance_m || bc < options.spike_distance_m) {
    return false;
  }
  *ac = geo::HaversineMeters(a.position, c.position);
  return *ac < options.spike_closeness_ratio * (ab + bc);
}

// True when covering `d` metres from a to b implies an impossible speed.
bool ImpliedSpeedTooHigh(const trace::RoutePoint& a,
                         const trace::RoutePoint& b, double d,
                         const OutlierFilterOptions& options) {
  const double dt = b.timestamp_s - a.timestamp_s;
  if (dt <= 0.0) return false;  // handled by duplicate/order logic
  return d / dt > options.max_implied_speed_ms;
}

// Distance from the last kept point pts[kept - 1] to pts[r]: the stored
// step when pts[r]'s predecessor was kept, one new call when it was
// just dropped.
double StepFromKept(const std::vector<trace::RoutePoint>& pts,
                    const std::vector<double>& steps, size_t kept,
                    size_t r, bool predecessor_dropped) {
  return predecessor_dropped
             ? geo::HaversineMeters(pts[kept - 1].position, pts[r].position)
             : steps[r];
}

}  // namespace

void FilterOutliers(std::vector<trace::RoutePoint>* points,
                    const OutlierFilterOptions& options,
                    OutlierFilterStats* stats) {
  std::vector<double> steps = trace::StepDistances(*points);
  FilterOutliers(points, &steps, options, stats);
}

void FilterOutliers(std::vector<trace::RoutePoint>* points,
                    std::vector<double>* steps,
                    const OutlierFilterOptions& options,
                    OutlierFilterStats* stats) {
  OutlierFilterStats local;
  std::vector<trace::RoutePoint>& pts = *points;
  std::vector<double>& st = *steps;

  // Pass 1: duplicates (identical id and timestamp as the predecessor).
  // In-place compaction; pts[kept - 1] is the last survivor, exactly
  // the out.back() of the historical copy-based pass.
  {
    size_t kept = 0;
    bool dropped = false;
    for (size_t r = 0; r < pts.size(); ++r) {
      if (kept > 0 && pts[kept - 1].point_id == pts[r].point_id &&
          pts[kept - 1].timestamp_s == pts[r].timestamp_s) {
        ++local.duplicates_removed;
        dropped = true;
        continue;
      }
      if (kept != r) {
        st[kept] = StepFromKept(pts, st, kept, r, dropped);
        pts[kept] = pts[r];
      }
      dropped = false;
      ++kept;
    }
    pts.resize(kept);
    st.resize(kept);
  }

  // Passes 2+3 iterate to a joint fixpoint: dropping an implied-speed
  // offender changes its neighbours' adjacency, which can expose a spike
  // the earlier scan could not see (e.g. a cluster of displaced points
  // where each shielded the next), and vice versa.
  bool round_changed = true;
  while (round_changed) {
    round_changed = false;

    // Spikes. The historical pass restarted the scan from index 1 after
    // every removal (removing the lowest-indexed spike each time);
    // backing up one position is enough to see the same sequence: every
    // triple left of i - 1 was just re-checked unchanged, so after
    // erasing at i the lowest-indexed spike is at i - 1 or later.
    // Identical removals and counts at O(n) scans instead of O(n^2).
    // The a-c distance the test measured is the new step into c.
    {
      size_t i = 1;
      while (pts.size() >= 3 && i + 1 < pts.size()) {
        double ac = 0.0;
        if (IsSpike(st[i], st[i + 1], pts[i - 1], pts[i + 1], options,
                    &ac)) {
          pts.erase(pts.begin() + static_cast<ptrdiff_t>(i));
          st.erase(st.begin() + static_cast<ptrdiff_t>(i));
          st[i] = ac;
          ++local.spikes_removed;
          round_changed = true;
          if (i > 1) --i;
        } else {
          ++i;
        }
      }
    }

    // Impossible implied speeds (drop the later point of the pair; a bad
    // first fix surfaces as its successor looking too fast, so also
    // check and drop a leading offender against its two successors).
    // Same in-place compaction shape as the duplicate pass.
    {
      size_t kept = 0;
      bool dropped = false;
      for (size_t r = 0; r < pts.size(); ++r) {
        if (kept > 0) {
          const double d = StepFromKept(pts, st, kept, r, dropped);
          if (ImpliedSpeedTooHigh(pts[kept - 1], pts[r], d, options)) {
            ++local.implied_speed_removed;
            round_changed = true;
            dropped = true;
            continue;
          }
          st[kept] = d;
        }
        if (kept != r) pts[kept] = pts[r];
        dropped = false;
        ++kept;
      }
      pts.resize(kept);
      st.resize(kept);
    }
  }

  if (stats != nullptr) {
    stats->duplicates_removed += local.duplicates_removed;
    stats->spikes_removed += local.spikes_removed;
    stats->implied_speed_removed += local.implied_speed_removed;
  }
}

void FilterTripOutliers(trace::Trip* trip,
                        const OutlierFilterOptions& options,
                        OutlierFilterStats* stats) {
  FilterOutliers(&trip->points, options, stats);
  trip->RecomputeTotals();
}

}  // namespace clean
}  // namespace taxitrace
