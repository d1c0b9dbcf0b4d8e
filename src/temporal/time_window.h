// Temporal window indexing.
//
// The mobility-history representation (paper Sec. 2.3) buckets record
// timestamps into fixed-width leaf windows. A window is identified by its
// integer index: window w covers [w * width, (w + 1) * width) in epoch
// seconds. The LSH signatures group windows into fixed query steps
// (core/candidates.h).
#ifndef SLIM_TEMPORAL_TIME_WINDOW_H_
#define SLIM_TEMPORAL_TIME_WINDOW_H_

#include <cstdint>

#include "common/check.h"

namespace slim {

/// Index of the window of width `width_seconds` containing `epoch_seconds`
/// (floor division, correct for negative timestamps).
inline int64_t WindowIndexOf(int64_t epoch_seconds, int64_t width_seconds) {
  SLIM_DCHECK(width_seconds > 0);
  int64_t q = epoch_seconds / width_seconds;
  if (epoch_seconds % width_seconds < 0) --q;
  return q;
}

/// Start timestamp (epoch seconds) of window `w`.
inline int64_t WindowStart(int64_t w, int64_t width_seconds) {
  return w * width_seconds;
}

/// The "runaway distance" R = |w| * alpha of the paper (Sec. 3.1.1): the
/// farthest an entity can travel within one window of `width_seconds` at
/// maximum speed `max_speed_mps` (meters/second).
inline double RunawayDistanceMeters(int64_t width_seconds,
                                    double max_speed_mps) {
  SLIM_DCHECK(width_seconds > 0 && max_speed_mps > 0.0);
  return static_cast<double>(width_seconds) * max_speed_mps;
}

}  // namespace slim

#endif  // SLIM_TEMPORAL_TIME_WINDOW_H_
