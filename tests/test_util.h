// Shared helpers for the SLIM test suite.
#ifndef SLIM_TESTS_TEST_UTIL_H_
#define SLIM_TESTS_TEST_UTIL_H_

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/linkage_context.h"
#include "data/dataset.h"
#include "geo/latlng.h"

namespace slim {

/// Appends entity `id` (larger than every id in the store) with an empty
/// history: a state no record stream produces, since every record fills a
/// bin, but one a mapped SCTX file may carry. The per-bin statistics are
/// left as they were.
struct HistoryStoreTestAccess {
  static void AppendEmptyEntity(HistoryStore* store, EntityId id) {
    SLIM_CHECK(store->size() == 0 || store->entity_ids_.back() < id);
    store->entity_ids_.owned().push_back(id);
    store->total_records_.owned().push_back(0);
    store->bin_offsets_.owned().push_back(store->bin_offsets_.back());
    store->window_offsets_.owned().push_back(store->window_offsets_.back());
    for (size_t k = 0; k < HistoryStore::kWindowMaskWords; ++k) {
      store->window_masks_.owned().push_back(0);
    }
  }
};

}  // namespace slim

namespace slim::testing {

/// San Francisco-ish bounding box used across tests.
inline constexpr double kBoxLatLo = 37.60;
inline constexpr double kBoxLatHi = 37.81;
inline constexpr double kBoxLngLo = -122.52;
inline constexpr double kBoxLngHi = -122.38;

inline LatLng RandomPointInBox(Rng* rng) {
  return LatLng{rng->NextDouble(kBoxLatLo, kBoxLatHi),
                rng->NextDouble(kBoxLngLo, kBoxLngHi)};
}

/// A dataset where every entity sits at one fixed anchor point and emits
/// one record per window over [0, windows). Useful for exact-score tests.
inline LocationDataset MakeAnchoredDataset(
    const std::vector<LatLng>& anchors, int windows, int64_t window_seconds,
    const char* name = "anchored") {
  LocationDataset ds(name);
  for (size_t e = 0; e < anchors.size(); ++e) {
    for (int w = 0; w < windows; ++w) {
      ds.Add(static_cast<EntityId>(e), anchors[e],
             static_cast<int64_t>(w) * window_seconds + window_seconds / 2);
    }
  }
  ds.Finalize();
  return ds;
}

}  // namespace slim::testing

#endif  // SLIM_TESTS_TEST_UTIL_H_
