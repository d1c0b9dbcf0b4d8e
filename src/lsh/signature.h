// LSH signatures for mobility histories (paper Sec. 4).
//
// A history's signature is the list of its *dominating grid cells* — the
// cell holding most of the entity's records — for a fixed series of
// non-overlapping query time windows that span the same global period in
// the same order for every history. Query windows with no records yield a
// placeholder that is omitted from band hashing. Signature similarity is
// the fraction of matching dominating cells. Signatures are computed from
// the CSR history store by BuildSignature (core/candidates.h).
#ifndef SLIM_LSH_SIGNATURE_H_
#define SLIM_LSH_SIGNATURE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slim {

/// Placeholder raw cell value marking "no records in this query window".
inline constexpr uint64_t kSignaturePlaceholder = 0;

/// A history signature: raw cell ids (or placeholders), one per query
/// window, in global query order.
struct LshSignature {
  std::vector<uint64_t> cells;

  size_t size() const { return cells.size(); }
  bool IsPlaceholder(size_t idx) const {
    return cells[idx] == kSignaturePlaceholder;
  }
};

/// LSH configuration (paper Sec. 4 / Sec. 5.3 defaults).
struct LshConfig {
  /// Candidate-pair similarity threshold t; bands are sized so signatures
  /// with similarity >= t land in a common bucket with high probability.
  double similarity_threshold = 0.6;
  /// Spatial level of the dominating cells (coarser than or equal to the
  /// history leaf level; Fig. 8 sweeps 4..20, Sec. 5.3.2 uses 16).
  int signature_spatial_level = 16;
  /// Query window length in leaf windows (Fig. 8 sweeps 1..192; Sec. 5.3.2
  /// uses 48, i.e. 12 h for 15-minute leaves).
  int temporal_step_windows = 48;
  /// Buckets per band (Sec. 5.3: 4096 default, up to 2^20).
  size_t num_buckets = 4096;
  /// Salt for the band hash.
  uint64_t hash_seed = 0x51f15e11aa5eed01ULL;
};

/// Fraction of signature positions with identical dominating cells, over
/// the signature size (placeholder positions only match nothing — a
/// position where either side is a placeholder does not count as a match).
/// Requires equal sizes; empty signatures have similarity 0.
double SignatureSimilarity(const LshSignature& a, const LshSignature& b);

/// Number of bands b for signature size s and threshold t, per the paper:
/// b = e^{W(-s ln t)} (rounded, clamped to [1, s]). Requires s >= 1 and
/// 0 < t < 1.
int ComputeNumBands(size_t signature_size, double threshold);

/// Probability that two signatures of similarity `t` share at least one
/// identical band: 1 - (1 - t^r)^b (the S-curve).
double BandCollisionProbability(double t, int rows_per_band, int num_bands);

/// The S-curve's approximate inflection threshold (1/b)^(1/r).
double ApproximateThreshold(int rows_per_band, int num_bands);

}  // namespace slim

#endif  // SLIM_LSH_SIGNATURE_H_
