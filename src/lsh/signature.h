// LSH signatures for mobility histories (paper Sec. 4).
//
// A history's signature is the list of its *dominating grid cells* — the
// cell holding most of the entity's records — for a fixed series of
// non-overlapping query time windows (steps) that span the same global
// period in the same order for every history. Signatures are sparse: only
// steps with records are listed, and an absent step is a placeholder that
// band hashing omits (lsh/lsh_index.h). Signatures are computed from the
// CSR history store by BuildSignature (core/candidates.h).
#ifndef SLIM_LSH_SIGNATURE_H_
#define SLIM_LSH_SIGNATURE_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace slim {

/// One occupied step of a signature: its position in the query grid and
/// the raw id of its dominating cell. A signature is a step-ascending list
/// of these.
struct SignatureStep {
  uint64_t step = 0;
  uint64_t cell = 0;

  bool operator==(const SignatureStep&) const = default;
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

/// The largest num_buckets: bucket ids (lsh/lsh_index.h) pack the band and
/// the bucket into one uint64_t.
inline constexpr uint64_t kMaxLshBuckets = uint64_t{1} << 32;

/// InvalidArgument unless num_buckets is in [1, kMaxLshBuckets],
/// temporal_step_windows >= 1, similarity_threshold is in (0, 1) and
/// signature_spatial_level is in [0, leaf_level] — the checks a tool runs on
/// its LSH flags before reading any input.
Status ValidateLshConfig(const LshConfig& config, int leaf_level);

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
