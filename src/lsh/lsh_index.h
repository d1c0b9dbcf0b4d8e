// Banded LSH over mobility-history signatures (paper Sec. 4).
//
// A signature (lsh/signature.h) is cut into b bands of r rows; each band
// is hashed into one of num_buckets buckets, and a cross-dataset pair
// becomes a linkage candidate when any band of the two signatures lands in
// the same bucket. The band count is derived from the similarity threshold
// via the Lambert-W sizing (signature.h). Placeholder (empty) steps are
// omitted from a band's hash; a band that is entirely placeholders is not
// hashed at all (an empty band carries no evidence).
//
// Storage is sparse and flat. A hashed band is named by one bucket id,
// band * num_buckets + hash % num_buckets, so "same band, same bucket" is
// id equality. Each side keeps its entities' bucket ids as one CSR
// (common/csr.h), ascending within an entity; empty bands store nothing,
// and no structure is sized by num_buckets. GatherLshCandidates joins the
// two sides through one sorted (bucket id, left position) table and writes
// the candidate lists as one CSR.
#ifndef SLIM_LSH_LSH_INDEX_H_
#define SLIM_LSH_LSH_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/csr.h"
#include "lsh/signature.h"

namespace slim {

/// A fixed [lo, end) leaf-window range for the signature query grid.
/// Candidate collisions are a pairwise predicate over bucket ids, so
/// candidates gathered over a *subset* of one side, from bucket ids
/// computed under the same span, are exactly the full set's candidates
/// restricted to that subset — the property the sharded linkage driver
/// (core/sharded.h) relies on.
struct LshWindowSpan {
  int64_t lo = 0;
  int64_t end = 0;  // exclusive

  bool empty() const { return lo >= end; }
  bool operator==(const LshWindowSpan&) const = default;
};

/// The band layout of one query grid, and the band hash over it.
struct LshBanding {
  uint64_t signature_size = 0;  // s = ceil(span / step)
  uint64_t num_bands = 0;       // b = ComputeNumBands(s, t)
  uint64_t rows_per_band = 0;   // r = ceil(s / b)
  uint64_t num_buckets = 1;
  uint64_t hash_seed = 0;

  /// The layout of `span` cut into steps of config.temporal_step_windows
  /// leaf windows; zero bands for an empty span. Requires a config that
  /// passes ValidateLshConfig.
  static LshBanding Of(const LshWindowSpan& span, const LshConfig& config);

  /// Appends the bucket id of every band of `signature` that holds an
  /// occupied step, in ascending band order (so ascending ids). Steps must
  /// ascend and lie below signature_size.
  void AppendBucketIds(std::span<const SignatureStep> signature,
                       std::vector<uint64_t>* out) const;
};

/// For each left entity (a row of `left`), the right entities (rows of
/// `right`) sharing at least one bucket id with it, as ascending,
/// de-duplicated row positions plus `right_base`. Data-parallel over
/// contiguous left chunks of `threads` workers (<= 0 means the library
/// default; see common/parallel.h); identical at every thread count.
Csr<uint32_t> GatherLshCandidates(const Csr<uint64_t>& left,
                                  const Csr<uint64_t>& right,
                                  uint32_t right_base, int threads = 0);

}  // namespace slim

#endif  // SLIM_LSH_LSH_INDEX_H_
