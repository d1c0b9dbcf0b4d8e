#include "lsh/signature.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "stats/lambert_w.h"

namespace slim {

Status ValidateLshConfig(const LshConfig& config, int leaf_level) {
  const double t = config.similarity_threshold;
  const int level = config.signature_spatial_level;
  std::string bad;
  if (config.num_buckets < 1 || config.num_buckets > kMaxLshBuckets) {
    bad = "buckets (--lsh_buckets) must be in [1, 2^32]";
  } else if (config.temporal_step_windows < 1) {
    bad = "step (--lsh_step) must be >= 1";
  } else if (!(t > 0.0 && t < 1.0)) {  // negated, so that NaN fails too
    bad = "threshold (--lsh_threshold) must be in (0, 1)";
  } else if (level < 0 || level > leaf_level) {
    bad = "level (--lsh_level) must be in [0, " + std::to_string(leaf_level) +
          "], the spatial level";
  }
  return bad.empty() ? Status::Ok() : Status::InvalidArgument("LSH " + bad);
}

int ComputeNumBands(size_t signature_size, double threshold) {
  SLIM_CHECK_MSG(signature_size >= 1, "signature size must be >= 1");
  SLIM_CHECK_MSG(threshold > 0.0 && threshold < 1.0,
                 "threshold must be in (0, 1)");
  const double s = static_cast<double>(signature_size);
  const double b = std::exp(LambertW0(-s * std::log(threshold)));
  // Clamped in double first: a huge signature must not overflow the int.
  const double max_bands =
      std::min(s, static_cast<double>(std::numeric_limits<int>::max()));
  return static_cast<int>(std::lround(std::clamp(b, 1.0, max_bands)));
}

double BandCollisionProbability(double t, int rows_per_band, int num_bands) {
  SLIM_CHECK_MSG(rows_per_band >= 1 && num_bands >= 1, "invalid banding");
  return 1.0 - std::pow(1.0 - std::pow(t, rows_per_band), num_bands);
}

double ApproximateThreshold(int rows_per_band, int num_bands) {
  SLIM_CHECK_MSG(rows_per_band >= 1 && num_bands >= 1, "invalid banding");
  return std::pow(1.0 / static_cast<double>(num_bands),
                  1.0 / static_cast<double>(rows_per_band));
}

}  // namespace slim
