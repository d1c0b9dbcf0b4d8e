#include "lsh/signature.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "stats/lambert_w.h"

namespace slim {

double SignatureSimilarity(const LshSignature& a, const LshSignature& b) {
  SLIM_CHECK_MSG(a.size() == b.size(), "signature size mismatch");
  if (a.size() == 0) return 0.0;
  size_t matches = 0;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a.cells[k] != kSignaturePlaceholder && a.cells[k] == b.cells[k]) {
      ++matches;
    }
  }
  return static_cast<double>(matches) / static_cast<double>(a.size());
}

int ComputeNumBands(size_t signature_size, double threshold) {
  SLIM_CHECK_MSG(signature_size >= 1, "signature size must be >= 1");
  SLIM_CHECK_MSG(threshold > 0.0 && threshold < 1.0,
                 "threshold must be in (0, 1)");
  const double s = static_cast<double>(signature_size);
  const double b = std::exp(LambertW0(-s * std::log(threshold)));
  const long rounded = std::lround(b);
  return static_cast<int>(
      std::clamp<long>(rounded, 1, static_cast<long>(signature_size)));
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
