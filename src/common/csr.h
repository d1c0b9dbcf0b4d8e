// Compressed sparse rows: the flat list-of-lists layout of the candidate
// stage (per-entity LSH bucket ids, per-left candidate lists).
#ifndef SLIM_COMMON_CSR_H_
#define SLIM_COMMON_CSR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.h"

namespace slim {

/// Row k holds values[offsets[k], offsets[k + 1]).
template <typename T>
struct Csr {
  std::vector<uint64_t> offsets{0};
  std::vector<T> values;

  size_t rows() const { return offsets.size() - 1; }
  std::span<const T> row(size_t k) const {
    return {values.data() + offsets[k], values.data() + offsets[k + 1]};
  }
  bool operator==(const Csr&) const = default;
};

/// Builds an n-row Csr over `threads` workers (<= 0: the library default).
/// fill(k, &out) appends row k's values to `out`, its shard's buffer. The
/// contiguous shards are concatenated in order, so the result is identical
/// at every thread count.
template <typename T, typename Fill>
Csr<T> BuildCsr(size_t n, int threads, Fill fill) {
  const int shards = threads > 0 ? threads : DefaultThreadCount();
  std::vector<std::vector<T>> shard_values(static_cast<size_t>(shards));
  Csr<T> csr;
  csr.offsets.assign(n + 1, 0);
  ParallelFor(
      n,
      [&](size_t begin, size_t end, int shard) {
        std::vector<T>& out = shard_values[static_cast<size_t>(shard)];
        for (size_t k = begin; k < end; ++k) {
          const size_t before = out.size();
          fill(k, &out);
          csr.offsets[k + 1] = out.size() - before;
        }
      },
      threads);
  for (size_t k = 0; k < n; ++k) csr.offsets[k + 1] += csr.offsets[k];
  csr.values.reserve(csr.offsets.back());
  for (const std::vector<T>& values : shard_values) {
    csr.values.insert(csr.values.end(), values.begin(), values.end());
  }
  return csr;
}

}  // namespace slim

#endif  // SLIM_COMMON_CSR_H_
