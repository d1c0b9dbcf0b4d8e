#include "lsh/lsh_index.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace slim {
namespace {

// 64-bit mix for band hashing (SplitMix64 finaliser).
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A bucket id with a position (a left entity, or an index into the right
// side's ids).
struct Entry {
  uint64_t bucket;
  uint32_t pos;
};

// Sorts entries by bucket id, stably: an LSD radix sort over 11-bit
// digits, as many as the largest id needs, so nothing is sized by the
// bucket count. Entries that arrive ascending by position leave ordered by
// (bucket id, position).
void SortByBucket(std::vector<Entry>* entries) {
  constexpr int kBits = 11;
  constexpr uint64_t kMask = (uint64_t{1} << kBits) - 1;
  uint64_t max_id = 0;
  for (const Entry& e : *entries) max_id = std::max(max_id, e.bucket);
  std::vector<Entry> sorted(entries->size());
  for (int shift = 0; shift < 64 && (max_id >> shift) != 0; shift += kBits) {
    std::array<size_t, kMask + 2> start{};
    for (const Entry& e : *entries) ++start[((e.bucket >> shift) & kMask) + 1];
    for (size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const Entry& e : *entries) {
      sorted[start[(e.bucket >> shift) & kMask]++] = e;
    }
    entries->swap(sorted);
  }
}

}  // namespace

LshBanding LshBanding::Of(const LshWindowSpan& span, const LshConfig& config) {
  // The level's bound by the leaf level is the caller's to check.
  SLIM_CHECK_MSG(ValidateLshConfig(config, config.signature_spatial_level).ok(),
                 "invalid LSH config");
  LshBanding banding;
  banding.num_buckets = config.num_buckets;
  banding.hash_seed = config.hash_seed;
  if (span.empty()) return banding;
  // Unsigned, so that no span width overflows.
  const uint64_t width =
      static_cast<uint64_t>(span.end) - static_cast<uint64_t>(span.lo);
  const auto step = static_cast<uint64_t>(config.temporal_step_windows);
  banding.signature_size = width / step + (width % step != 0 ? 1 : 0);
  banding.num_bands = static_cast<uint64_t>(
      ComputeNumBands(banding.signature_size, config.similarity_threshold));
  banding.rows_per_band =
      (banding.signature_size + banding.num_bands - 1) / banding.num_bands;
  return banding;
}

void LshBanding::AppendBucketIds(std::span<const SignatureStep> signature,
                                 std::vector<uint64_t>* out) const {
  for (size_t k = 0; k < signature.size();) {
    const uint64_t band = signature[k].step / rows_per_band;
    uint64_t h = hash_seed ^ Mix(band * rows_per_band * 0x9e3779b97f4a7c15ULL);
    for (; k < signature.size() && signature[k].step / rows_per_band == band;
         ++k) {
      // Positions participate so that the same cell in different query
      // windows does not collide.
      h = Mix(h ^ Mix((signature[k].step + 1) * 0xd1b54a32d192ed03ULL) ^
              signature[k].cell);
    }
    out->push_back(band * num_buckets + h % num_buckets);
  }
}

Csr<uint32_t> GatherLshCandidates(const Csr<uint64_t>& left,
                                  const Csr<uint64_t>& right,
                                  uint32_t right_base, int threads) {
  const size_t lefts = left.rows();
  Csr<uint32_t> out;
  out.offsets.assign(lefts + 1, 0);
  if (lefts == 0 || right.values.empty()) return out;
  SLIM_CHECK_MSG(left.values.size() < std::numeric_limits<uint32_t>::max() &&
                     right.values.size() < std::numeric_limits<uint32_t>::max(),
                 "too many bucket ids for one gather");

  // The bucket table: one (bucket id, left position) entry per left bucket
  // id, sorted. The probes: every right bucket id with its index into
  // right.values, sorted by bucket id.
  std::vector<Entry> table(left.values.size()), probes(right.values.size());
  for (size_t u = 0; u < lefts; ++u) {
    for (uint64_t p = left.offsets[u]; p < left.offsets[u + 1]; ++p) {
      table[p] = {left.values[p], static_cast<uint32_t>(u)};
    }
  }
  for (size_t j = 0; j < probes.size(); ++j) {
    probes[j] = {right.values[j], static_cast<uint32_t>(j)};
  }
  SortByBucket(&table);
  SortByBucket(&probes);
  // runs[j]: the table range holding right id j's bucket, from a merge
  // join (both sides ascend by bucket id).
  std::vector<std::pair<const Entry*, const Entry*>> runs(probes.size());
  const Entry* first = table.data();
  const Entry* last = table.data();
  const Entry* const table_end = table.data() + table.size();
  for (size_t k = 0; k < probes.size(); ++k) {
    const uint64_t bucket = probes[k].bucket;
    if (k == 0 || bucket != probes[k - 1].bucket) {
      first = last;
      while (first != table_end && first->bucket < bucket) ++first;
      last = first;
      while (last != table_end && last->bucket == bucket) ++last;
    }
    runs[probes[k].pos] = {first, last};
  }

  // Calls visit(u, v) for every left u in [begin, end) sharing a bucket id
  // with right v, v ascending, so a left's list comes out ascending with
  // duplicates (several shared bands) adjacent, whatever the partition.
  const auto scan = [&](size_t begin, size_t end, auto&& visit) {
    for (size_t v = 0; v < right.rows(); ++v) {
      for (uint64_t j = right.offsets[v]; j < right.offsets[v + 1]; ++j) {
        // A run ascends by left position.
        const Entry* e = std::lower_bound(
            runs[j].first, runs[j].second, begin,
            [](const Entry& x, size_t u) { return x.pos < u; });
        for (; e != runs[j].second && e->pos < end; ++e) {
          visit(e->pos, static_cast<uint32_t>(v));
        }
      }
    }
  };

  // Parallel over contiguous left ranges: pass 1 counts each left's
  // distinct rights, pass 2 writes them.
  ParallelFor(
      lefts,
      [&](size_t begin, size_t end, int) {
        std::vector<uint32_t> seen(end - begin,
                                   std::numeric_limits<uint32_t>::max());
        scan(begin, end, [&](uint32_t u, uint32_t v) {
          if (seen[u - begin] == v) return;
          seen[u - begin] = v;
          ++out.offsets[u + 1];
        });
      },
      threads);
  for (size_t u = 0; u < lefts; ++u) out.offsets[u + 1] += out.offsets[u];
  out.values.resize(out.offsets.back());
  ParallelFor(
      lefts,
      [&](size_t begin, size_t end, int) {
        std::vector<uint64_t> cursor(
            out.offsets.begin() + static_cast<ptrdiff_t>(begin),
            out.offsets.begin() + static_cast<ptrdiff_t>(end));
        scan(begin, end, [&](uint32_t u, uint32_t v) {
          uint64_t& k = cursor[u - begin];
          const uint32_t value = right_base + v;
          if (k > out.offsets[u] && out.values[k - 1] == value) return;
          out.values[k++] = value;
        });
      },
      threads);
  return out;
}

}  // namespace slim
