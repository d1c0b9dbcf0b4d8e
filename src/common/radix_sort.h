// Stable LSD radix sort over multi-word unsigned keys: the sort behind the
// flat context builder (core/linkage_context.cc) and the LSH bucket table
// (lsh/lsh_index.cc).
#ifndef SLIM_COMMON_RADIX_SORT_H_
#define SLIM_COMMON_RADIX_SORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel.h"

namespace slim {

/// Sorts `items` stably by the key whose words are word(item, 0..words-1),
/// word 0 the least significant, each compared as an unsigned integer.
/// `scratch` is the pass buffer, resized to items->size(); callers sorting
/// several arrays pass one scratch to all, so it is allocated once.
///
/// Only bits that vary between items are sorted on: they are dealt, least
/// significant first and across word boundaries, into as few passes of at
/// most 11 bits as they fill, so bits every item shares cost nothing. Each
/// pass counts and scatters contiguous ranges of items over `threads`
/// workers (<= 0: the library default; small inputs run inline). The
/// sorted order of a stable sort is unique, so the result is the same at
/// every thread count.
template <typename T, typename Word>
void RadixSort(std::vector<T>* items, std::vector<T>* scratch, int words,
               Word word, int threads) {
  constexpr size_t kBits = 11;
  constexpr size_t kMinParallel = size_t{1} << 15;
  const size_t n = items->size();
  if (n < 2) return;
  const int requested = threads > 0 ? threads : DefaultThreadCount();
  const size_t shards = n < kMinParallel
                            ? 1
                            : std::min(static_cast<size_t>(requested), n);
  const int workers = static_cast<int>(shards);

  // (word, bit) of every bit that differs between items, least
  // significant first.
  std::vector<std::pair<int, int>> bits;
  for (int w = 0; w < words; ++w) {
    const uint64_t first = word((*items)[0], w);
    uint64_t mask = 0;
    for (const T& item : *items) mask |= word(item, w) ^ first;
    for (int b = 0; b < 64; ++b) {
      if ((mask >> b) & 1) bits.emplace_back(w, b);
    }
  }

  // A pass's digit gathers runs of adjacent bits: bits [shift, shift +
  // width) of word `w` land at digit bit `out`.
  struct Run {
    int w;
    int shift;
    uint64_t mask;
    int out;
  };
  std::vector<Run> runs;
  std::vector<size_t> start;
  std::vector<T>& sorted = *scratch;
  const size_t passes = (bits.size() + kBits - 1) / kBits;
  for (size_t pass = 0; pass < passes; ++pass) {
    const size_t first = pass * bits.size() / passes;
    const size_t last = (pass + 1) * bits.size() / passes;
    runs.clear();
    for (size_t k = first; k < last; ++k) {
      const auto [w, b] = bits[k];
      if (k > first && bits[k - 1] == std::pair{w, b - 1}) {
        runs.back().mask = runs.back().mask << 1 | 1;
      } else {
        runs.push_back({w, b, 1, static_cast<int>(k - first)});
      }
    }
    const auto digit = [&](const T& item) {
      uint64_t d = 0;
      for (const Run& r : runs) {
        d |= (word(item, r.w) >> r.shift & r.mask) << r.out;
      }
      return static_cast<size_t>(d);
    };
    const size_t radix = size_t{1} << (last - first);
    if (sorted.size() != n) sorted.resize(n);
    // start[s * radix + d]: where shard s writes its first item of digit
    // d — after every item of a smaller digit, and after the items of
    // digit d in earlier shards.
    start.assign(shards * radix, 0);
    ParallelFor(
        n,
        [&](size_t begin, size_t end, int shard) {
          size_t* count = &start[static_cast<size_t>(shard) * radix];
          for (size_t k = begin; k < end; ++k) ++count[digit((*items)[k])];
        },
        workers);
    size_t offset = 0;
    for (size_t d = 0; d < radix; ++d) {
      for (size_t s = 0; s < shards; ++s) {
        const size_t count = start[s * radix + d];
        start[s * radix + d] = offset;
        offset += count;
      }
    }
    ParallelFor(
        n,
        [&](size_t begin, size_t end, int shard) {
          size_t* next = &start[static_cast<size_t>(shard) * radix];
          for (size_t k = begin; k < end; ++k) {
            sorted[next[digit((*items)[k])]++] = (*items)[k];
          }
        },
        workers);
    items->swap(sorted);
  }
}

}  // namespace slim

#endif  // SLIM_COMMON_RADIX_SORT_H_
