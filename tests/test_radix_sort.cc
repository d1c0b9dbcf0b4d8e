// RadixSort (common/radix_sort.h) against std::stable_sort: multi-word
// keys, digits at the top of a word, words that never vary, inputs large
// enough for the parallel passes, and every thread count.
#include "common/radix_sort.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace slim {
namespace {

struct Item {
  uint64_t hi;
  uint64_t lo;
  uint32_t pos;  // input position, to observe stability
};

// Two-word keys (lo least significant) with only `hi_mask` / `lo_mask`
// bits free to vary, over a narrow value set so that equal keys repeat.
std::vector<Item> RandomItems(size_t n, uint64_t hi_mask, uint64_t lo_mask,
                              uint64_t seed) {
  Rng rng(seed);
  const uint64_t base_hi = rng.Next() & ~hi_mask;
  const uint64_t base_lo = rng.Next() & ~lo_mask;
  std::vector<Item> items(n);
  for (size_t k = 0; k < n; ++k) {
    const uint64_t pick = rng.NextUint64(4096);
    items[k] = {base_hi | ((pick * 0x9e3779b97f4a7c15ULL) & hi_mask),
                base_lo | ((pick * 0xd1b54a32d192ed03ULL) & lo_mask),
                static_cast<uint32_t>(k)};
  }
  return items;
}

void ExpectSortsLikeStableSort(std::vector<Item> items, int threads) {
  std::vector<Item> want = items;
  std::stable_sort(want.begin(), want.end(),
                   [](const Item& a, const Item& b) {
                     return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
                   });
  std::vector<Item> scratch;
  RadixSort(
      &items, &scratch, 2,
      [](const Item& item, int word) { return word == 0 ? item.lo : item.hi; },
      threads);
  ASSERT_EQ(items.size(), want.size());
  for (size_t k = 0; k < items.size(); ++k) {
    ASSERT_EQ(items[k].pos, want[k].pos) << "position " << k;
  }
}

TEST(RadixSort, MatchesStableSortAtEveryThreadCount) {
  // 100k items take the parallel passes; the masks put varying bits at
  // the bottom, the middle and the top (a digit past bit 63) of a word.
  const uint64_t masks[][2] = {
      {0, 0xffff},
      {0xff00000000000000ULL, 0x3f},
      {0x8000000000000001ULL, 0x00ff000000ff0000ULL},
      {0xffffffffffffffffULL, 0},
  };
  for (const auto& mask : masks) {
    const std::vector<Item> items = RandomItems(100000, mask[0], mask[1], 3);
    for (const int threads : {1, 2, 3, 4}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads << " masks "
                                        << mask[0] << " " << mask[1]);
      ExpectSortsLikeStableSort(items, threads);
    }
  }
}

TEST(RadixSort, SmallAndConstantInputs) {
  ExpectSortsLikeStableSort({}, 4);
  ExpectSortsLikeStableSort(RandomItems(1, ~0ULL, ~0ULL, 5), 4);
  ExpectSortsLikeStableSort(RandomItems(500, ~0ULL, ~0ULL, 6), 4);
  // Every key equal: no pass runs and the order stays as it was.
  ExpectSortsLikeStableSort(RandomItems(50000, 0, 0, 7), 4);
}

TEST(RadixSort, ScratchIsReusableAcrossSorts) {
  std::vector<Item> scratch;
  for (const size_t n : {70000, 40000, 90000}) {
    std::vector<Item> items = RandomItems(n, 0xfff, 0xfff000, n);
    std::vector<Item> want = items;
    std::stable_sort(want.begin(), want.end(),
                     [](const Item& a, const Item& b) {
                       return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
                     });
    RadixSort(
        &items, &scratch, 2,
        [](const Item& item, int word) {
          return word == 0 ? item.lo : item.hi;
        },
        3);
    for (size_t k = 0; k < n; ++k) ASSERT_EQ(items[k].pos, want[k].pos);
  }
}

}  // namespace
}  // namespace slim
