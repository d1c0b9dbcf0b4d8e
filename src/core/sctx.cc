#include "core/sctx.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/io.h"

namespace slim {
namespace {

constexpr char kMagic[4] = {'S', 'C', 'T', 'X'};

// Fixed-size header preceding the flat arrays. Every array offset is a
// function of these counts, so reader and writer agree on the layout by
// construction.
struct SctxHeader {
  uint64_t file_size = 0;
  int32_t spatial_level = 0;
  int64_t window_seconds = 0;
  double region_radius_meters = 0.0;
  uint64_t vocab_size = 0;
  // Per store (E = 0, I = 1).
  uint64_t entities[2] = {0, 0};
  uint64_t total_bins[2] = {0, 0};
  uint64_t total_windows[2] = {0, 0};
};

constexpr size_t kHeaderBytes = 4 + 4 +  // magic, version
                                8 +      // file_size
                                4 + 4 +  // spatial_level, pad
                                8 + 8 +  // window_seconds, region_radius
                                8 +      // vocab_size
                                2 * (8 + 8 + 8);  // per-store counts

size_t Pad8(size_t bytes) { return (bytes + 7) & ~size_t{7}; }

// Appends raw bytes through the FileWriter's 1 MB buffer in bounded
// chunks, so serialising a multi-GB array never doubles it in heap.
void AppendBytes(FileWriter* w, const void* data, size_t bytes) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const size_t chunk = std::min(bytes, size_t{1} << 20);
    w->buf().append(p, chunk);
    w->FlushIfFull();
    p += chunk;
    bytes -= chunk;
  }
}

template <typename T>
void AppendScalar(FileWriter* w, T value) {
  AppendBytes(w, &value, sizeof(T));
}

template <typename T>
void AppendArray(FileWriter* w, const T* data, size_t count) {
  const size_t bytes = count * sizeof(T);
  AppendBytes(w, data, bytes);
  static constexpr char kZeros[8] = {0};
  w->buf().append(kZeros, Pad8(bytes) - bytes);
  w->FlushIfFull();
}

// Bounds-checked sequential reader over the mapped bytes. Take<T>(count)
// returns the array pointer and advances past its 8-byte padding; any
// out-of-range take poisons the cursor instead of reading outside the
// mapping.
struct MapCursor {
  const char* base = nullptr;
  size_t size = 0;
  size_t pos = 0;
  bool ok = true;

  template <typename T>
  const T* Take(size_t count) {
    const size_t bytes = Pad8(count * sizeof(T));
    if (!ok || size - pos < bytes) {
      ok = false;
      return nullptr;
    }
    const T* p = reinterpret_cast<const T*>(base + pos);
    pos += bytes;
    return p;
  }

  template <typename T>
  T ReadScalar() {
    T value{};
    if (!ok || size - pos < sizeof(T)) {
      ok = false;
      return value;
    }
    std::memcpy(&value, base + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }
};

}  // namespace

// Friend of BinVocabulary / HistoryStore (core/linkage_context.h): the
// serialisation layer reads the private flat arrays for writing and
// installs mapped views on loading.
class SctxIo {
 public:
  static Status Write(const LinkageContext& ctx, const std::string& path) {
    const HistoryStore* stores[2] = {&ctx.store_e, &ctx.store_i};
    SctxHeader h;
    h.spatial_level = ctx.config.spatial_level;
    h.window_seconds = ctx.config.window_seconds;
    h.region_radius_meters = ctx.config.region_radius_meters;
    h.vocab_size = ctx.vocab.size();
    uint64_t size = kHeaderBytes;
    size += Pad8(h.vocab_size * sizeof(int64_t));   // vocab windows
    size += Pad8(h.vocab_size * sizeof(uint64_t));  // vocab cells
    for (int s = 0; s < 2; ++s) {
      const HistoryStore& store = *stores[s];
      h.entities[s] = store.entity_ids_.size();
      h.total_bins[s] = store.bin_ids_.size();
      h.total_windows[s] = store.windows_.size();
      size += Pad8(h.entities[s] * sizeof(EntityId));            // entity ids
      size += Pad8(h.entities[s] * sizeof(uint64_t));            // records
      size += Pad8(store.window_masks_.size() * sizeof(uint64_t));
      size += Pad8(h.vocab_size * sizeof(double));               // idf
      size += Pad8(h.total_windows[s] * sizeof(int64_t));        // windows
      size += Pad8((h.entities[s] + 1) * sizeof(uint32_t)) * 2;  // offsets
      size += Pad8((h.total_windows[s] + 1) * sizeof(uint32_t));
      size += Pad8(h.vocab_size * sizeof(uint32_t));  // holder counts
      size += Pad8(h.total_bins[s] * sizeof(uint32_t)) * 2;  // ids, counts
      size += Pad8(h.total_bins[s] * sizeof(uint16_t));      // quantized
    }
    h.file_size = size;

    FileWriter w(path);
    if (!w.ok()) return Status::IoError("cannot open for write: " + path);
    AppendBytes(&w, kMagic, sizeof(kMagic));
    AppendScalar(&w, kSctxVersion);
    AppendScalar(&w, h.file_size);
    AppendScalar(&w, h.spatial_level);
    AppendScalar(&w, uint32_t{0});  // pad
    AppendScalar(&w, h.window_seconds);
    AppendScalar(&w, h.region_radius_meters);
    AppendScalar(&w, h.vocab_size);
    for (int s = 0; s < 2; ++s) {
      AppendScalar(&w, h.entities[s]);
      AppendScalar(&w, h.total_bins[s]);
      AppendScalar(&w, h.total_windows[s]);
    }
    AppendArray(&w, ctx.vocab.windows_.data(), ctx.vocab.windows_.size());
    // Cells serialise as their raw 64-bit ids (CellId is a uint64 wrapper
    // with identical layout, but raw ids keep the format explicit).
    {
      std::vector<uint64_t> raw(ctx.vocab.size());
      for (size_t b = 0; b < raw.size(); ++b) {
        raw[b] = ctx.vocab.cells_[b].raw();
      }
      AppendArray(&w, raw.data(), raw.size());
    }
    for (int s = 0; s < 2; ++s) {
      const HistoryStore& store = *stores[s];
      AppendArray(&w, store.entity_ids_.data(), store.entity_ids_.size());
      AppendArray(&w, store.total_records_.data(),
                  store.total_records_.size());
      AppendArray(&w, store.window_masks_.data(), store.window_masks_.size());
      AppendArray(&w, store.idf_.data(), store.idf_.size());
      AppendArray(&w, store.windows_.data(), store.windows_.size());
      AppendArray(&w, store.bin_offsets_.data(), store.bin_offsets_.size());
      AppendArray(&w, store.window_offsets_.data(),
                  store.window_offsets_.size());
      AppendArray(&w, store.window_bin_begin_.data(),
                  store.window_bin_begin_.size());
      AppendArray(&w, store.bin_entity_counts_.data(),
                  store.bin_entity_counts_.size());
      AppendArray(&w, store.bin_ids_.data(), store.bin_ids_.size());
      AppendArray(&w, store.bin_counts_.data(), store.bin_counts_.size());
      AppendArray(&w, store.quantized_counts_.data(),
                  store.quantized_counts_.size());
    }
    return w.Finish(path);
  }

  static Result<LinkageContext> Read(const std::string& path) {
    auto contents = std::make_shared<FileContents>();
    if (Status s = contents->Open(path); !s.ok()) return s;
    const std::string_view view = contents->view();
    MapCursor c{view.data(), view.size()};
    if (view.size() < kHeaderBytes) {
      return Status::IoError("SCTX truncated header: " + path);
    }
    char magic[4];
    std::memcpy(magic, view.data(), 4);
    c.pos = 4;
    if (std::memcmp(magic, kMagic, 4) != 0) {
      return Status::InvalidArgument("not an SCTX file (bad magic): " + path);
    }
    const uint32_t version = c.ReadScalar<uint32_t>();
    if (version != kSctxVersion) {
      return Status::InvalidArgument(
          "unsupported SCTX version " + std::to_string(version) +
          " (this build reads v" + std::to_string(kSctxVersion) +
          "): " + path);
    }
    SctxHeader h;
    h.file_size = c.ReadScalar<uint64_t>();
    if (h.file_size != view.size()) {
      return Status::IoError(
          "SCTX size mismatch (header says " + std::to_string(h.file_size) +
          " bytes, file has " + std::to_string(view.size()) + "): " + path);
    }
    h.spatial_level = c.ReadScalar<int32_t>();
    (void)c.ReadScalar<uint32_t>();  // pad
    h.window_seconds = c.ReadScalar<int64_t>();
    h.region_radius_meters = c.ReadScalar<double>();
    h.vocab_size = c.ReadScalar<uint64_t>();
    for (int s = 0; s < 2; ++s) {
      h.entities[s] = c.ReadScalar<uint64_t>();
      h.total_bins[s] = c.ReadScalar<uint64_t>();
      h.total_windows[s] = c.ReadScalar<uint64_t>();
    }
    if (!c.ok || c.pos != kHeaderBytes) {
      return Status::Internal("SCTX header cursor mismatch: " + path);
    }
    if (h.spatial_level < 0 || h.spatial_level > CellId::kMaxLevel ||
        h.window_seconds <= 0) {
      return Status::InvalidArgument("SCTX history resolution corrupt: " +
                                     path);
    }
    // The CSR offsets are 32-bit; a header that exceeds them is either
    // corrupt or from a future format.
    if (h.vocab_size > UINT32_MAX) {
      return Status::InvalidArgument("SCTX vocabulary too large: " + path);
    }
    for (int s = 0; s < 2; ++s) {
      if (h.entities[s] >= UINT32_MAX || h.total_bins[s] > UINT32_MAX ||
          h.total_windows[s] > UINT32_MAX) {
        return Status::InvalidArgument("SCTX store counts corrupt: " + path);
      }
    }

    LinkageContext ctx;
    ctx.config.spatial_level = h.spatial_level;
    ctx.config.window_seconds = h.window_seconds;
    ctx.config.region_radius_meters = h.region_radius_meters;
    ctx.backing = contents;  // views below stay valid with the context

    const size_t vocab = static_cast<size_t>(h.vocab_size);
    const int64_t* vocab_windows = c.Take<int64_t>(vocab);
    const uint64_t* vocab_cells = c.Take<uint64_t>(vocab);
    if (!c.ok) return Status::IoError("SCTX truncated (vocabulary): " + path);
    ctx.vocab.windows_ = FlatArray<int64_t>::View(vocab_windows, vocab);
    static_assert(sizeof(CellId) == sizeof(uint64_t),
                  "CellId must be layout-identical to its raw id");
    ctx.vocab.cells_ =
        FlatArray<CellId>::View(reinterpret_cast<const CellId*>(vocab_cells),
                                vocab);
    // The signature pass lifts every cell to a coarser level, which is
    // only defined for valid cells at the leaf level the header declares.
    for (size_t b = 0; b < vocab; ++b) {
      const CellId cell = ctx.vocab.cells_[b];
      if (!cell.IsValid() || cell.level() != h.spatial_level) {
        return Status::InvalidArgument("SCTX vocabulary cell corrupt: " +
                                       path);
      }
    }
    // The LSH query grid spans these windows; its width plus a step (an
    // int) must fit in an int64_t.
    if (vocab > 0) {
      const auto [lo, hi] =
          std::minmax_element(vocab_windows, vocab_windows + vocab);
      const uint64_t range =
          static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
      if (range > static_cast<uint64_t>(INT64_MAX - INT_MAX)) {
        return Status::InvalidArgument(
            "SCTX vocabulary windows too far apart: " + path);
      }
    }

    HistoryStore* stores[2] = {&ctx.store_e, &ctx.store_i};
    for (int s = 0; s < 2; ++s) {
      HistoryStore& store = *stores[s];
      const size_t n = static_cast<size_t>(h.entities[s]);
      const size_t tb = static_cast<size_t>(h.total_bins[s]);
      const size_t tw = static_cast<size_t>(h.total_windows[s]);
      store.entity_ids_ = FlatArray<EntityId>::View(c.Take<EntityId>(n), n);
      store.total_records_ = FlatArray<uint64_t>::View(c.Take<uint64_t>(n), n);
      const size_t mask_words = n * HistoryStore::kWindowMaskWords;
      store.window_masks_ =
          FlatArray<uint64_t>::View(c.Take<uint64_t>(mask_words), mask_words);
      store.idf_ = FlatArray<double>::View(c.Take<double>(vocab), vocab);
      store.windows_ = FlatArray<int64_t>::View(c.Take<int64_t>(tw), tw);
      store.bin_offsets_ =
          FlatArray<uint32_t>::View(c.Take<uint32_t>(n + 1), n + 1);
      store.window_offsets_ =
          FlatArray<uint32_t>::View(c.Take<uint32_t>(n + 1), n + 1);
      store.window_bin_begin_ =
          FlatArray<uint32_t>::View(c.Take<uint32_t>(tw + 1), tw + 1);
      store.bin_entity_counts_ =
          FlatArray<uint32_t>::View(c.Take<uint32_t>(vocab), vocab);
      store.bin_ids_ = FlatArray<BinId>::View(c.Take<BinId>(tb), tb);
      store.bin_counts_ = FlatArray<uint32_t>::View(c.Take<uint32_t>(tb), tb);
      store.quantized_counts_ =
          FlatArray<uint16_t>::View(c.Take<uint16_t>(tb), tb);
      if (!c.ok) {
        return Status::IoError("SCTX truncated (store arrays): " + path);
      }
      if (const char* error = CsrError(store, ctx.vocab.windows_);
          error != nullptr) {
        return Status::InvalidArgument(std::string("SCTX ") + error + ": " +
                                       path);
      }
      // Identical to the builder's division, so avg-dependent scores match
      // bit for bit.
      store.avg_bins_ =
          n == 0 ? 0.0 : static_cast<double>(tb) / static_cast<double>(n);
    }
    if (c.pos != view.size()) {
      return Status::InvalidArgument("SCTX trailing bytes: " + path);
    }
    return ctx;
  }

 private:
  // Structural consistency of one mapped store: every span accessor and
  // per-bin lookup indexes with these bytes, so a corrupt file must fail
  // here rather than steer a read outside the mapping. The CSR offsets
  // must start at 0, be monotone, and end at the header counts; each
  // window's bin range must nest inside its entity's; each entity's
  // windows must ascend strictly; every bin id must be in the vocabulary,
  // and every bin's vocabulary window must be the window it is listed
  // under. Returns what is wrong, or nullptr.
  static const char* CsrError(const HistoryStore& store,
                              const FlatArray<int64_t>& vocab_windows) {
    const size_t n = store.entity_ids_.size();
    const auto& bin_offsets = store.bin_offsets_;
    const auto& window_offsets = store.window_offsets_;
    const auto& window_bin_begin = store.window_bin_begin_;
    const size_t tb = store.bin_ids_.size();
    const size_t tw = store.windows_.size();
    if (bin_offsets[0] != 0 || window_offsets[0] != 0 ||
        window_bin_begin[0] != 0 || bin_offsets[n] != tb ||
        window_offsets[n] != tw || window_bin_begin[tw] != tb) {
      return "CSR offsets corrupt";
    }
    for (size_t u = 0; u < n; ++u) {
      if (bin_offsets[u] > bin_offsets[u + 1] ||
          window_offsets[u] > window_offsets[u + 1]) {
        return "CSR offsets not monotone";
      }
    }
    for (size_t p = 0; p < tb; ++p) {
      if (store.bin_ids_[p] >= vocab_windows.size()) {
        return "bin id outside the vocabulary";
      }
    }
    // With monotone offsets pinned to [0, tw] and [0, tb], every index
    // below stays inside its array.
    for (size_t u = 0; u < n; ++u) {
      for (uint32_t w = window_offsets[u]; w < window_offsets[u + 1]; ++w) {
        if (window_bin_begin[w] < bin_offsets[u] ||
            window_bin_begin[w] > window_bin_begin[w + 1] ||
            window_bin_begin[w + 1] > bin_offsets[u + 1]) {
          return "window bin range outside its entity";
        }
        if (w > window_offsets[u] &&
            store.windows_[w - 1] >= store.windows_[w]) {
          return "windows not ascending";
        }
        for (uint32_t p = window_bin_begin[w]; p < window_bin_begin[w + 1];
             ++p) {
          if (vocab_windows[store.bin_ids_[p]] != store.windows_[w]) {
            return "window differs from its bins' vocabulary window";
          }
        }
      }
    }
    return nullptr;
  }
};

Status WriteSctx(const LinkageContext& context, const std::string& path) {
  return SctxIo::Write(context, path);
}

Result<LinkageContext> ReadSctx(const std::string& path,
                                const SctxReadOptions& /*options*/) {
  return SctxIo::Read(path);
}

}  // namespace slim
