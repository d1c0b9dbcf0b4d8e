#include "geo/cell_id.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/strings.h"

namespace slim {
namespace {

constexpr uint64_t kValidTag = 1ULL << 62;
constexpr int kLevelShift = 56;
constexpr int kIShift = 28;
constexpr uint64_t kIndexMask = (1ULL << 28) - 1;
constexpr uint64_t kLevelMask = 0x3f;

double GridCount(int level) {  // 2^level, exact
  return static_cast<double>(uint64_t{1} << level);
}

}  // namespace

CellId CellId::FromLatLng(const LatLng& point, int level) {
  SLIM_CHECK_MSG(level >= 0 && level <= kMaxLevel, "invalid cell level");
  const LatLng p = point.Normalized();
  const double n = GridCount(level);
  // Map lat [-90,90] -> [0,n), lng [-180,180) -> [0,n).
  double fi = (p.lat_deg + 90.0) / 180.0 * n;
  double fj = (p.lng_deg + 180.0) / 360.0 * n;
  uint64_t i = static_cast<uint64_t>(std::min(fi, n - 1.0));
  uint64_t j = static_cast<uint64_t>(std::min(fj, n - 1.0));
  return FromIndices(level, i, j);
}

CellId CellId::FromIndices(int level, uint64_t i, uint64_t j) {
  SLIM_CHECK_MSG(level >= 0 && level <= kMaxLevel, "invalid cell level");
  const uint64_t n = 1ULL << level;
  SLIM_CHECK_MSG(i < n && j < n, "cell index out of range for level");
  return CellId(kValidTag | (static_cast<uint64_t>(level) << kLevelShift) |
                (i << kIShift) | j);
}

CellId CellId::FromToken(const std::string& token) {
  if (token.empty() || token.size() > 16) return CellId();
  uint64_t raw = 0;
  for (char ch : token) {
    raw <<= 4;
    if (ch >= '0' && ch <= '9') {
      raw |= static_cast<uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      raw |= static_cast<uint64_t>(ch - 'a' + 10);
    } else {
      return CellId();
    }
  }
  CellId c(raw);
  return c.IsValid() ? c : CellId();
}

bool CellId::IsValid() const {
  if ((id_ & kValidTag) == 0) return false;
  if (id_ >> 63) return false;
  const int lvl = static_cast<int>((id_ >> kLevelShift) & kLevelMask);
  if (lvl > kMaxLevel) return false;
  const uint64_t n = 1ULL << lvl;
  return ((id_ >> kIShift) & kIndexMask) < n && (id_ & kIndexMask) < n;
}

int CellId::level() const {
  SLIM_DCHECK(IsValid());
  return static_cast<int>((id_ >> kLevelShift) & kLevelMask);
}

uint64_t CellId::i() const {
  SLIM_DCHECK(IsValid());
  return (id_ >> kIShift) & kIndexMask;
}

uint64_t CellId::j() const {
  SLIM_DCHECK(IsValid());
  return id_ & kIndexMask;
}

LatLngRect CellId::Bounds() const {
  SLIM_CHECK(IsValid());
  const double n = GridCount(level());
  LatLngRect r;
  r.lat_lo = -90.0 + 180.0 * static_cast<double>(i()) / n;
  r.lat_hi = -90.0 + 180.0 * static_cast<double>(i() + 1) / n;
  r.lng_lo = -180.0 + 360.0 * static_cast<double>(j()) / n;
  r.lng_hi = -180.0 + 360.0 * static_cast<double>(j() + 1) / n;
  return r;
}

LatLng CellId::CenterLatLng() const { return Bounds().Center(); }

CellId CellId::Parent(int target_level) const {
  SLIM_CHECK(IsValid());
  SLIM_CHECK_MSG(target_level >= 0 && target_level <= level(),
                 "Parent level must be in [0, level()]");
  const int shift = level() - target_level;
  return FromIndices(target_level, i() >> shift, j() >> shift);
}

CellId CellId::Parent() const {
  SLIM_CHECK_MSG(level() > 0, "level-0 cell has no parent");
  return Parent(level() - 1);
}

CellId CellId::Child(int k) const {
  SLIM_CHECK(IsValid());
  SLIM_CHECK_MSG(k >= 0 && k < 4, "child index must be 0..3");
  SLIM_CHECK_MSG(level() < kMaxLevel, "cell is already at kMaxLevel");
  const uint64_t ci = (i() << 1) | static_cast<uint64_t>(k >> 1);
  const uint64_t cj = (j() << 1) | static_cast<uint64_t>(k & 1);
  return FromIndices(level() + 1, ci, cj);
}

bool CellId::Contains(CellId other) const {
  if (!IsValid() || !other.IsValid()) return false;
  if (other.level() < level()) return false;
  return other.Parent(level()) == *this;
}

std::string CellId::ToToken() const {
  return StrFormat("%llx", static_cast<unsigned long long>(id_));
}

namespace {

// Nearest latitudes between two intervals: if they overlap, both outputs are
// the overlap endpoint of largest |lat| (great-circle longitude gaps shrink
// toward the poles, so the minimum distance uses the most poleward common
// latitude); otherwise the facing endpoints.
void NearestLats(const LatLngRect& a, const LatLngRect& b, double* la,
                 double* lb) {
  if (a.lat_hi < b.lat_lo) {
    *la = a.lat_hi;
    *lb = b.lat_lo;
  } else if (b.lat_hi < a.lat_lo) {
    *la = a.lat_lo;
    *lb = b.lat_hi;
  } else {
    const double lo = std::max(a.lat_lo, b.lat_lo);
    const double hi = std::min(a.lat_hi, b.lat_hi);
    const double poleward = std::abs(lo) > std::abs(hi) ? lo : hi;
    *la = poleward;
    *lb = poleward;
  }
}

// Nearest longitudes between two intervals on the [-180, 180) circle.
void NearestLngs(const LatLngRect& a, const LatLngRect& b, double* la,
                 double* lb) {
  // Overlap without wrap (cells never wrap across the antimeridian).
  if (a.lng_lo <= b.lng_hi && b.lng_lo <= a.lng_hi) {
    const double common = 0.5 * (std::max(a.lng_lo, b.lng_lo) +
                                 std::min(a.lng_hi, b.lng_hi));
    *la = common;
    *lb = common;
    return;
  }
  // Two candidate gaps: eastward from a to b and eastward from b to a.
  auto wrap360 = [](double x) {
    double y = std::fmod(x, 360.0);
    if (y < 0) y += 360.0;
    return y;
  };
  const double gap_ab = wrap360(b.lng_lo - a.lng_hi);  // a's east edge -> b
  const double gap_ba = wrap360(a.lng_lo - b.lng_hi);  // b's east edge -> a
  if (gap_ab <= gap_ba) {
    *la = a.lng_hi;
    *lb = b.lng_lo;
  } else {
    *la = a.lng_lo;
    *lb = b.lng_hi;
  }
}

}  // namespace

double MinDistanceMeters(CellId a, CellId b) {
  SLIM_CHECK(a.IsValid() && b.IsValid());
  if (a == b || a.Contains(b) || b.Contains(a)) return 0.0;
  const LatLngRect ra = a.Bounds();
  const LatLngRect rb = b.Bounds();
  double lat_a, lat_b, lng_a, lng_b;
  NearestLats(ra, rb, &lat_a, &lat_b);
  NearestLngs(ra, rb, &lng_a, &lng_b);
  return HaversineMeters(LatLng{lat_a, lng_a}, LatLng{lat_b, lng_b});
}

double CenterDistanceMeters(CellId a, CellId b) {
  SLIM_CHECK(a.IsValid() && b.IsValid());
  return HaversineMeters(a.CenterLatLng(), b.CenterLatLng());
}

double CellLatExtentMeters(int level) {
  SLIM_CHECK_MSG(level >= 0 && level <= CellId::kMaxLevel,
                 "invalid cell level");
  const double degrees = 180.0 / GridCount(level);
  return degrees * (M_PI / 180.0) * kEarthRadiusMeters;
}

}  // namespace slim
