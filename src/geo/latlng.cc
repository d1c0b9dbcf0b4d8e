#include "geo/latlng.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace slim {
namespace {

constexpr double kDegToRad = M_PI / 180.0;
constexpr double kRadToDeg = 180.0 / M_PI;

}  // namespace

bool LatLng::IsValid() const {
  return lat_deg >= -90.0 && lat_deg <= 90.0 && lng_deg >= -180.0 &&
         lng_deg < 180.0;
}

LatLng LatLng::Normalized() const {
  LatLng out;
  out.lat_deg = std::clamp(lat_deg, -90.0, 90.0);
  // An in-range longitude is its own remainder; only others pay for fmod.
  double lng = lng_deg;
  if (!(lng >= -180.0 && lng < 180.0)) {
    lng = std::fmod(lng, 360.0);
    if (lng < -180.0) lng += 360.0;
    if (lng >= 180.0) lng -= 360.0;
  }
  out.lng_deg = lng;
  return out;
}

std::string LatLng::ToString() const {
  return StrFormat("(%.6f, %.6f)", lat_deg, lng_deg);
}

double HaversineMeters(const LatLng& a, const LatLng& b) {
  const double lat1 = a.lat_deg * kDegToRad;
  const double lat2 = b.lat_deg * kDegToRad;
  const double dlat = (b.lat_deg - a.lat_deg) * kDegToRad;
  const double dlng = (b.lng_deg - a.lng_deg) * kDegToRad;
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlng = std::sin(dlng / 2.0);
  const double h =
      sin_dlat * sin_dlat +
      std::cos(lat1) * std::cos(lat2) * sin_dlng * sin_dlng;
  return 2.0 * kEarthRadiusMeters * std::asin(std::min(1.0, std::sqrt(h)));
}

LatLng DestinationPoint(const LatLng& origin, double bearing_deg,
                        double distance_m) {
  const double lat1 = origin.lat_deg * kDegToRad;
  const double lng1 = origin.lng_deg * kDegToRad;
  const double brg = bearing_deg * kDegToRad;
  const double ang = distance_m / kEarthRadiusMeters;
  const double sin_lat2 = std::sin(lat1) * std::cos(ang) +
                          std::cos(lat1) * std::sin(ang) * std::cos(brg);
  const double lat2 = std::asin(std::clamp(sin_lat2, -1.0, 1.0));
  const double y = std::sin(brg) * std::sin(ang) * std::cos(lat1);
  const double x = std::cos(ang) - std::sin(lat1) * sin_lat2;
  const double lng2 = lng1 + std::atan2(y, x);
  return LatLng{lat2 * kRadToDeg, lng2 * kRadToDeg}.Normalized();
}

double InitialBearingDeg(const LatLng& a, const LatLng& b) {
  const double lat1 = a.lat_deg * kDegToRad;
  const double lat2 = b.lat_deg * kDegToRad;
  const double dlng = (b.lng_deg - a.lng_deg) * kDegToRad;
  const double y = std::sin(dlng) * std::cos(lat2);
  const double x = std::cos(lat1) * std::sin(lat2) -
                   std::sin(lat1) * std::cos(lat2) * std::cos(dlng);
  double brg = std::atan2(y, x) * kRadToDeg;
  if (brg < 0.0) brg += 360.0;
  return brg;
}

}  // namespace slim
