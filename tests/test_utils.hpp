// Shared helpers for the mio test suite: deterministic random datasets and
// the brute-force oracle every algorithm is differentially tested against.
#pragma once

#include <cstdint>
#include <vector>

#include "baseline/nested_loop.hpp"
#include "common/random.hpp"
#include "io/checksum.hpp"
#include "object/object_set.hpp"

namespace mio {
namespace testing {

/// Random object collection: n objects of m_min..m_max points each,
/// clustered enough (cluster_sigma vs domain) that interactions exist at
/// single-digit thresholds.
inline ObjectSet MakeRandomObjects(std::size_t n, std::size_t m_min,
                                   std::size_t m_max, double domain,
                                   std::uint64_t seed,
                                   double cluster_sigma = 5.0,
                                   bool with_times = false,
                                   double time_span = 100.0) {
  Pcg32 rng(seed, 0x7465737473ULL);  // "tests"
  ObjectSet set;
  for (std::size_t i = 0; i < n; ++i) {
    double cx = rng.NextDouble(0.0, domain);
    double cy = rng.NextDouble(0.0, domain);
    double cz = rng.NextDouble(0.0, domain);
    std::size_t m =
        m_min + rng.NextBounded(static_cast<std::uint32_t>(m_max - m_min + 1));
    std::vector<Point> points;
    std::vector<double> times;
    for (std::size_t j = 0; j < m; ++j) {
      points.push_back(Point{cx + cluster_sigma * rng.NextGaussian(),
                             cy + cluster_sigma * rng.NextGaussian(),
                             cz + cluster_sigma * rng.NextGaussian()});
      if (with_times) times.push_back(rng.NextDouble(0.0, time_span));
    }
    set.Add(points, times);
  }
  return set;
}

/// The exact score vector by brute force (NL with early break).
inline std::vector<std::uint32_t> OracleScores(const ObjectSet& objects,
                                               double r) {
  return NestedLoopScores(objects, r, /*threads=*/1);
}

/// The bytes of `objects` in the v1 binary dataset format, which is no
/// longer written but still loaded: magic "MIOD", u32 version 1, u64 n,
/// u8 has_times, then per object a u64 point count, its points and its
/// times, and an FNV-1a trailer over every byte after the magic.
inline std::vector<char> EncodeDatasetV1(const ObjectSet& objects) {
  std::vector<char> out = {'M', 'I', 'O', 'D'};
  std::uint64_t checksum = kFnvOffset;
  auto put = [&](const void* data, std::size_t len) {
    const char* p = static_cast<const char*>(data);
    out.insert(out.end(), p, p + len);
    checksum = Fnv1a(data, len, checksum);
  };
  const std::uint32_t version = 1;
  put(&version, sizeof(version));
  const std::uint64_t n = objects.size();
  put(&n, sizeof(n));
  const std::uint8_t has_times = objects.HasTimes() ? 1 : 0;
  put(&has_times, sizeof(has_times));
  for (const Object& o : objects) {
    const std::uint64_t m = o.NumPoints();
    put(&m, sizeof(m));
    put(o.points.data(), o.points.size_bytes());
    put(o.times.data(), o.times.size_bytes());
  }
  const char* c = reinterpret_cast<const char*>(&checksum);
  out.insert(out.end(), c, c + sizeof(checksum));
  return out;
}

/// Maximum score in a score vector.
inline std::uint32_t MaxScore(const std::vector<std::uint32_t>& scores) {
  std::uint32_t best = 0;
  for (std::uint32_t s : scores) best = std::max(best, s);
  return best;
}

}  // namespace testing
}  // namespace mio
