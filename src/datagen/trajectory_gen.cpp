#include "datagen/trajectory_gen.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.hpp"

namespace mio {
namespace datagen {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// A 2-D correlated random walk of `len` steps starting at (x, y).
std::vector<Point> Walk(Pcg32& rng, double x, double y, std::size_t len,
                        double step_mean, double persistence) {
  std::vector<Point> path;
  path.reserve(len);
  double heading = rng.NextDouble(0.0, 2.0 * kPi);
  for (std::size_t i = 0; i < len; ++i) {
    path.push_back(Point{x, y, 0.0});
    heading += (1.0 - persistence) * rng.NextGaussian() * kPi;
    double step = step_mean * (0.5 + rng.NextDouble());
    x += step * std::cos(heading);
    y += step * std::sin(heading);
  }
  return path;
}

}  // namespace

ObjectSet MakeBirdLike(const BirdConfig& config) {
  Pcg32 rng(config.seed, 0x62697264ULL);  // "bird"
  ObjectSet set;
  const std::size_t m = std::max<std::size_t>(config.points_per_object, 2);

  // Migration corridors: long shared paths that flocked birds follow with
  // a lateral offset. Birds on the same corridor whose path windows
  // overlap and whose offsets differ by less than ~r interact — exactly
  // the leader-follower structure of the paper's Fig. 2, where the MIO
  // answer interacts with a large fraction of the set. Corridor
  // popularity is skewed (Zipf-ish), so one corridor carries most flocked
  // birds and its central trajectories become strong hubs.
  const int num_corridors = std::max(2, config.flock_size / 4);
  // A corridor is ~3 sub-trajectory windows long: random windows overlap
  // with high probability.
  const std::size_t corridor_len = 3 * m;
  std::vector<std::vector<Point>> corridors;
  std::vector<double> corridor_cdf;
  double total_weight = 0.0;
  for (int c = 0; c < num_corridors; ++c) {
    corridors.push_back(Walk(rng, rng.NextDouble(0.0, config.domain_side),
                             rng.NextDouble(0.0, config.domain_side),
                             corridor_len, config.step_mean,
                             config.persistence));
    total_weight += 1.0 / (c + 1.0);  // Zipf popularity
    corridor_cdf.push_back(total_weight);
  }

  std::size_t flocked = static_cast<std::size_t>(
      config.flock_fraction * static_cast<double>(config.num_objects));

  // Timestamps follow the corridor phase: birds at the same position
  // along a corridor are there at the same time, so co-moving birds are
  // close in space AND time (what the temporal variant analyses), while
  // a bird crossing another's path later is spatially close only.
  std::vector<double> times;
  auto emit = [&](const std::vector<Point>& pts, double t_start) {
    times.clear();
    if (config.with_times) {
      for (std::size_t i = 0; i < pts.size(); ++i) {
        times.push_back(t_start + static_cast<double>(i));
      }
    }
    set.Add(pts, times);
  };

  // Flocked sub-trajectories ride a corridor window with a per-bird
  // lateral offset and per-fix jitter.
  for (std::size_t b = 0; b < flocked; ++b) {
    double u = rng.NextDouble() * total_weight;
    std::size_t c = static_cast<std::size_t>(
        std::lower_bound(corridor_cdf.begin(), corridor_cdf.end(), u) -
        corridor_cdf.begin());
    c = std::min(c, corridors.size() - 1);
    const std::vector<Point>& path = corridors[c];

    std::size_t phase = rng.NextBounded(
        static_cast<std::uint32_t>(path.size() - m + 1));
    double ox = config.flock_radius * rng.NextGaussian();
    double oy = config.flock_radius * rng.NextGaussian();
    std::vector<Point> seg;
    seg.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      const Point& lp = path[phase + i];
      seg.push_back(Point{lp.x + ox + 0.6 * rng.NextGaussian(),
                          lp.y + oy + 0.6 * rng.NextGaussian(), 0.0});
    }
    emit(seg,
         static_cast<double>(phase) + config.time_jitter * rng.NextGaussian());
  }

  // Solo wanderers: spatially independent tracks (the sparse tail),
  // active somewhere inside the corridor time window.
  while (set.size() < config.num_objects) {
    double t_start = rng.NextDouble(
        0.0, static_cast<double>(corridor_len > m ? corridor_len - m : 1));
    emit(Walk(rng, rng.NextDouble(0.0, config.domain_side),
              rng.NextDouble(0.0, config.domain_side), m, config.step_mean,
              config.persistence),
         t_start);
  }
  return set;
}

}  // namespace datagen
}  // namespace mio
