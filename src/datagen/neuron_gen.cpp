#include "datagen/neuron_gen.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.hpp"

namespace mio {
namespace datagen {
namespace {

struct Vec3 {
  double x, y, z;
};

Vec3 RandomUnit(Pcg32& rng) {
  // Marsaglia: uniform on the sphere.
  double u = rng.NextDouble(-1.0, 1.0);
  double theta = rng.NextDouble(0.0, 2.0 * 3.14159265358979323846);
  double s = std::sqrt(std::max(0.0, 1.0 - u * u));
  return Vec3{s * std::cos(theta), s * std::sin(theta), u};
}

Vec3 Blend(const Vec3& a, const Vec3& b, double wa) {
  Vec3 v{wa * a.x + (1.0 - wa) * b.x, wa * a.y + (1.0 - wa) * b.y,
         wa * a.z + (1.0 - wa) * b.z};
  double len = std::sqrt(v.x * v.x + v.y * v.y + v.z * v.z);
  if (len < 1e-12) return a;
  return Vec3{v.x / len, v.y / len, v.z / len};
}

/// One growth cone: current position + heading.
struct Cone {
  Point pos;
  Vec3 dir;
};

}  // namespace

ObjectSet MakeNeuronLike(const NeuronConfig& config) {
  Pcg32 rng(config.seed, 0x6e6575726f6eULL);  // "neuron"
  ObjectSet set;
  std::vector<Point> points;  // the object being grown

  // Cluster centres: the spatial skew knob.
  std::vector<Point> clusters;
  for (int c = 0; c < std::max(config.num_clusters, 1); ++c) {
    clusters.push_back(Point{rng.NextDouble(0.0, config.volume_side),
                             rng.NextDouble(0.0, config.volume_side),
                             rng.NextDouble(0.0, config.volume_side)});
  }

  for (std::size_t i = 0; i < config.num_objects; ++i) {
    // Soma near a random cluster centre.
    const Point& c = clusters[rng.NextBounded(
        static_cast<std::uint32_t>(clusters.size()))];
    Point soma{c.x + config.cluster_sigma * rng.NextGaussian(),
               c.y + config.cluster_sigma * rng.NextGaussian(),
               c.z + config.cluster_sigma * rng.NextGaussian()};

    std::size_t target =
        config.points_per_object +
        static_cast<std::size_t>(0.4 * config.points_per_object *
                                 (rng.NextDouble() - 0.5));
    target = std::max<std::size_t>(target, 4);

    points.clear();
    points.push_back(soma);

    // Initial stems radiate from the soma; growth cones advance as
    // persistent random walks and occasionally bifurcate (capped so the
    // arbor stays tree-like rather than exploding).
    int stems = config.stems_min +
                static_cast<int>(rng.NextBounded(static_cast<std::uint32_t>(
                    config.stems_max - config.stems_min + 1)));
    std::vector<Cone> cones;
    for (int s = 0; s < stems; ++s) cones.push_back(Cone{soma, RandomUnit(rng)});

    std::size_t cone_cursor = 0;
    while (points.size() < target && !cones.empty()) {
      Cone& cone = cones[cone_cursor % cones.size()];
      // Advance: persistent direction + angular noise.
      cone.dir = Blend(cone.dir, RandomUnit(rng), config.persistence);
      cone.pos.x += config.step_length * cone.dir.x;
      cone.pos.y += config.step_length * cone.dir.y;
      cone.pos.z += config.step_length * cone.dir.z;
      points.push_back(cone.pos);

      if (cones.size() < 64 && rng.NextDouble() < config.branch_prob) {
        cones.push_back(Cone{cone.pos, RandomUnit(rng)});
      }
      ++cone_cursor;
    }
    set.Add(points);
  }
  return set;
}

}  // namespace datagen
}  // namespace mio
