#include "datagen/powerlaw_gen.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.hpp"

namespace mio {
namespace datagen {

ObjectSet MakePowerLaw(const PowerLawConfig& config) {
  Pcg32 rng(config.seed, 0x73796eULL);  // "syn"
  ObjectSet set;
  std::vector<Point> points;  // the object being drawn

  // Hub sites and their Zipf weights: hub h has weight 1/(h+1)^alpha.
  int hubs = std::max(config.num_hubs, 1);
  std::vector<Point> centres;
  std::vector<double> cdf;
  double total = 0.0;
  for (int h = 0; h < hubs; ++h) {
    centres.push_back(Point{rng.NextDouble(0.0, config.domain_side),
                            rng.NextDouble(0.0, config.domain_side),
                            rng.NextDouble(0.0, config.domain_side)});
    total += 1.0 / std::pow(static_cast<double>(h + 1), config.zipf_exponent);
    cdf.push_back(total);
  }

  std::size_t background = static_cast<std::size_t>(
      config.background_fraction * static_cast<double>(config.num_objects));

  for (std::size_t i = 0; i < config.num_objects; ++i) {
    Point centre;
    if (i < background) {
      centre = Point{rng.NextDouble(0.0, config.domain_side),
                     rng.NextDouble(0.0, config.domain_side),
                     rng.NextDouble(0.0, config.domain_side)};
    } else {
      double u = rng.NextDouble() * total;
      std::size_t h = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      h = std::min(h, centres.size() - 1);
      const Point& c = centres[h];
      centre = Point{c.x + config.hub_sigma * rng.NextGaussian(),
                     c.y + config.hub_sigma * rng.NextGaussian(),
                     c.z + config.hub_sigma * rng.NextGaussian()};
    }
    std::size_t m = std::max<std::size_t>(config.points_per_object, 1);
    points.clear();
    for (std::size_t p = 0; p < m; ++p) {
      points.push_back(
          Point{centre.x + config.object_sigma * rng.NextGaussian(),
                centre.y + config.object_sigma * rng.NextGaussian(),
                centre.z + config.object_sigma * rng.NextGaussian()});
    }
    set.Add(points);
  }
  return set;
}

}  // namespace datagen
}  // namespace mio
