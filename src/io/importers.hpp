// Importers for the file formats the paper's real datasets ship in, so a
// user with access to the originals can run this library on them directly:
//
//  * SWC — the neuron-morphology format used by NeuroMorpho.org (the
//    paper's Neuron / Neuron-2 source [4]): one sample point per line,
//    `id type x y z radius parent`, '#' comments. One file = one neuron
//    = one object.
//  * Trajectory CSV — Movebank-style (the paper's Bird / Bird-2 source
//    [11]): a header row naming columns, one fix per line; rows are
//    grouped into objects by an id column, optionally keeping timestamps
//    for the temporal variant.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "object/object_set.hpp"

namespace mio {

/// Parses one SWC morphology into one object's points (sample coordinates
/// only; radius and topology are irrelevant to MIO queries).
Result<std::vector<Point>> LoadSwcFile(const std::string& path);

/// Loads every `.swc` file under `dir` (sorted by filename for
/// deterministic object ids) into a collection. Fails if none is found.
Result<ObjectSet> LoadSwcDirectory(const std::string& dir);

/// Column selection for trajectory CSVs.
struct TrajectoryCsvOptions {
  std::string id_column = "id";      ///< groups rows into objects
  std::string x_column = "x";
  std::string y_column = "y";
  std::string z_column;              ///< empty: planar data (z = 0)
  std::string time_column;           ///< empty: no timestamps
  char delimiter = ',';
  /// Split each trajectory into sub-trajectories of at most this many
  /// fixes (0 = keep whole). The paper prepares Bird/Bird-2 by "dividing
  /// long trajectories so that each trajectory contains approximately m
  /// points".
  std::size_t max_points_per_object = 0;
};

/// Loads a delimited trajectory file. Rows sharing the id column become
/// one object (in file order); objects are emitted in first-appearance
/// order.
Result<ObjectSet> LoadTrajectoryCsv(const std::string& path,
                                    const TrajectoryCsvOptions& options = {});

}  // namespace mio
