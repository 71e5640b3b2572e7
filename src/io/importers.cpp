#include "io/importers.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/fault_injection.hpp"

namespace mio {

// ---------------------------------------------------------------------------
// SWC
// ---------------------------------------------------------------------------

Result<std::vector<Point>> LoadSwcFile(const std::string& path) {
  std::ifstream in(path);
  if (!in || MIO_FAULT_HIT("io.import.open")) {
    return Status::IOError("cannot open SWC file: " + path);
  }

  std::vector<Point> points;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Trim leading whitespace; skip blanks and comments.
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream ls(line.substr(start));
    long id = 0;
    int type = 0;
    Point p;
    double radius = 0.0;
    long parent = 0;
    ls >> id >> type >> p.x >> p.y >> p.z >> radius >> parent;
    if (!ls) {
      return Status::Corruption(path + ":" + std::to_string(lineno) +
                                ": malformed SWC sample line");
    }
    points.push_back(p);
  }
  if (points.empty()) {
    return Status::Corruption("no sample points in SWC file: " + path);
  }
  return points;
}

Result<ObjectSet> LoadSwcDirectory(const std::string& dir) {
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".swc") files.push_back(entry.path());
  }
  if (ec) return Status::IOError("cannot list directory: " + dir);
  if (files.empty()) return Status::NotFound("no .swc files under " + dir);
  std::sort(files.begin(), files.end());

  ObjectSet set;
  for (const auto& file : files) {
    Result<std::vector<Point>> points = LoadSwcFile(file.string());
    if (!points.ok()) return points.status();
    set.Add(points.value());
  }
  return set;
}

// ---------------------------------------------------------------------------
// Trajectory CSV
// ---------------------------------------------------------------------------

namespace {

std::vector<std::string> SplitLine(const std::string& line, char delim) {
  std::vector<std::string> out;
  std::string field;
  std::stringstream ss(line);
  while (std::getline(ss, field, delim)) {
    // Trim surrounding whitespace/CR.
    std::size_t b = field.find_first_not_of(" \t\r");
    std::size_t e = field.find_last_not_of(" \t\r");
    out.push_back(b == std::string::npos ? "" : field.substr(b, e - b + 1));
  }
  return out;
}

}  // namespace

Result<ObjectSet> LoadTrajectoryCsv(const std::string& path,
                                    const TrajectoryCsvOptions& options) {
  std::ifstream in(path);
  if (!in || MIO_FAULT_HIT("io.import.open")) {
    return Status::IOError("cannot open CSV file: " + path);
  }

  std::string line;
  if (!std::getline(in, line)) return Status::Corruption("empty CSV: " + path);

  // Resolve column indices from the header.
  std::vector<std::string> header = SplitLine(line, options.delimiter);
  auto column = [&](const std::string& name) -> int {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  int id_col = column(options.id_column);
  int x_col = column(options.x_column);
  int y_col = column(options.y_column);
  int z_col = options.z_column.empty() ? -1 : column(options.z_column);
  int t_col = options.time_column.empty() ? -1 : column(options.time_column);
  if (id_col < 0 || x_col < 0 || y_col < 0) {
    return Status::InvalidArgument("missing id/x/y column in " + path);
  }
  if (!options.z_column.empty() && z_col < 0) {
    return Status::InvalidArgument("z column '" + options.z_column +
                                   "' not found in " + path);
  }
  if (!options.time_column.empty() && t_col < 0) {
    return Status::InvalidArgument("time column '" + options.time_column +
                                   "' not found in " + path);
  }

  // Group fixes by id, preserving row order within each track and the
  // first-appearance order of the tracks themselves.
  std::vector<std::string> track_order;
  struct Track {
    std::vector<Point> points;
    std::vector<double> times;
  };
  std::unordered_map<std::string, Track> tracks;
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitLine(line, options.delimiter);
    int max_needed = std::max({id_col, x_col, y_col, z_col, t_col});
    if (static_cast<int>(fields.size()) <= max_needed) {
      return Status::Corruption(path + ":" + std::to_string(lineno) +
                                ": too few columns");
    }
    const std::string& id = fields[id_col];
    auto [it, inserted] = tracks.try_emplace(id);
    if (inserted) track_order.push_back(id);

    char* end = nullptr;
    Point p;
    p.x = std::strtod(fields[x_col].c_str(), &end);
    if (end == fields[x_col].c_str()) {
      return Status::Corruption(path + ":" + std::to_string(lineno) +
                                ": bad x value");
    }
    p.y = std::strtod(fields[y_col].c_str(), nullptr);
    if (z_col >= 0) p.z = std::strtod(fields[z_col].c_str(), nullptr);
    it->second.points.push_back(p);
    if (t_col >= 0) {
      it->second.times.push_back(std::strtod(fields[t_col].c_str(), nullptr));
    }
  }

  ObjectSet set;
  for (const std::string& id : track_order) {
    const Track& track = tracks[id];
    const std::span<const Point> points = track.points;
    const std::span<const double> times = track.times;
    // The paper's preparation: divide long trajectories into ~m-point
    // sub-trajectories, each becoming its own object.
    const std::size_t cap = options.max_points_per_object == 0
                                ? points.size()
                                : options.max_points_per_object;
    for (std::size_t begin = 0; begin < points.size(); begin += cap) {
      const std::size_t len = std::min(cap, points.size() - begin);
      set.Add(points.subspan(begin, len),
              times.empty() ? times : times.subspan(begin, len));
    }
  }
  if (set.empty()) return Status::Corruption("no data rows in " + path);
  return set;
}

}  // namespace mio
