// Dataset (de)serialisation. Text format for interchange/inspection and a
// compact binary format for fast reload of generated datasets.
//
// Text format:
//   # comment lines allowed anywhere
//   mio-dataset v1 <n> <has_times: 0|1>
//   object <num_points>
//   x y z [t]          (one point per line)
//   ...
#pragma once

#include <string>

#include "common/status.hpp"
#include "object/object_set.hpp"

namespace mio {

Status SaveDatasetText(const ObjectSet& objects, const std::string& path);
Result<ObjectSet> LoadDatasetText(const std::string& path);

/// Binary format v2 (the only one written), little-endian, in 8-byte words:
///   magic "MIOD", u32 version = 2, u64 n, u64 nm, u64 has_times (0|1)
///   n x u64          point count of each object
///   nm x 3 doubles   every point, object after object
///   nm doubles       every timestamp (only when has_times)
///   u64              WordSum (io/checksum.hpp) of all the bytes above
/// The file size must equal 32 + 8n + (24 + 8 has_times) nm + 8 exactly.
Status SaveDatasetBinary(const ObjectSet& objects, const std::string& path);

/// Reads format v2, and still reads v1 (magic, u32 version = 1, u64 n,
/// u8 has_times, then per object a u64 count, its points and its times;
/// FNV-1a trailer over everything after the magic), so `mio convert`
/// upgrades a v1 file.
Result<ObjectSet> LoadDatasetBinary(const std::string& path);

}  // namespace mio
