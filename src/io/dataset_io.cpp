#include "io/dataset_io.hpp"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/fault_injection.hpp"
#include "io/checksum.hpp"

namespace mio {
namespace {

constexpr char kBinaryMagic[4] = {'M', 'I', 'O', 'D'};
constexpr std::uint32_t kVersion1 = 1;
constexpr std::uint32_t kVersion2 = 2;
/// v2 header: magic, u32 version, u64 n, u64 nm, u64 has_times.
constexpr std::uint64_t kV2HeaderBytes = 32;

static_assert(sizeof(Point) == 3 * sizeof(double));
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));

/// A binary dataset file being read: its size, taken before anything is
/// read, and the bytes consumed so far. Every payload read passes the
/// "io.dataset.read" fault site.
struct BinaryReader {
  std::ifstream in;
  std::uint64_t file_size = 0;
  std::uint64_t consumed = 0;

  bool Read(void* data, std::uint64_t len) {
    if (MIO_FAULT_HIT("io.dataset.read")) return false;  // simulated EIO
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(len));
    if (!in) return false;
    consumed += len;
    return true;
  }
  /// Payload bytes left before the 8-byte checksum trailer.
  std::uint64_t Remaining() const {
    const std::uint64_t used = consumed + sizeof(std::uint64_t);
    return file_size > used ? file_size - used : 0;
  }
  bool ReadTrailer(std::uint64_t* stored) {
    in.read(reinterpret_cast<char*>(stored), sizeof(*stored));
    return static_cast<bool>(in);
  }
};

/// v1: per object a u64 point count, its points, then its times; FNV-1a
/// over everything after the magic. Streams object by object into the
/// flat store, bounding each declared count by the bytes left.
Result<ObjectSet> LoadV1(BinaryReader* rd, const std::string& path) {
  std::uint64_t checksum = Fnv1a(&kVersion1, sizeof(kVersion1), kFnvOffset);
  auto read = [&](void* data, std::uint64_t len) {
    if (!rd->Read(data, len)) return false;
    checksum = Fnv1a(data, len, checksum);
    return true;
  };
  std::uint64_t n = 0;
  std::uint8_t has_times = 0;
  if (!read(&n, sizeof(n)) || !read(&has_times, sizeof(has_times))) {
    return Status::Corruption("truncated header in " + path);
  }
  // Each object costs at least its 8-byte point-count header.
  if (n > rd->Remaining() / sizeof(std::uint64_t)) {
    return Status::Corruption("declared object count " + std::to_string(n) +
                              " exceeds file size in " + path);
  }

  const std::uint64_t bytes_per_point =
      sizeof(Point) + (has_times ? sizeof(double) : 0);
  std::vector<Point> points;
  std::vector<double> times;
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t num_points = 0;
    if (!read(&num_points, sizeof(num_points))) {
      return Status::Corruption("truncated object header in " + path);
    }
    if (num_points > rd->Remaining() / bytes_per_point) {
      return Status::Corruption(
          "declared point count " + std::to_string(num_points) +
          " exceeds remaining file size in " + path);
    }
    const std::size_t at = points.size();
    points.resize(at + num_points);
    if (!read(points.data() + at, num_points * sizeof(Point))) {
      return Status::Corruption("truncated points in " + path);
    }
    if (has_times) {
      times.resize(at + num_points);
      if (!read(times.data() + at, num_points * sizeof(double))) {
        return Status::Corruption("truncated times in " + path);
      }
    }
    offsets[i + 1] = points.size();
  }
  std::uint64_t stored = 0;
  if (!rd->ReadTrailer(&stored)) {
    return Status::Corruption("truncated checksum trailer in " + path);
  }
  if (stored != checksum) {
    return Status::Corruption("checksum mismatch in " + path);
  }
  return ObjectSet(std::move(points), std::move(times), std::move(offsets));
}

/// v2: the header, the n point counts, one points block, one times block
/// and a WordSum trailer over every byte before it. The declared counts
/// must account for the file size exactly before anything is allocated;
/// the blocks are then read straight into the store's arrays.
Result<ObjectSet> LoadV2(BinaryReader* rd, const std::string& path) {
  std::uint64_t head[3];  // n, nm, has_times
  if (!rd->Read(head, sizeof(head))) {
    return Status::Corruption("truncated header in " + path);
  }
  const std::uint64_t n = head[0];
  const std::uint64_t nm = head[1];
  if (head[2] > 1) return Status::Corruption("bad times flag in " + path);
  const bool has_times = head[2] == 1;
  const std::uint64_t bytes_per_point =
      sizeof(Point) + (has_times ? sizeof(double) : 0);
  // Bound each count alone first, so the size sum below cannot overflow.
  if (n > rd->file_size / sizeof(std::uint64_t) ||
      nm > rd->file_size / bytes_per_point ||
      kV2HeaderBytes + n * sizeof(std::uint64_t) + nm * bytes_per_point +
              sizeof(std::uint64_t) !=
          rd->file_size) {
    return Status::Corruption("declared counts n=" + std::to_string(n) +
                              " nm=" + std::to_string(nm) +
                              " do not match the file size in " + path);
  }

  WordSum sum;
  char lead[8];
  std::memcpy(lead, kBinaryMagic, 4);
  std::memcpy(lead + 4, &kVersion2, 4);
  sum.Update(lead, sizeof(lead));
  sum.Update(head, sizeof(head));

  // The counts land in offsets[1..n] and are prefix-summed in place.
  std::vector<std::size_t> offsets(n + 1, 0);
  if (!rd->Read(offsets.data() + 1, n * sizeof(std::uint64_t))) {
    return Status::Corruption("truncated point counts in " + path);
  }
  sum.Update(offsets.data() + 1, n * sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < n; ++i) {
    if (offsets[i + 1] > nm - offsets[i]) {
      return Status::Corruption("point counts exceed nm in " + path);
    }
    offsets[i + 1] += offsets[i];
  }
  if (offsets[n] != nm) {
    return Status::Corruption("point counts do not sum to nm in " + path);
  }

  std::vector<Point> points(nm);
  if (!rd->Read(points.data(), nm * sizeof(Point))) {
    return Status::Corruption("truncated points in " + path);
  }
  sum.Update(points.data(), nm * sizeof(Point));
  std::vector<double> times(has_times ? nm : 0);
  if (has_times) {
    if (!rd->Read(times.data(), nm * sizeof(double))) {
      return Status::Corruption("truncated times in " + path);
    }
    sum.Update(times.data(), nm * sizeof(double));
  }
  std::uint64_t stored = 0;
  if (!rd->ReadTrailer(&stored)) {
    return Status::Corruption("truncated checksum trailer in " + path);
  }
  if (stored != sum.Digest()) {
    return Status::Corruption("checksum mismatch in " + path);
  }
  return ObjectSet(std::move(points), std::move(times), std::move(offsets));
}

}  // namespace

// ---------------------------------------------------------------------------
// Text
// ---------------------------------------------------------------------------

Status SaveDatasetText(const ObjectSet& objects, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  const bool has_times = objects.HasTimes();
  out << "mio-dataset v1 " << objects.size() << " " << (has_times ? 1 : 0)
      << "\n";
  out.precision(17);
  for (const Object& o : objects) {
    out << "object " << o.points.size() << "\n";
    for (std::size_t j = 0; j < o.points.size(); ++j) {
      out << o.points[j].x << " " << o.points[j].y << " " << o.points[j].z;
      if (has_times) out << " " << o.times[j];
      out << "\n";
    }
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<ObjectSet> LoadDatasetText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);

  std::string line;
  auto next_content_line = [&](std::string* out_line) -> bool {
    while (std::getline(in, *out_line)) {
      if (!out_line->empty() && (*out_line)[0] != '#') return true;
    }
    return false;
  };

  if (!next_content_line(&line)) {
    return Status::Corruption("empty dataset file: " + path);
  }
  std::istringstream header(line);
  std::string magic, version;
  std::size_t n = 0;
  int has_times = 0;
  header >> magic >> version >> n >> has_times;
  if (magic != "mio-dataset" || version != "v1") {
    return Status::Corruption("bad header in " + path + ": " + line);
  }

  // The declared counts are taken on no faith: the arrays grow with the
  // lines actually parsed, never by a reserve sized from the header.
  std::vector<Point> points;
  std::vector<double> times;
  std::vector<std::size_t> offsets = {0};
  for (std::size_t i = 0; i < n; ++i) {
    if (!next_content_line(&line)) {
      return Status::Corruption("truncated dataset (object header)");
    }
    std::istringstream oh(line);
    std::string tag;
    std::size_t num_points = 0;
    oh >> tag >> num_points;
    if (tag != "object") {
      return Status::Corruption("expected object header, got: " + line);
    }
    for (std::size_t j = 0; j < num_points; ++j) {
      if (!next_content_line(&line)) {
        return Status::Corruption("truncated dataset (points)");
      }
      std::istringstream ps(line);
      Point p;
      ps >> p.x >> p.y >> p.z;
      if (!ps) return Status::Corruption("bad point line: " + line);
      if (has_times) {
        double t = 0.0;
        ps >> t;
        times.push_back(t);
      }
      points.push_back(p);
    }
    offsets.push_back(points.size());
  }
  return ObjectSet(std::move(points), std::move(times), std::move(offsets));
}

// ---------------------------------------------------------------------------
// Binary
// ---------------------------------------------------------------------------

Status SaveDatasetBinary(const ObjectSet& objects, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for write: " + path);

  WordSum sum;
  auto write = [&](const void* data, std::size_t len) {
    if (MIO_FAULT_HIT("io.dataset.write")) out.setstate(std::ios::failbit);
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(len));
    sum.Update(data, len);
  };

  const std::size_t n = objects.size();
  char lead[8];
  std::memcpy(lead, kBinaryMagic, 4);
  std::memcpy(lead + 4, &kVersion2, 4);
  write(lead, sizeof(lead));
  const std::uint64_t head[3] = {n, objects.NumPoints(),
                                 objects.HasTimes() ? 1u : 0u};
  write(head, sizeof(head));
  std::vector<std::uint64_t> counts(n);
  for (ObjectId i = 0; i < n; ++i) {
    counts[i] = objects.Offset(i + 1) - objects.Offset(i);
  }
  write(counts.data(), counts.size() * sizeof(std::uint64_t));
  write(objects.points().data(), objects.points().size_bytes());
  if (objects.HasTimes()) {
    write(objects.times().data(), objects.times().size_bytes());
  }
  const std::uint64_t checksum = sum.Digest();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<ObjectSet> LoadDatasetBinary(const std::string& path) {
  // Stat the file up front: every declared count is validated against the
  // bytes actually present BEFORE any allocation sized by it, so a corrupt
  // header cannot drive an unbounded resize.
  BinaryReader rd;
  std::error_code ec;
  rd.file_size =
      static_cast<std::uint64_t>(std::filesystem::file_size(path, ec));
  if (ec) return Status::IOError("cannot stat: " + path);

  rd.in.open(path, std::ios::binary);
  if (!rd.in) return Status::IOError("cannot open for read: " + path);

  char magic[4];
  rd.in.read(magic, 4);
  if (!rd.in || std::memcmp(magic, kBinaryMagic, 4) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  rd.consumed = 4;
  std::uint32_t version = 0;
  if (!rd.Read(&version, sizeof(version)) ||
      (version != kVersion1 && version != kVersion2)) {
    return Status::Corruption("unsupported version in " + path);
  }
  return version == kVersion2 ? LoadV2(&rd, path) : LoadV1(&rd, path);
}

}  // namespace mio
