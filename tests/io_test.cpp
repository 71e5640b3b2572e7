// Round-trip and failure-injection tests for dataset files and the
// external-memory label store.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "core/labels.hpp"
#include "io/checksum.hpp"
#include "io/dataset_io.hpp"
#include "io/label_store.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mio_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string PathFor(const std::string& name) {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

void ExpectSameDataset(const ObjectSet& a, const ObjectSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (ObjectId i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].NumPoints(), b[i].NumPoints());
    for (std::size_t j = 0; j < a[i].points.size(); ++j) {
      EXPECT_DOUBLE_EQ(a[i].points[j].x, b[i].points[j].x);
      EXPECT_DOUBLE_EQ(a[i].points[j].y, b[i].points[j].y);
      EXPECT_DOUBLE_EQ(a[i].points[j].z, b[i].points[j].z);
    }
    ASSERT_EQ(a[i].times.size(), b[i].times.size());
    for (std::size_t j = 0; j < a[i].times.size(); ++j) {
      EXPECT_DOUBLE_EQ(a[i].times[j], b[i].times[j]);
    }
  }
}

TEST_F(IoTest, TextRoundTrip) {
  ObjectSet set = testing::MakeRandomObjects(10, 3, 8, 20.0, 1);
  std::string path = PathFor("data.txt");
  ASSERT_TRUE(SaveDatasetText(set, path).ok());
  Result<ObjectSet> loaded = LoadDatasetText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDataset(set, loaded.value());
}

TEST_F(IoTest, TextRoundTripWithTimes) {
  ObjectSet set = testing::MakeRandomObjects(5, 3, 5, 20.0, 2, 5.0, true);
  std::string path = PathFor("data_t.txt");
  ASSERT_TRUE(SaveDatasetText(set, path).ok());
  Result<ObjectSet> loaded = LoadDatasetText(path);
  ASSERT_TRUE(loaded.ok());
  ExpectSameDataset(set, loaded.value());
}

TEST_F(IoTest, BinaryRoundTrip) {
  ObjectSet set = testing::MakeRandomObjects(20, 2, 10, 30.0, 3, 5.0, true);
  std::string path = PathFor("data.bin");
  ASSERT_TRUE(SaveDatasetBinary(set, path).ok());
  Result<ObjectSet> loaded = LoadDatasetBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDataset(set, loaded.value());
}

/// Reads a whole file.
std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(IoTest, BinaryRoundTripWithoutTimes) {
  ObjectSet set = testing::MakeRandomObjects(30, 1, 12, 30.0, 21);
  std::string path = PathFor("plain.bin");
  ASSERT_TRUE(SaveDatasetBinary(set, path).ok());
  Result<ObjectSet> loaded = LoadDatasetBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().HasTimes());
  ExpectSameDataset(set, loaded.value());
}

TEST_F(IoTest, BinaryWritesV2Layout) {
  for (bool timed : {false, true}) {
    ObjectSet set = testing::MakeRandomObjects(7, 2, 9, 30.0, 22, 5.0, timed);
    std::string path = PathFor("v2.bin");
    ASSERT_TRUE(SaveDatasetBinary(set, path).ok());
    const std::vector<char> bytes = ReadAll(path);
    // 32-byte header, n counts, the points block, the times block, trailer.
    const std::size_t n = set.size(), nm = set.NumPoints();
    ASSERT_EQ(bytes.size(), 32 + 8 * n + (24 + (timed ? 8 : 0)) * nm + 8);
    EXPECT_EQ(std::memcmp(bytes.data(), "MIOD", 4), 0);
    std::uint32_t version = 0;
    std::uint64_t head[3];
    std::memcpy(&version, bytes.data() + 4, 4);
    std::memcpy(head, bytes.data() + 8, sizeof(head));
    EXPECT_EQ(version, 2u);
    EXPECT_EQ(head[0], n);
    EXPECT_EQ(head[1], nm);
    EXPECT_EQ(head[2], timed ? 1u : 0u);
    // The points block is the flat store verbatim.
    EXPECT_EQ(std::memcmp(bytes.data() + 32 + 8 * n, set.points().data(),
                          set.points().size_bytes()),
              0);
    // The trailer is the word checksum of everything before it.
    WordSum sum;
    sum.Update(bytes.data(), bytes.size() - 8);
    std::uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + bytes.size() - 8, 8);
    EXPECT_EQ(stored, sum.Digest());
  }
}

TEST_F(IoTest, BinaryRoundTripEmptySet) {
  std::string path = PathFor("empty.bin");
  ASSERT_TRUE(SaveDatasetBinary(ObjectSet(), path).ok());
  Result<ObjectSet> loaded = LoadDatasetBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().empty());
}

TEST_F(IoTest, V1FixtureLoadsToTheSameSet) {
  for (bool timed : {false, true}) {
    ObjectSet set = testing::MakeRandomObjects(12, 1, 7, 30.0, 23, 5.0, timed);
    std::string v1 = PathFor("v1.bin");
    WriteAll(v1, testing::EncodeDatasetV1(set));
    Result<ObjectSet> loaded = LoadDatasetBinary(v1);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().HasTimes(), timed);
    ExpectSameDataset(set, loaded.value());

    // Saving the loaded set upgrades the file to v2, with the same content.
    std::string v2 = PathFor("upgraded.bin");
    ASSERT_TRUE(SaveDatasetBinary(loaded.value(), v2).ok());
    EXPECT_EQ(ReadAll(v2)[4], 2);
    Result<ObjectSet> again = LoadDatasetBinary(v2);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectSameDataset(set, again.value());
  }
}

TEST(WordSumTest, DigestIgnoresHowTheStreamIsSplit) {
  std::vector<std::uint64_t> words(37);
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = i * 0x9E37u + 1;
  WordSum whole;
  whole.Update(words.data(), words.size() * 8);
  for (std::size_t cut = 0; cut <= words.size(); ++cut) {
    WordSum split;
    split.Update(words.data(), cut * 8);
    split.Update(words.data() + cut, (words.size() - cut) * 8);
    EXPECT_EQ(split.Digest(), whole.Digest()) << "cut at word " << cut;
  }
}

TEST(WordSumTest, EverySingleByteChangeChangesTheDigest) {
  std::vector<unsigned char> bytes(8 * 13);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 7);
  }
  WordSum base;
  base.Update(bytes.data(), bytes.size());
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (int delta : {1, 0x80, 0xFF}) {
      std::vector<unsigned char> mutated = bytes;
      mutated[at] = static_cast<unsigned char>(mutated[at] + delta);
      WordSum sum;
      sum.Update(mutated.data(), mutated.size());
      EXPECT_NE(sum.Digest(), base.Digest()) << "byte " << at;
    }
  }
}

TEST_F(IoTest, LoadMissingFileReportsIOError) {
  EXPECT_FALSE(LoadDatasetText(PathFor("absent.txt")).ok());
  EXPECT_FALSE(LoadDatasetBinary(PathFor("absent.bin")).ok());
}

TEST_F(IoTest, BinaryCorruptionDetected) {
  ObjectSet set = testing::MakeRandomObjects(5, 4, 4, 20.0, 4);
  std::string path = PathFor("corrupt.bin");
  ASSERT_TRUE(SaveDatasetBinary(set, path).ok());
  // Flip one byte in the middle of the payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(60);
    char byte = 0x5A;
    f.write(&byte, 1);
  }
  Result<ObjectSet> loaded = LoadDatasetBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(IoTest, TextBadHeaderDetected) {
  std::string path = PathFor("bad.txt");
  std::ofstream(path) << "not-a-dataset at all\n";
  Result<ObjectSet> loaded = LoadDatasetText(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(IoTest, TextTruncationDetected) {
  std::string path = PathFor("trunc.txt");
  std::ofstream(path) << "mio-dataset v1 2 0\nobject 3\n1 2 3\n";
  EXPECT_FALSE(LoadDatasetText(path).ok());
}

// --- label store -----------------------------------------------------------

TEST_F(IoTest, LabelStoreRoundTrip) {
  ObjectSet set = testing::MakeRandomObjects(8, 3, 6, 20.0, 5);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  labels.labels[2][1] = label::kMap;          // some pruning happened
  labels.labels[5][0] &= ~label::kVerify;

  LabelStore store(PathFor("labels"));
  EXPECT_FALSE(store.Has(5));
  ASSERT_TRUE(store.Save(5, labels).ok());
  EXPECT_TRUE(store.Has(5));

  Result<LabelSet> loaded = store.Load(5, set);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().labels, labels.labels);
}

TEST_F(IoTest, LabelStoreShapeMismatchRejected) {
  ObjectSet set = testing::MakeRandomObjects(8, 3, 6, 20.0, 6);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  LabelStore store(PathFor("labels2"));
  ASSERT_TRUE(store.Save(7, labels).ok());

  ObjectSet other = testing::MakeRandomObjects(9, 3, 6, 20.0, 7);
  Result<LabelSet> loaded = store.Load(7, other);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(IoTest, LabelStoreCorruptionDetected) {
  ObjectSet set = testing::MakeRandomObjects(4, 5, 5, 20.0, 8);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  LabelStore store(PathFor("labels3"));
  ASSERT_TRUE(store.Save(3, labels).ok());
  {
    // Flip (not overwrite) a payload byte so the change is guaranteed to
    // differ from the original regardless of file layout.
    std::fstream f(store.PathFor(3),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(40);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(40);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(store.Load(3, set).ok());
}

TEST_F(IoTest, LabelStoreClearRemovesFiles) {
  ObjectSet set = testing::MakeRandomObjects(3, 2, 2, 10.0, 9);
  LabelStore store(PathFor("labels4"));
  ASSERT_TRUE(store.Save(4, LabelSet::MakeAllOnes(set)).ok());
  ASSERT_TRUE(store.Save(8, LabelSet::MakeAllOnes(set)).ok());
  store.Clear();
  EXPECT_FALSE(store.Has(4));
  EXPECT_FALSE(store.Has(8));
}

TEST_F(IoTest, LabelStoreKeysAreIndependent) {
  ObjectSet set = testing::MakeRandomObjects(3, 2, 2, 10.0, 10);
  LabelSet l4 = LabelSet::MakeAllOnes(set);
  LabelSet l5 = LabelSet::MakeAllOnes(set);
  l5.labels[0][0] = 0;
  LabelStore store(PathFor("labels5"));
  ASSERT_TRUE(store.Save(4, l4).ok());
  ASSERT_TRUE(store.Save(5, l5).ok());
  EXPECT_EQ(store.Load(4, set).value().labels, l4.labels);
  EXPECT_EQ(store.Load(5, set).value().labels, l5.labels);
}

TEST(LabelSetTest, Counters) {
  ObjectSet set;
  set.Add({{0, 0, 0}, {1, 1, 1}});
  LabelSet labels = LabelSet::MakeAllOnes(set);
  EXPECT_EQ(labels.CountMapPruned(), 0u);
  EXPECT_EQ(labels.CountAnyPruned(), 0u);
  labels.labels[0][0] &= ~label::kMap;
  labels.labels[0][1] &= ~label::kVerify;
  EXPECT_EQ(labels.CountMapPruned(), 1u);
  EXPECT_EQ(labels.CountAnyPruned(), 2u);
  EXPECT_GT(labels.MemoryUsageBytes(), 0u);
}

TEST(LabelSetTest, EmptySetReturnsAllOnes) {
  LabelSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Get(3, 7), label::kAll);
}

}  // namespace
}  // namespace mio
