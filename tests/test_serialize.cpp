// Round-trip and corruption tests for tensor serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>

#include "src/common/rng.hpp"
#include "src/tensor/serialize.hpp"
#include "tests/forged_checkpoint.hpp"

namespace mtsr {
namespace {

TEST(Serialize, StreamRoundTrip) {
  Rng rng(7);
  Tensor t = Tensor::randn(Shape{2, 3, 4}, rng);
  std::stringstream buffer;
  write_tensor(buffer, t);
  Tensor back = read_tensor(buffer);
  ASSERT_EQ(back.shape(), t.shape());
  for (std::int64_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.flat(i), t.flat(i));
  }
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "NOTATENSORFILE................";
  EXPECT_THROW((void)read_tensor(buffer), std::runtime_error);
}

TEST(Serialize, TruncatedPayloadRejected) {
  Rng rng(8);
  Tensor t = Tensor::randn(Shape{10, 10}, rng);
  std::stringstream buffer;
  write_tensor(buffer, t);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream cut(data);
  EXPECT_THROW((void)read_tensor(cut), std::runtime_error);
}

TEST(Serialize, NamedCollectionRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mtsr_serialize_test.bin")
          .string();
  Rng rng(9);
  std::vector<std::pair<std::string, Tensor>> tensors;
  tensors.emplace_back("weight", Tensor::randn(Shape{4, 4}, rng));
  tensors.emplace_back("bias", Tensor::randn(Shape{4}, rng));
  save_tensors(path, tensors);
  auto loaded = load_tensors(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].first, "weight");
  EXPECT_EQ(loaded[1].first, "bias");
  EXPECT_EQ(loaded[0].second.shape(), tensors[0].second.shape());
  for (std::int64_t i = 0; i < tensors[1].second.size(); ++i) {
    EXPECT_EQ(loaded[1].second.flat(i), tensors[1].second.flat(i));
  }
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW((void)load_tensors("/nonexistent/zipnet.bin"),
               std::runtime_error);
}

TEST(Serialize, SaveIsAtomic) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mtsr_serialize_atomic.bin")
          .string();
  Rng rng(10);
  std::vector<std::pair<std::string, Tensor>> tensors;
  tensors.emplace_back("weight", Tensor::randn(Shape{4, 4}, rng));

  // A successful save never leaves its temp file behind.
  save_tensors(path, tensors);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Overwriting an existing file goes through the same temp + rename: the
  // old content is fully replaced, never torn.
  tensors.emplace_back("bias", Tensor::randn(Shape{4}, rng));
  save_tensors(path, tensors);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(load_tensors(path).size(), 2u);
  std::remove(path.c_str());

  // A failing save (unwritable directory) throws and leaves nothing —
  // neither the final path nor a temp file.
  const std::string bad = "/nonexistent/dir/model.bin";
  EXPECT_THROW(save_tensors(bad, tensors), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(bad));
  EXPECT_FALSE(std::filesystem::exists(bad + ".tmp"));
}

// A size field larger than the file throws a runtime_error naming the
// field before anything of that size is allocated.
TEST(Serialize, ForgedSizeFieldsRejectedBeforeAllocating) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mtsr_serialize_forged.bin")
          .string();
  for (const auto& forged : forged::checkpoints()) {
    forged::write_bytes(path, forged.bytes);
    try {
      (void)load_tensors(path);
      ADD_FAILURE() << forged.field << ": forged file loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(forged.field), std::string::npos)
          << forged.field << ": " << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, OverflowingDimsRejectedOnStreams) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  for (const auto& dims : std::vector<std::vector<std::int64_t>>{
           {max, 2}, {max / 4 + 1}, {1 << 30, 1 << 30, 1 << 30}}) {
    std::stringstream in(forged::tensor_record(dims, 0));
    EXPECT_THROW((void)read_tensor(in), std::runtime_error);
  }
}

// A stream that cannot seek cannot report the bytes left; reads then grow
// one bounded step at a time and a short payload still fails cleanly.
TEST(Serialize, UnseekableStreamReadsInBoundedSteps) {
  struct OneWayBuf : std::stringbuf {
    using std::stringbuf::stringbuf;
    pos_type seekoff(off_type, std::ios_base::seekdir,
                     std::ios_base::openmode) override {
      return pos_type(off_type(-1));
    }
  };
  OneWayBuf forged(forged::tensor_record({std::int64_t{1} << 40}, 4));
  std::istream in(&forged);
  EXPECT_THROW((void)read_tensor(in), std::runtime_error);

  Rng rng(11);
  const Tensor t = Tensor::randn(Shape{3, 5}, rng);
  std::stringstream out;
  write_tensor(out, t);
  OneWayBuf whole(out.str());
  std::istream ok(&whole);
  const Tensor back = read_tensor(ok);
  ASSERT_EQ(back.shape(), t.shape());
  for (std::int64_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.flat(i), t.flat(i));
  }
}

}  // namespace
}  // namespace mtsr
