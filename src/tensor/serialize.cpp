#include "src/tensor/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "src/common/check.hpp"

namespace mtsr {
namespace {

constexpr char kMagic[8] = {'M', 'T', 'S', 'R', 'T', 'N', 'S', 'R'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("tensor deserialization: truncated input");
  return value;
}

// Bytes from the read position to the end of `in`, or -1 when the stream
// cannot seek (a pipe).
std::int64_t bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.clear();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || !in) return -1;
  return static_cast<std::int64_t>(end - here);
}

// Reads `count` elements of T for the field `what`, allocating no more than
// the input can still hold: a count past the bytes left throws before any
// allocation, and a stream that cannot report its size is read one bounded
// step at a time, so memory grows only with bytes actually delivered.
template <typename T>
std::vector<T> read_array(std::istream& in, std::int64_t count,
                          const std::string& what) {
  constexpr auto kSize = static_cast<std::int64_t>(sizeof(T));
  const std::int64_t left = bytes_left(in);
  if (left >= 0 && count > left / kSize) {
    throw std::runtime_error(what + " of " + std::to_string(count) +
                             " elements exceeds the " + std::to_string(left) +
                             " bytes left in the input");
  }
  constexpr std::int64_t kStep = (std::int64_t{1} << 22) / kSize;  // 4 MiB
  std::vector<T> values;
  for (std::int64_t done = 0; done < count;) {
    const std::int64_t n = std::min(left >= 0 ? count : kStep, count - done);
    values.resize(static_cast<std::size_t>(done + n));
    in.read(reinterpret_cast<char*>(values.data() + done),
            static_cast<std::streamsize>(n * kSize));
    if (!in) throw std::runtime_error(what + ": truncated input");
    done += n;
  }
  return values;
}

void write_string(std::ostream& out, const std::string& s) {
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& in) {
  const auto n = read_pod<std::uint32_t>(in);
  const std::vector<char> bytes =
      read_array<char>(in, n, "load_tensors: tensor name");
  return std::string(bytes.begin(), bytes.end());
}

// Smallest serialized (name, tensor) entry: name length, magic, version,
// rank and one dim (an empty name and a zero-volume tensor).
constexpr std::int64_t kMinEntryBytes = 4 + 8 + 4 + 4 + 8;

}  // namespace

void write_tensor(std::ostream& out, const Tensor& tensor) {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(tensor.rank()));
  for (int i = 0; i < tensor.rank(); ++i) {
    write_pod<std::int64_t>(out, tensor.dim(i));
  }
  out.write(reinterpret_cast<const char*>(tensor.data()),
            static_cast<std::streamsize>(tensor.size() * sizeof(float)));
  if (!out) throw std::runtime_error("write_tensor: stream write failed");
}

Tensor read_tensor(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("read_tensor: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion) {
    throw std::runtime_error("read_tensor: unsupported version " +
                             std::to_string(version));
  }
  const auto rank = read_pod<std::uint32_t>(in);
  if (rank == 0 || rank > static_cast<std::uint32_t>(Shape::kMaxRank)) {
    throw std::runtime_error("read_tensor: bad rank");
  }
  std::vector<std::int64_t> dims(rank);
  // The payload's float count, checked so its byte size fits in int64.
  constexpr std::int64_t kMaxVolume =
      std::numeric_limits<std::int64_t>::max() /
      static_cast<std::int64_t>(sizeof(float));
  std::int64_t volume = 1;
  for (auto& d : dims) {
    d = read_pod<std::int64_t>(in);
    if (d < 0) throw std::runtime_error("read_tensor: negative dim");
    if (d != 0 && volume > kMaxVolume / d) {
      throw std::runtime_error("read_tensor: dims overflow the payload size");
    }
    volume *= d;
  }
  std::vector<float> values =
      read_array<float>(in, volume, "read_tensor: payload");
  return Tensor(Shape(dims), std::move(values));
}

void save_tensors(const std::string& path,
                  const std::vector<std::pair<std::string, Tensor>>& tensors) {
  // Write-temp + atomic rename: a crash (or thrown write error) mid-save
  // must never leave a torn file at `path` — readers either see the old
  // complete file or the new complete file. The temp lives next to the
  // target so the rename stays within one filesystem.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("save_tensors: cannot open " + tmp);
    write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(tensors.size()));
    for (const auto& [name, tensor] : tensors) {
      write_string(out, name);
      write_tensor(out, tensor);
    }
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("save_tensors: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("save_tensors: cannot rename " + tmp + " to " +
                             path);
  }
}

std::vector<std::pair<std::string, Tensor>> load_tensors(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_tensors: cannot open " + path);
  const auto count = read_pod<std::uint32_t>(in);
  const std::int64_t left = bytes_left(in);
  if (left >= 0 && count > left / kMinEntryBytes) {
    throw std::runtime_error("load_tensors: tensor count " +
                             std::to_string(count) + " exceeds what the " +
                             std::to_string(left) + " bytes left can hold");
  }
  std::vector<std::pair<std::string, Tensor>> tensors;
  if (left >= 0) tensors.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = read_string(in);
    tensors.emplace_back(std::move(name), read_tensor(in));
  }
  return tensors;
}

}  // namespace mtsr
