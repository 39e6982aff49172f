// Forged checkpoint images for the bounded-read tests: each one declares a
// size field (tensor count, name length, dims, payload) larger than the
// file that carries it, in the save_tensors layout — u32 count, then per
// entry a u32 name length, the name, and a write_tensor record ("MTSRTNSR",
// u32 version 1, u32 rank, rank × i64 dims, float payload).
#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

namespace mtsr::forged {

struct ForgedCheckpoint {
  std::string field;  ///< what the reader's error must name
  std::string bytes;
};

template <typename T>
void append_pod(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

inline std::string tensor_record(const std::vector<std::int64_t>& dims,
                                 std::int64_t payload_floats) {
  std::string out = "MTSRTNSR";
  append_pod<std::uint32_t>(out, 1);
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(dims.size()));
  for (const std::int64_t d : dims) append_pod(out, d);
  for (std::int64_t i = 0; i < payload_floats; ++i) append_pod(out, 0.5f);
  return out;
}

inline std::string named_entry(const std::string& name,
                               const std::string& record) {
  std::string out;
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(name.size()));
  return out + name + record;
}

inline std::vector<ForgedCheckpoint> checkpoints() {
  const std::string valid = named_entry("w", tensor_record({2, 2}, 4));
  std::vector<ForgedCheckpoint> out;

  std::string count;  // 2^32 - 1 entries, one present
  append_pod<std::uint32_t>(count, std::numeric_limits<std::uint32_t>::max());
  out.push_back({"tensor count", count + valid});

  std::string name;  // a 2^32 - 1 byte name, 40 bytes present
  append_pod<std::uint32_t>(name, 1);
  append_pod<std::uint32_t>(name, std::numeric_limits<std::uint32_t>::max());
  out.push_back({"tensor name", name + std::string(40, 'x')});

  std::string dims;  // 2^40 · 2^40 · 2^40 floats: overflows int64
  append_pod<std::uint32_t>(dims, 1);
  const std::int64_t big = std::int64_t{1} << 40;
  out.push_back(
      {"overflow", dims + named_entry("w", tensor_record({big, big, big}, 0))});

  std::string payload;  // a 1000×1000 tensor with four floats present
  append_pod<std::uint32_t>(payload, 1);
  out.push_back({"payload", payload + named_entry("w", tensor_record(
                                                           {1000, 1000}, 4))});
  return out;
}

inline void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace mtsr::forged
