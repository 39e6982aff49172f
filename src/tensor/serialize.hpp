// Binary (de)serialization of tensors.
//
// Format: magic "MTSRTNSR", u32 version, u32 rank, rank × i64 dims, then
// volume × float32 little-endian payload. Used for model checkpoints and
// dataset caching.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace mtsr {

/// Writes one tensor to a binary stream. Throws std::runtime_error on I/O
/// failure.
void write_tensor(std::ostream& out, const Tensor& tensor);

/// Reads one tensor previously written by write_tensor. Throws
/// std::runtime_error on malformed input: dims whose product overflows, or
/// a payload larger than the bytes left in a seekable stream, throw before
/// the payload is allocated; an unseekable stream is read in bounded steps.
[[nodiscard]] Tensor read_tensor(std::istream& in);

/// Writes a named collection of tensors to `path` (count-prefixed sequence
/// of (name, tensor) pairs). The write is atomic: the payload lands in
/// `path + ".tmp"` first and renames over `path` only once complete, so a
/// crash mid-save never leaves a torn checkpoint behind and concurrent
/// readers of `path` see either the old file or the new one, whole.
void save_tensors(const std::string& path,
                  const std::vector<std::pair<std::string, Tensor>>& tensors);

/// Reads back a collection written by save_tensors. The tensor count and
/// each name length are checked against the bytes left in the file before
/// anything is reserved; a violation throws std::runtime_error naming the
/// field.
[[nodiscard]] std::vector<std::pair<std::string, Tensor>> load_tensors(
    const std::string& path);

}  // namespace mtsr
