#include "store/format.h"

#include <cstring>

#include "support/hash.h"

namespace mcr::store {

std::uint64_t pack_checksum(const unsigned char* data, std::size_t size,
                            std::size_t checksum_field_offset) {
  std::uint64_t h = 0x6d6372706163746bULL;  // "mcrpactk" seed
  const std::size_t field_end = checksum_field_offset + sizeof(std::uint64_t);
  for (std::size_t pos = 0; pos < size; pos += 8) {
    unsigned char chunk[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    const std::size_t take = size - pos < 8 ? size - pos : 8;
    std::memcpy(chunk, data + pos, take);
    // Read the stored checksum field as zeros so the hash can be
    // computed before the field is patched in. The field is 8-aligned
    // within the header, so it overlaps exactly one chunk.
    if (pos < field_end && pos + 8 > checksum_field_offset) {
      for (std::size_t i = 0; i < 8; ++i) {
        const std::size_t byte = pos + i;
        if (byte >= checksum_field_offset && byte < field_end) chunk[i] = 0;
      }
    }
    std::uint64_t word = 0;
    std::memcpy(&word, chunk, 8);
    h = splitmix64(h ^ word);
  }
  return splitmix64(h ^ static_cast<std::uint64_t>(size));
}

const char* pack_error_kind_name(PackErrorKind kind) {
  switch (kind) {
    case PackErrorKind::kIo:
      return "pack io error";
    case PackErrorKind::kTruncated:
      return "pack truncated";
    case PackErrorKind::kBadMagic:
      return "pack bad magic";
    case PackErrorKind::kBadEndianness:
      return "pack bad endianness";
    case PackErrorKind::kBadVersion:
      return "pack bad version";
    case PackErrorKind::kBadHeader:
      return "pack bad header";
    case PackErrorKind::kBadSection:
      return "pack bad section";
    case PackErrorKind::kChecksumMismatch:
      return "pack checksum mismatch";
  }
  return "pack error";
}

}  // namespace mcr::store
