// rdcn: CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// One checksum for every durable byte the serving stack writes: the
// results cache's entry files (serve/results_cache.hpp) and the run
// journal (serve/journal.hpp) both frame their records with it, so
// corruption tests can forge entries for either with the same helper.
// Chainable: crc32(b, nb, crc32(a, na)) == crc32(ab, na+nb).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace rdcn {

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// The little-endian u32 words both stores frame their records with.
inline void append_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(char((value >> (8 * i)) & 0xff));
}
inline std::uint32_t read_u32(const std::string& bytes, std::size_t pos) {
  std::uint32_t value = 0;
  for (std::size_t i = 4; i-- > 0;)
    value = (value << 8) | static_cast<unsigned char>(bytes[pos + i]);
  return value;
}

}  // namespace rdcn
