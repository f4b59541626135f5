// Reflected CRC-32 (IEEE 802.3 polynomial 0xEDB88320, init and final XOR
// 0xFFFFFFFF): the checksum every on-disk and on-wire format here uses --
// checkpoint image streams and their page chunks, restart-log records, and
// binary trace chunks.

#ifndef SRC_BASE_CRC32_H_
#define SRC_BASE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace fluke {

// CRC-32 of `len` bytes at `data` ("123456789" -> 0xCBF43926). Computed
// slicing-by-8: eight table lookups per eight input bytes, with the value
// of the byte-at-a-time construction.
uint32_t Crc32(const uint8_t* data, size_t len);

}  // namespace fluke

#endif  // SRC_BASE_CRC32_H_
