#ifndef HDD_COMMON_CODEC_H_
#define HDD_COMMON_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace hdd {

/// The one little-endian integer codec behind every byte format in the
/// repo: WAL records and frames, checkpoints, the net wire protocol and
/// the dist messages. Put* appends to `out`; Get* reads from the front of
/// `*data`, advances it, and returns false (reading nothing) when too few
/// bytes are left.

inline void PutU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline bool GetU8(std::string_view* data, std::uint8_t* v) {
  if (data->empty()) return false;
  *v = static_cast<std::uint8_t>((*data)[0]);
  data->remove_prefix(1);
  return true;
}

inline bool GetU32(std::string_view* data, std::uint32_t* v) {
  if (data->size() < 4) return false;
  *v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    *v |= static_cast<std::uint32_t>(static_cast<unsigned char>((*data)[i]))
          << (8 * i);
  }
  data->remove_prefix(4);
  return true;
}

inline bool GetU64(std::string_view* data, std::uint64_t* v) {
  if (data->size() < 8) return false;
  *v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    *v |= static_cast<std::uint64_t>(static_cast<unsigned char>((*data)[i]))
          << (8 * i);
  }
  data->remove_prefix(8);
  return true;
}

}  // namespace hdd

#endif  // HDD_COMMON_CODEC_H_
