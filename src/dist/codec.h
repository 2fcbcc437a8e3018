#ifndef HDD_DIST_CODEC_H_
#define HDD_DIST_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace hdd {
namespace distcodec {

/// Little-endian integer codec of the dist message encoders. Same byte
/// conventions as the WAL's record codec, kept separate so src/dist does
/// not reach into src/wal internals.

inline void PutU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline bool GetU8(std::string_view* data, std::uint8_t* v) {
  if (data->size() < 1) return false;
  *v = static_cast<std::uint8_t>((*data)[0]);
  data->remove_prefix(1);
  return true;
}

inline bool GetU32(std::string_view* data, std::uint32_t* v) {
  if (data->size() < 4) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<std::uint32_t>(static_cast<unsigned char>((*data)[i]))
          << (8 * i);
  }
  data->remove_prefix(4);
  return true;
}

inline bool GetU64(std::string_view* data, std::uint64_t* v) {
  if (data->size() < 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<std::uint64_t>(static_cast<unsigned char>((*data)[i]))
          << (8 * i);
  }
  data->remove_prefix(8);
  return true;
}

}  // namespace distcodec
}  // namespace hdd

#endif  // HDD_DIST_CODEC_H_
