#include "net/frame.h"

#include "common/codec.h"
#include "wal/log_format.h"

namespace hdd {

void AppendNetFrame(std::string* out, std::string_view payload) {
  AppendFrame(out, payload);
}

void FrameDecoder::Feed(std::string_view bytes) {
  // Compact once the consumed prefix dominates the buffer, so the memory
  // held per connection tracks the in-flight frame, not stream history.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

FrameDecoder::Next FrameDecoder::Poll(std::string* payload) {
  if (corrupt_) return Next::kCorrupt;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return Next::kNeedMore;
  std::string_view header(buffer_.data() + consumed_, kFrameHeaderBytes);
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  GetU32(&header, &length);
  GetU32(&header, &crc);
  if (length > kMaxNetFramePayload) {
    // A complete header announcing an insane payload: the stream is
    // garbage or desynchronized, not mid-frame.
    corrupt_ = true;
    return Next::kCorrupt;
  }
  if (available < kFrameHeaderBytes + length) return Next::kNeedMore;
  const std::string_view body(buffer_.data() + consumed_ + kFrameHeaderBytes,
                              length);
  if (Crc32(body) != crc) {
    corrupt_ = true;
    return Next::kCorrupt;
  }
  payload->assign(body);
  consumed_ += kFrameHeaderBytes + length;
  return Next::kFrame;
}

}  // namespace hdd
