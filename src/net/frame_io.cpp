#include "net/frame_io.hpp"

#include <cerrno>

#include <unistd.h>

#include "obs/registry.hpp"

namespace esched::net {

bool FrameConn::send(const std::vector<std::uint8_t>& frame) {
  if (!fd_.valid()) return false;
  // Compact the queue once everything before the cursor is sent, so the
  // outbox never grows without bound across a long sweep.
  if (cursor_ == outbox_.size()) {
    outbox_.clear();
    cursor_ = 0;
  }
  outbox_.insert(outbox_.end(), frame.begin(), frame.end());
  return flush();
}

bool FrameConn::flush() {
  if (!fd_.valid()) return false;
  while (cursor_ < outbox_.size()) {
    const ssize_t n = ::write(fd_.get(), outbox_.data() + cursor_,
                              outbox_.size() - cursor_);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;  // EPIPE, ECONNRESET, ...
    }
    cursor_ += static_cast<std::size_t>(n);
    bytes_tx_ += static_cast<std::uint64_t>(n);
    obs::bump("net.bytes_tx", static_cast<std::uint64_t>(n));
  }
  return true;
}

FrameConn::ReadStatus FrameConn::fill() {
  if (!fd_.valid()) return ReadStatus::kError;
  for (;;) {
    std::uint8_t chunk[65536];
    const ssize_t n = ::read(fd_.get(), chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadStatus::kOk;
      return ReadStatus::kError;
    }
    if (n == 0) return ReadStatus::kClosed;
    frames_.append(chunk, static_cast<std::size_t>(n));
    bytes_rx_ += static_cast<std::uint64_t>(n);
    obs::bump("net.bytes_rx", static_cast<std::uint64_t>(n));
    if (static_cast<std::size_t>(n) < sizeof chunk || frames_.ready()) {
      return ReadStatus::kOk;
    }
  }
}

}  // namespace esched::net
