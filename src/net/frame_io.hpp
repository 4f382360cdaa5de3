// Wire frames over non-blocking stream sockets.
//
// run/wire.hpp defines the frame grammar and run/endpoint.hpp the
// incremental reassembly; this layer adds the two things a socket needs
// that a pipe supervisor did not:
//
//  * Partial *writes*. A pipe write from the supervisor either completes
//    or the worker is dead; a socket send can accept half a frame and
//    return EAGAIN. FrameConn keeps an outbound byte queue and flushes it
//    whenever poll() reports writability, so callers enqueue whole frames
//    and never block.
//  * Partial *reads*, explicitly surfaced. fill() reads until the
//    FrameAssembler holds one complete frame (or the kernel has no more);
//    frames() then yields complete CRC-verified frames, however the bytes
//    were chunked by the network (net_frame_test reassembles byte-by-byte).
//
// Byte counters: every read/write is accounted to the net.bytes_rx /
// net.bytes_tx obs counters (gated, like every obs site).
#pragma once

#include <cstdint>
#include <vector>

#include "net/socket.hpp"
#include "run/endpoint.hpp"

namespace esched::net {

/// One framed, non-blocking stream connection.
class FrameConn {
 public:
  explicit FrameConn(Fd fd) : fd_(std::move(fd)) {}

  int fd() const { return fd_.get(); }
  void close() { fd_.reset(); }

  /// True when outbound bytes are queued — poll this fd for POLLOUT.
  bool wants_write() const { return cursor_ < outbox_.size(); }

  /// Queue a complete frame and opportunistically flush. False when the
  /// connection failed (the caller must discard it).
  bool send(const std::vector<std::uint8_t>& frame);

  /// Flush queued bytes (on POLLOUT). False on connection failure.
  bool flush();

  enum class ReadStatus {
    kOk,      ///< zero or more bytes consumed; connection healthy
    kClosed,  ///< orderly EOF from the peer
    kError,   ///< read failed; connection must be discarded
  };

  /// Drain readable bytes into the frame assembler (on POLLIN), stopping
  /// early once a frame is ready() there; the caller extracts it and polls
  /// again for the rest.
  ReadStatus fill();

  /// The reassembly buffer fill() feeds; call next() on it to extract
  /// complete verified frames.
  run::FrameAssembler& frames() { return frames_; }

  std::uint64_t bytes_tx() const { return bytes_tx_; }
  std::uint64_t bytes_rx() const { return bytes_rx_; }

 private:
  Fd fd_;
  run::FrameAssembler frames_;
  std::vector<std::uint8_t> outbox_;
  std::size_t cursor_ = 0;  ///< first unsent outbox_ byte
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t bytes_rx_ = 0;
};

}  // namespace esched::net
