#include "net/conn.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "core/failpoint.h"
#include "core/telemetry.h"

namespace vdb::net {

namespace {

/// recv(2) with EINTR retry. `net.read.eintr` injects one spurious
/// interrupted round through the loop (the retry path the WAL shares via
/// posix_io; here it must coexist with EAGAIN handling, so the loop is
/// local). `net.read.short` caps the transfer at one byte, which forces
/// the frame re-assembly paths above this wrapper.
ssize_t NetRecv(int fd, void* buf, std::size_t len) {
  if (FailpointFires("net.read.short")) len = 1;
  bool injected_eintr = FailpointFires("net.read.eintr");
  for (;;) {
    if (injected_eintr) {
      injected_eintr = false;  // one simulated EINTR, then the real call
      errno = EINTR;
    } else {
      ssize_t n = ::recv(fd, buf, len, 0);
      if (!(n < 0 && errno == EINTR)) return n;
    }
  }
}

ssize_t NetSend(int fd, const void* buf, std::size_t len) {
  if (FailpointFires("net.write.short")) len = 1;
  bool injected_eintr = FailpointFires("net.write.eintr");
  for (;;) {
    if (injected_eintr) {
      injected_eintr = false;
      errno = EINTR;
    } else {
      // MSG_NOSIGNAL: a peer that vanished mid-write (the soak test
      // SIGKILLs clients) must surface as EPIPE, not kill the server.
      ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
      if (!(n < 0 && errno == EINTR)) return n;
    }
  }
}

}  // namespace

Conn::Conn(int fd, std::atomic<int>* unflushed)
    : fd_(fd), unflushed_(unflushed) {}

Conn::~Conn() {
  CountUnflushed(false);
  if (fd_ >= 0) ::close(fd_);
}

void Conn::CountUnflushed(bool unflushed) {
  if (unflushed == counted_) return;
  counted_ = unflushed;
  unflushed_->fetch_add(unflushed ? 1 : -1, std::memory_order_acq_rel);
}

Conn::IoResult Conn::ReadReady(
    std::vector<std::vector<std::uint8_t>>* frames) {
  static Counter& protocol_errors =
      Registry::Global().GetCounter("vdb_server_protocol_errors_total");
  std::uint8_t chunk[16 * 1024];
  for (;;) {
    ssize_t n = NetRecv(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return IoResult::kClosed;
    }
    if (n == 0) return IoResult::kClosed;  // orderly peer close
    read_buf_.insert(read_buf_.end(), chunk, chunk + n);
    // A short-read failpoint yields 1-byte transfers; keep looping — the
    // EAGAIN above is still the only exit for "nothing left".
  }

  for (;;) {
    std::span<const std::uint8_t> payload;
    std::size_t consumed = 0;
    FrameResult fr = ExtractFrame(read_buf_, &payload, &consumed);
    if (fr == FrameResult::kNeedMore) break;
    if (fr == FrameResult::kTooLarge) {
      protocol_errors.Inc();
      return IoResult::kProtocolError;
    }
    frames->emplace_back(payload.begin(), payload.end());
    read_buf_.erase(read_buf_.begin(),
                    read_buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  return IoResult::kOk;
}

void Conn::QueueResponse(const Response& resp) {
  // Compact the flushed prefix first so the buffer cannot grow without
  // bound across many responses on a long-lived connection.
  if (write_at_ > 0) {
    write_buf_.erase(write_buf_.begin(),
                     write_buf_.begin() + static_cast<std::ptrdiff_t>(write_at_));
    write_at_ = 0;
  }
  EncodeResponse(resp, &write_buf_);
}

Conn::IoResult Conn::WriteReady() {
  while (write_at_ < write_buf_.size()) {
    ssize_t n = NetSend(fd_, write_buf_.data() + write_at_,
                        write_buf_.size() - write_at_);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return IoResult::kClosed;  // EPIPE/ECONNRESET: peer is gone
    }
    write_at_ += static_cast<std::size_t>(n);
  }
  CountUnflushed(WantsWrite());
  return IoResult::kOk;
}

}  // namespace vdb::net
