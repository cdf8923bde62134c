#ifndef VDB_NET_CONN_H_
#define VDB_NET_CONN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/protocol.h"

namespace vdb::net {

/// One accepted, non-blocking connection. No internal locking: the
/// server thread holding the connection's EPOLLONESHOT event (or the
/// run queue, between threads) owns it, reads its frames, serializes
/// the replies here and flushes them.
///
/// Failpoint sites (the short-I/O and EINTR torture the soak test arms):
///   net.read.short / net.write.short — caps one syscall's transfer at
///     a single byte, forcing the partial-frame re-entry paths;
///   net.read.eintr / net.write.eintr — injects one spurious EINTR
///     retry into the syscall wrapper.
class Conn {
 public:
  /// `*unflushed` counts the connections holding unflushed reply bytes;
  /// the Conn keeps its own share current.
  Conn(int fd, std::atomic<int>* unflushed);
  ~Conn();  ///< closes the socket
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  enum class IoResult {
    kOk,             ///< connection stays open
    kClosed,         ///< peer closed or fatal socket error
    kProtocolError,  ///< oversize/garbage frame — close after error reply
  };

  /// Drains the socket (until EAGAIN) and appends each complete frame's
  /// payload to `*frames`. Partial frames stay buffered across calls.
  IoResult ReadReady(std::vector<std::vector<std::uint8_t>>* frames);

  /// Serializes `resp` onto the write buffer (flushed by WriteReady).
  void QueueResponse(const Response& resp);

  /// Flushes as much of the write buffer as the socket accepts.
  IoResult WriteReady();

  /// True while unflushed response bytes remain (EPOLLOUT interest).
  bool WantsWrite() const { return write_at_ < write_buf_.size(); }

  int fd() const { return fd_; }

 private:
  void CountUnflushed(bool unflushed);

  int fd_;
  std::atomic<int>* unflushed_;
  bool counted_ = false;
  std::vector<std::uint8_t> read_buf_;
  std::vector<std::uint8_t> write_buf_;
  std::size_t write_at_ = 0;
};

}  // namespace vdb::net

#endif  // VDB_NET_CONN_H_
