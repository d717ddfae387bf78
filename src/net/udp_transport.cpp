#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace timing {

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return a;
}

}  // namespace

UdpTransport::UdpTransport(ProcessId self, int n, std::uint16_t base_port)
    : self_(self), n_(n), base_port_(base_port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  // No SO_REUSEADDR: UDP has no TIME_WAIT, and the option would let two
  // nodes silently share a port (stealing each other's datagrams).
  sockaddr_in addr = loopback_addr(port_of(self));
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(std::string("bind port ") +
                             std::to_string(port_of(self)) + ": " +
                             std::strerror(err));
  }
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

bool UdpTransport::send(ProcessId dst, const Bytes& bytes) {
  if (dst < 0 || dst >= n_) return false;
  sockaddr_in addr = loopback_addr(port_of(dst));
  const ssize_t sent =
      ::sendto(fd_, bytes.data(), bytes.size(), 0,
               reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (sent != static_cast<ssize_t>(bytes.size())) {
    // Local send failure (full socket buffer, etc.) - the datagram never
    // left this host.
    TM_TRACE(trace_sink_, TraceEvent::msg(EventKind::kMsgLost, 0,
                                          self_, dst));
    return false;
  }
  return true;
}

bool UdpTransport::recv(Bytes& out, ProcessId& from,
                        Clock::time_point deadline) {
  for (;;) {
    const auto now = Clock::now();
    if (now >= deadline) return false;
    const auto wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             deadline - now)
                             .count();
    pollfd pfd{fd_, POLLIN, 0};
    const int rv = ::poll(&pfd, 1, static_cast<int>(std::max<long long>(
                                       1, static_cast<long long>(wait_ms))));
    if (rv < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rv == 0) continue;  // poll's ms wait is truncated; the loop's
                            // deadline check decides the real timeout
    out.resize(65536);
    sockaddr_in src{};
    socklen_t srclen = sizeof src;
    const ssize_t got =
        ::recvfrom(fd_, out.data(), out.size(), 0,
                   reinterpret_cast<sockaddr*>(&src), &srclen);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    out.resize(static_cast<std::size_t>(got));
    const int port = ntohs(src.sin_port);
    from = static_cast<ProcessId>(port - base_port_);
    if (from < 0 || from >= n_) {
      // Stray datagram from an unknown port - dropped. The true source
      // has no ProcessId, so the event reports src == self (see
      // Transport::set_trace_sink).
      TM_TRACE(trace_sink_, TraceEvent::msg(EventKind::kMsgLost, 0,
                                            self_, self_));
      continue;
    }
    return true;
  }
}

}  // namespace timing
