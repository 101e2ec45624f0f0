#include "hyperpart/server/protocol.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <exception>

namespace hp::server {

namespace {

/// Read exactly n bytes; returns bytes read before EOF (< n means EOF),
/// or -1 on error. Retries EINTR.
std::int64_t read_exact(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<std::size_t>(r);
  }
  return static_cast<std::int64_t>(got);
}

bool write_exact(int fd, const char* buf, std::size_t n) {
  std::size_t put = 0;
  while (put < n) {
    const ssize_t r = ::write(fd, buf + put, n - put);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    put += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

const char* frame_error_name(FrameError e) noexcept {
  switch (e) {
    case FrameError::kNone: return "none";
    case FrameError::kClosed: return "closed";
    case FrameError::kBadMagic: return "bad_magic";
    case FrameError::kOversize: return "oversize";
    case FrameError::kTruncated: return "truncated";
    case FrameError::kIo: return "io";
  }
  return "unknown";
}

FrameError read_frame(int fd, std::string& payload, std::uint32_t max_payload) {
  char header[8];
  const std::int64_t got = read_exact(fd, header, sizeof header);
  if (got < 0) return FrameError::kIo;
  if (got == 0) return FrameError::kClosed;
  if (got < static_cast<std::int64_t>(sizeof header)) {
    // Partial header: a bad magic is diagnosable from what we have.
    if (std::memcmp(header, kFrameMagic,
                    std::min<std::size_t>(static_cast<std::size_t>(got),
                                          sizeof kFrameMagic)) != 0) {
      return FrameError::kBadMagic;
    }
    return FrameError::kTruncated;
  }
  if (std::memcmp(header, kFrameMagic, sizeof kFrameMagic) != 0) {
    return FrameError::kBadMagic;
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(header[4 + i]))
           << (8 * i);
  }
  if (len > max_payload) return FrameError::kOversize;
  payload.resize(len);
  if (len > 0) {
    const std::int64_t body = read_exact(fd, payload.data(), len);
    if (body < 0) return FrameError::kIo;
    if (body < static_cast<std::int64_t>(len)) return FrameError::kTruncated;
  }
  return FrameError::kNone;
}

FrameError write_frame(int fd, const std::string& payload) {
  if (payload.size() > static_cast<std::size_t>(UINT32_MAX)) {
    return FrameError::kOversize;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char header[8];
  std::memcpy(header, kFrameMagic, sizeof kFrameMagic);
  for (int i = 0; i < 4; ++i) {
    header[4 + i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  if (!write_exact(fd, header, sizeof header)) return FrameError::kIo;
  if (len > 0 && !write_exact(fd, payload.data(), len)) return FrameError::kIo;
  return FrameError::kNone;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    errno = ENAMETOOLONG;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

std::optional<std::string> round_trip(int fd, const std::string& request) {
  if (write_frame(fd, request) != FrameError::kNone) return std::nullopt;
  std::string response;
  if (read_frame(fd, response) != FrameError::kNone) return std::nullopt;
  return response;
}

std::optional<obs::json::Value> rpc(int fd, const obs::json::Value& request) {
  const auto response = round_trip(fd, obs::json::dump(request));
  if (!response) return std::nullopt;
  try {
    return obs::json::parse(*response);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace hp::server
