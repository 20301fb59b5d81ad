#include "svc/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "fault/fault.h"
#include "support/hash.h"

namespace mcr::svc {

std::ptrdiff_t read_full(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    std::size_t want = n - got;
    // One hook evaluation per read syscall: the plan can turn this
    // round into a no-op EINTR, a 1-byte short read, or a connection
    // reset. Injected EINTR rounds are bounded by the plan's
    // max_per_site cap, so a probability-1 plan cannot livelock.
    const fault::Decision d = MCR_FAULT_POINT(fault::Site::kSockRead);
    if (d.action == fault::Action::kEintr) continue;
    if (d.action == fault::Action::kReset) {
      errno = ECONNRESET;
      return -1;
    }
    if (d.action == fault::Action::kShort && want > 1) want = 1;
    const ::ssize_t rc = ::read(fd, buf + got, want);
    if (rc > 0) {
      got += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0 && got == 0) return 0;
    return -1;
  }
  return static_cast<std::ptrdiff_t>(n);
}

bool write_full(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    std::size_t want = bytes.size() - sent;
    const fault::Decision d = MCR_FAULT_POINT(fault::Site::kSockWrite);
    if (d.action == fault::Action::kEintr) continue;
    if (d.action == fault::Action::kReset) {
      errno = ECONNRESET;
      return false;
    }
    if (d.action == fault::Action::kShort && want > 1) want = 1;
    // MSG_NOSIGNAL: a peer that closed mid-response must surface as a
    // write error, not a process-killing SIGPIPE. Non-socket fds
    // (tests drive the framing over pipes) fall back to write().
    ::ssize_t rc = ::send(fd, bytes.data() + sent, want, MSG_NOSIGNAL);
    if (rc < 0 && errno == ENOTSOCK) {
      rc = ::write(fd, bytes.data() + sent, want);
    }
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::string encode_frame(std::string_view payload) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  frame.append(kMagic, sizeof kMagic);
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  frame.append(payload);
  return frame;
}

ReadStatus read_frame(int fd, std::size_t max_frame_bytes, std::string& payload) {
  char header[kHeaderBytes];
  const std::ptrdiff_t hrc = read_full(fd, header, kHeaderBytes);
  if (hrc == 0) return ReadStatus::kClosed;
  if (hrc < 0) return ReadStatus::kTruncated;
  if (std::memcmp(header, kMagic, sizeof kMagic) != 0) return ReadStatus::kBadMagic;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(header[4 + i]))
           << (8 * i);
  }
  if (len > max_frame_bytes) return ReadStatus::kTooLarge;
  payload.resize(len);
  if (len > 0 && read_full(fd, payload.data(), len) != static_cast<std::ptrdiff_t>(len)) {
    return ReadStatus::kTruncated;
  }
  return ReadStatus::kOk;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += kHex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string generate_trace_id() {
  // splitmix64 over (seed, counter): ids are unique per process and
  // collide across processes only by 128-bit accident.
  static const std::uint64_t seed = [] {
    const auto now = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    return now ^ (static_cast<std::uint64_t>(::getpid()) << 32);
  }();
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t hi = splitmix64(seed ^ n);
  const std::uint64_t lo = splitmix64(hi ^ ~n);
  std::string id(32, '0');
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) {
    id[static_cast<std::size_t>(i)] = kHex[(hi >> (60 - 4 * i)) & 0xf];
    id[static_cast<std::size_t>(16 + i)] = kHex[(lo >> (60 - 4 * i)) & 0xf];
  }
  return id;
}

bool is_valid_trace_id(std::string_view id) {
  if (id.empty() || id.size() > kMaxTraceIdBytes) return false;
  for (const char c : id) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                    (c >= 'A' && c <= 'Z') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string splice_field_front(std::string_view json_object, std::string_view key,
                               std::string_view value) {
  const auto brace = json_object.find('{');
  if (brace == std::string_view::npos || value.empty()) return std::string(json_object);
  std::string out;
  out.reserve(json_object.size() + key.size() + value.size() + 8);
  out.append(json_object.substr(0, brace + 1));
  out += '"';
  out.append(key);
  out += "\":\"";
  out += json_escape(value);
  out += '"';
  // Keep `{}` well-formed: only add the comma when fields follow.
  const auto rest = json_object.substr(brace + 1);
  const auto first_content = rest.find_first_not_of(" \t\r\n");
  if (first_content != std::string_view::npos && rest[first_content] != '}') {
    out += ',';
  }
  out.append(rest);
  return out;
}

std::string with_trace_id(std::string_view json_object, std::string_view trace_id) {
  return splice_field_front(json_object, "trace_id", trace_id);
}

std::string error_payload(std::string_view code, std::string_view message) {
  std::string out = "{\"status\":\"error\",\"code\":\"";
  out += json_escape(code);
  out += "\",\"message\":\"";
  out += json_escape(message);
  out += "\"}";
  return out;
}

}  // namespace mcr::svc
