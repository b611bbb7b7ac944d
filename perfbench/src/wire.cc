#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace pb::wire {

namespace {

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

std::string Header(Op op, std::uint64_t id, std::size_t body) {
  std::string out;
  out.reserve(kHeaderBytes + body);
  PutU32(&out, static_cast<std::uint32_t>(kHeaderBytes - 4 + body));
  out.push_back(static_cast<char>(op));
  out.push_back(0);  // status
  out.push_back(0);  // backend name length: the server default
  out.push_back(0);  // reserved
  PutU64(&out, id);
  return out;
}

}  // namespace

std::uint32_t GetU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

std::uint64_t GetU64(const char* p) {
  return GetU32(p) | (std::uint64_t{GetU32(p + 4)} << 32);
}

std::string EncodeDistance(Op op, std::uint64_t id, Node s, Node t) {
  std::string out = Header(op, id, 8);
  PutU32(&out, s);
  PutU32(&out, t);
  return out;
}

std::string EncodeBatch(std::uint64_t id,
                        const std::vector<std::pair<Node, Node>>& pairs) {
  std::string out = Header(kBatch, id, 4 + 8 * pairs.size());
  PutU32(&out, static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [s, t] : pairs) {
    PutU32(&out, s);
    PutU32(&out, t);
  }
  return out;
}

std::string EncodeMatrix(std::uint64_t id, const std::vector<Node>& sources,
                         const std::vector<Node>& targets) {
  std::string out =
      Header(kMatrix, id, 8 + 4 * (sources.size() + targets.size()));
  PutU32(&out, static_cast<std::uint32_t>(sources.size()));
  PutU32(&out, static_cast<std::uint32_t>(targets.size()));
  for (const Node v : sources) PutU32(&out, v);
  for (const Node v : targets) PutU32(&out, v);
  return out;
}

std::string EncodeEmpty(Op op, std::uint64_t id) { return Header(op, id, 0); }

std::string EncodeUpdateFile(std::uint64_t id, const std::string& path) {
  return Header(kUpdateFile, id, path.size()) + path;
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::Connect(std::uint16_t port, std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  std::string banner;
  if (!ReceiveUntil(&Conn::HasLine) || !PopLine(&banner) ||
      banner.rfind("AH/1 ready ", 0) != 0) {
    *error = "no banner line";
    return false;
  }
  return true;
}

bool Conn::StartV2(std::string* error) {
  Frame hello;
  if (!Send("AHB2") || !ReceiveUntil(&Conn::HasFrame) || !PopFrame(&hello) ||
      hello.op != kHello || hello.status != kStatusOk) {
    *error = "v2 negotiation failed";
    return false;
  }
  return true;
}

bool Conn::Send(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  bytes_sent_ += bytes.size();
  return true;
}

bool Conn::Receive() {
  if (at_ > 0 && at_ == in_.size()) {
    in_.clear();
    at_ = 0;
  } else if (at_ > (1 << 20)) {
    in_.erase(0, at_);
    at_ = 0;
  }
  char chunk[1 << 16];
  ssize_t n;
  do {
    n = ::recv(fd_, chunk, sizeof(chunk), 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;
  in_.append(chunk, static_cast<std::size_t>(n));
  bytes_received_ += static_cast<std::uint64_t>(n);
  return true;
}

bool Conn::HasFrame() const {
  if (in_.size() - at_ < 4) return false;
  return in_.size() - at_ >= 4 + std::size_t{GetU32(in_.data() + at_)};
}

bool Conn::HasLine() const {
  return in_.find('\n', at_) != std::string::npos;
}

bool Conn::ReceiveUntil(bool (Conn::*ready)() const) {
  while (!(this->*ready)()) {
    if (!Receive()) return false;
  }
  return true;
}

bool Conn::PopFrame(Frame* frame) {
  if (!HasFrame()) return false;
  const char* p = in_.data() + at_;
  const std::uint32_t len = GetU32(p);
  if (len < kHeaderBytes - 4) return false;
  frame->op = static_cast<std::uint8_t>(p[4]);
  frame->status = static_cast<std::uint8_t>(p[5]);
  frame->id = GetU64(p + 8);
  frame->payload.assign(p + kHeaderBytes, len - (kHeaderBytes - 4));
  at_ += 4 + len;
  return true;
}

bool Conn::PopLine(std::string* line) {
  const std::size_t nl = in_.find('\n', at_);
  if (nl == std::string::npos) return false;
  line->assign(in_, at_, nl - at_);
  at_ = nl + 1;
  return true;
}

bool Conn::Call(std::string_view request, std::uint64_t id, Frame* reply) {
  if (!Send(request)) return false;
  while (true) {
    if (!ReceiveUntil(&Conn::HasFrame) || !PopFrame(reply)) return false;
    if (reply->id == id) return true;
  }
}

std::map<std::string, double> ParseStats(std::string_view text) {
  std::map<std::string, double> out;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find(' ', at);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view kv = text.substr(at, end - at);
    const std::size_t eq = kv.find('=');
    if (eq != std::string_view::npos) {
      const std::string value(kv.substr(eq + 1));
      char* stop = nullptr;
      const double v = std::strtod(value.c_str(), &stop);
      if (stop != value.c_str() && *stop == '\0') {
        out[std::string(kv.substr(0, eq))] = v;
      }
    }
    at = end + 1;
  }
  return out;
}

}  // namespace pb::wire
