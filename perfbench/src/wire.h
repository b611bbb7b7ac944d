// A loopback client for the route server's two wire protocols, written from
// the protocol description alone (v1: newline-terminated text lines; v2:
// "AHB2"-negotiated frames with a 16-byte little-endian header echoing a
// client-chosen request id). It includes nothing from the program under
// test, so a codec fault on the server side shows up as a wrong or
// undecodable reply here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "reference.h"

namespace pb::wire {

enum Op : std::uint8_t {
  kHello = 0x01,
  kDistance = 0x02,
  kPath = 0x03,
  kBatch = 0x05,
  kMatrix = 0x06,
  kStats = 0x07,
  kUpdateFile = 0x0b,
  kReload = 0x0c,
};

/// Reply status bytes (ErrorCode + 1 on the server side).
inline constexpr std::uint8_t kStatusOk = 0;
inline constexpr std::uint8_t kStatusOverload = 6;
inline constexpr std::uint8_t kStatusTimeout = 7;

inline constexpr std::size_t kHeaderBytes = 16;

struct Frame {
  std::uint8_t op = 0;
  std::uint8_t status = 0;
  std::uint64_t id = 0;
  std::string payload;
};

std::string EncodeDistance(Op op, std::uint64_t id, Node s, Node t);
std::string EncodeBatch(std::uint64_t id,
                        const std::vector<std::pair<Node, Node>>& pairs);
std::string EncodeMatrix(std::uint64_t id, const std::vector<Node>& sources,
                         const std::vector<Node>& targets);
std::string EncodeEmpty(Op op, std::uint64_t id);
std::string EncodeUpdateFile(std::uint64_t id, const std::string& path);

std::uint32_t GetU32(const char* p);
std::uint64_t GetU64(const char* p);

/// One TCP connection to 127.0.0.1. Counts every byte it moves.
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn();

  /// Connects and reads the server's v1 banner line. False (with *error)
  /// on failure.
  bool Connect(std::uint16_t port, std::string* error);
  /// Negotiates v2 ("AHB2") and consumes the hello frame.
  bool StartV2(std::string* error);

  int fd() const { return fd_; }
  bool Send(std::string_view bytes);
  /// One recv() into the input buffer; false on EOF or error.
  bool Receive();
  /// Pops one complete frame / line from the input buffer.
  bool PopFrame(Frame* frame);
  bool PopLine(std::string* line);
  /// Blocking: sends `request` and waits for the frame echoing `id`
  /// (the connection must have nothing else in flight).
  bool Call(std::string_view request, std::uint64_t id, Frame* reply);

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  bool ReceiveUntil(bool (Conn::*ready)() const);
  bool HasFrame() const;
  bool HasLine() const;

  int fd_ = -1;
  std::string in_;
  std::size_t at_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

/// Parses a `stats` reply body ("k=v k=v ...") into a map of numbers;
/// non-numeric values are skipped.
std::map<std::string, double> ParseStats(std::string_view text);

}  // namespace pb::wire
