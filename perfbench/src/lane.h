#ifndef PERFBENCH_LANE_H_
#define PERFBENCH_LANE_H_
/// \file lane.h
/// \brief The benchmark's own HTTP/1.1 client: one blocking keep-alive
/// connection per lane, no retries, no pooling.  It is the measuring
/// instrument, so it shares no code with the server under test.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pb {

/// Monotonic milliseconds.
double NowMs();

struct Reply {
  int status = 0;
  /// Header names lower-cased.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  double ms = 0.0;  ///< send of the first byte to the last body byte read

  const std::string* Header(std::string_view lower_name) const;
};

/// \brief One closed-loop lane: a single keep-alive connection to
/// 127.0.0.1:port.  Transport failures throw std::runtime_error.
class Lane {
 public:
  explicit Lane(int port) : port_(port) {}
  ~Lane();
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  Reply Call(std::string_view method, std::string_view target,
             std::string_view body = {},
             const std::vector<std::pair<std::string, std::string>>&
                 headers = {});

  int port() const { return port_; }

 private:
  void Connect();
  void Close();

  const int port_;
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the previous response
};

}  // namespace pb

#endif  // PERFBENCH_LANE_H_
