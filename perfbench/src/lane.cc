#include "lane.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace pb {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::string* Reply::Header(std::string_view lower_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lower_name) return &value;
  }
  return nullptr;
}

Lane::~Lane() { Close(); }

void Lane::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

void Lane::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    throw std::runtime_error("connect to port " + std::to_string(port_) +
                             " failed: " + std::strerror(errno));
  }
}

Reply Lane::Call(std::string_view method, std::string_view target,
                 std::string_view body,
                 const std::vector<std::pair<std::string, std::string>>&
                     headers) {
  if (fd_ < 0) Connect();
  std::string request;
  request.reserve(256 + body.size());
  request.append(method).append(" ").append(target).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  for (const auto& [name, value] : headers) {
    request.append(name).append(": ").append(value).append("\r\n");
  }
  if (!body.empty() || method == "POST") {
    request.append("Content-Type: application/json\r\nContent-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  request.append("\r\n").append(body);

  Reply reply;
  const double start = NowMs();
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      Close();
      throw std::runtime_error("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  char chunk[16384];
  auto read_more = [&]() {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close();
      throw std::runtime_error("connection closed mid-response");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  };
  size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    read_more();
  }
  // Status line: "HTTP/1.1 200 OK".
  const size_t line_end = buffer_.find("\r\n");
  const size_t space = buffer_.find(' ');
  if (space == std::string::npos || space > line_end) {
    Close();
    throw std::runtime_error("malformed status line");
  }
  reply.status = std::atoi(buffer_.c_str() + space + 1);
  size_t content_length = 0;
  size_t pos = line_end + 2;
  while (pos < head_end) {
    const size_t eol = buffer_.find("\r\n", pos);
    const size_t colon = buffer_.find(':', pos);
    if (colon != std::string::npos && colon < eol) {
      std::string name = buffer_.substr(pos, colon - pos);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      size_t v = colon + 1;
      while (v < eol && buffer_[v] == ' ') ++v;
      std::string value = buffer_.substr(v, eol - v);
      if (name == "content-length") content_length = std::stoul(value);
      reply.headers.emplace_back(std::move(name), std::move(value));
    }
    pos = eol + 2;
  }
  const size_t body_start = head_end + 4;
  while (buffer_.size() < body_start + content_length) read_more();
  reply.ms = NowMs() - start;
  reply.body = buffer_.substr(body_start, content_length);
  buffer_.erase(0, body_start + content_length);
  return reply;
}

}  // namespace pb
