#include "http_conn.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util.h"

namespace perfbench {

HttpConnection::HttpConnection(uint16_t port, int timeout_ms)
    : port_(port), timeout_ms_(timeout_ms) {}

HttpConnection::~HttpConnection() { Close(); }

void HttpConnection::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  buffer_.clear();
  pos_ = 0;
}

bool HttpConnection::Connect(std::string* error) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms_ / 1000;
  tv.tv_usec = (timeout_ms_ % 1000) * 1000;
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

bool HttpConnection::Fill(size_t n, std::string* error) {
  char chunk[65536];
  while (buffer_.size() - pos_ < n) {
    const ssize_t got = recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      *error = got == 0 ? "connection closed"
                        : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(got));
  }
  return true;
}

bool HttpConnection::ReadLine(std::string* line, std::string* error) {
  while (true) {
    const size_t end = buffer_.find("\r\n", pos_);
    if (end != std::string::npos) {
      line->assign(buffer_, pos_, end - pos_);
      pos_ = end + 2;
      return true;
    }
    if (!Fill(buffer_.size() - pos_ + 1, error)) return false;
  }
}

HttpReply HttpConnection::Post(std::string_view content_type,
                               std::string_view body) {
  HttpReply reply;
  if (fd_ < 0 && !Connect(&reply.error)) return reply;
  std::string request = "POST /sparql HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  request += "Content-Type: ";
  request += content_type;
  request += "\r\nAccept: application/sparql-results+json\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  std::string_view rest = request;
  while (!rest.empty()) {
    const ssize_t n = send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      reply.error = std::string("send: ") + std::strerror(errno);
      Close();
      return reply;
    }
    rest.remove_prefix(static_cast<size_t>(n));
  }
  const Clock::time_point sent = Clock::now();
  // Compact what the previous response left unread (nothing, normally).
  buffer_.erase(0, pos_);
  pos_ = 0;

  std::string line;
  if (!Fill(1, &reply.error)) {
    Close();
    return reply;
  }
  reply.ttfb_ms = Millis(sent, Clock::now());
  bool ok = ReadLine(&line, &reply.error);
  // "HTTP/1.1 200 OK"
  if (ok) {
    const size_t sp = line.find(' ');
    reply.status = sp == std::string::npos ? 0 : std::atoi(line.c_str() + sp + 1);
  }
  long long content_length = -1;
  bool chunked = false;
  bool keep_alive = true;
  while (ok && ReadLine(&line, &reply.error) && !line.empty()) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    for (char& c : key) c = static_cast<char>(std::tolower(c));
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (key == "content-length") content_length = std::atoll(value.c_str());
    if (key == "transfer-encoding" && value == "chunked") chunked = true;
    if (key == "connection" && value == "close") keep_alive = false;
  }
  ok = ok && reply.error.empty();
  if (ok && chunked) {
    while (ok) {
      ok = ReadLine(&line, &reply.error);
      if (!ok) break;
      const size_t size = std::strtoull(line.c_str(), nullptr, 16);
      ok = Fill(size + 2, &reply.error);
      if (!ok) break;
      reply.body.append(buffer_, pos_, size);
      pos_ += size + 2;
      if (size == 0) break;
    }
  } else if (ok && content_length >= 0) {
    ok = Fill(static_cast<size_t>(content_length), &reply.error);
    if (ok) {
      reply.body.assign(buffer_, pos_, static_cast<size_t>(content_length));
      pos_ += static_cast<size_t>(content_length);
    }
  } else if (ok) {
    reply.error = "response without framing";
    ok = false;
  }
  reply.total_ms = Millis(sent, Clock::now());
  if (!ok) {
    reply.status = 0;
    Close();
  } else if (!keep_alive) {
    Close();
  }
  return reply;
}

}  // namespace perfbench
