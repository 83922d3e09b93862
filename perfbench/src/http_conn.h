#ifndef PERFBENCH_HTTP_CONN_H_
#define PERFBENCH_HTTP_CONN_H_

// A keep-alive HTTP/1.1 client connection for the load generator: one
// socket reused for every request of a client thread, bodies framed by
// Content-Length or chunked transfer encoding.

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct HttpReply {
  int status = 0;        // 0 when the exchange failed (see error)
  std::string body;      // chunked framing removed
  double ttfb_ms = 0.0;  // request sent -> first response byte
  double total_ms = 0.0; // request sent -> response complete
  std::string error;     // non-empty on a transport failure or timeout
};

class HttpConnection {
 public:
  HttpConnection(uint16_t port, int timeout_ms);
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// POSTs `body` to /sparql. Reconnects first if the previous exchange
  /// left the connection closed. Timing starts after the request is sent.
  HttpReply Post(std::string_view content_type, std::string_view body);

 private:
  bool Connect(std::string* error);
  void Close();
  /// Reads until `buffer_` holds at least `n` bytes after `pos_`.
  bool Fill(size_t n, std::string* error);
  bool ReadLine(std::string* line, std::string* error);

  const uint16_t port_;
  const int timeout_ms_;
  int fd_ = -1;
  std::string buffer_;
  size_t pos_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CONN_H_
