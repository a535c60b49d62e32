/**
 * @file
 * One absim_serve connection: newline-delimited requests in, one
 * response line out per request.
 *
 * The socket, and stdin for --oneshot and --connect, is a hostile
 * boundary: a client may send any bytes and never a newline.
 * LineReader therefore caps a line at kMaxLineBytes and scans each byte
 * for the newline once, so a newline-free stream costs linear time and
 * bounded memory; serveConnection() answers an over-long line with a
 * bad-request error and stops reading.
 */

#ifndef ABSIM_SERVE_CONNECTION_HH
#define ABSIM_SERVE_CONNECTION_HH

#include <cstddef>
#include <string>

namespace absim::serve {

class Service;

/** Longest request (or response) line, newline excluded. */
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/** Write all of @p data to @p fd.  @return false on a write error. */
[[nodiscard]] bool writeAll(int fd, const std::string &data);

/** Buffered newline-delimited reader over a socket or pipe fd. */
class LineReader
{
  public:
    enum class Status
    {
        Line,         ///< A complete line (newline stripped).
        Unterminated, ///< The bytes after the last newline, at EOF.
        Closed,       ///< EOF or a read error with nothing buffered.
        TooLong,      ///< The next line exceeds kMaxLineBytes.
    };

    explicit LineReader(int fd) : fd_(fd) {}

    [[nodiscard]] Status next(std::string &line);

  private:
    int fd_;
    std::string buffer_;
    std::size_t scanned_ = 0; ///< buffer_ prefix known newline-free.
};

/**
 * Serve requests read from @p in, one response line each to @p out,
 * until EOF, a write error or an over-long line (answered with a
 * bad-request error).  A final request without its newline is still
 * answered.  Closes neither fd.
 */
void serveConnection(Service &service, int in, int out);

} // namespace absim::serve

#endif // ABSIM_SERVE_CONNECTION_HH
