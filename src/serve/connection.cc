#include "serve/connection.hh"

#include <unistd.h>

#include "serve/service.hh"

namespace absim::serve {

bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

LineReader::Status
LineReader::next(std::string &line)
{
    for (;;) {
        const std::size_t newline = buffer_.find('\n', scanned_);
        if (newline != std::string::npos) {
            if (newline > kMaxLineBytes)
                return Status::TooLong;
            line.assign(buffer_, 0, newline);
            buffer_.erase(0, newline + 1);
            scanned_ = 0;
            return Status::Line;
        }
        scanned_ = buffer_.size();
        if (buffer_.size() > kMaxLineBytes)
            return Status::TooLong;
        char chunk[4096];
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n <= 0)
            return Status::Closed;
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

void
serveConnection(Service &service, int fd)
{
    LineReader reader(fd);
    std::string line;
    for (;;) {
        const LineReader::Status status = reader.next(line);
        if (status == LineReader::Status::Closed)
            break;
        if (status == LineReader::Status::TooLong) {
            (void)writeAll(fd, service.rejectLine(
                                   "request line exceeds " +
                                   std::to_string(kMaxLineBytes) +
                                   " bytes") +
                                   "\n");
            break;
        }
        if (line.empty())
            continue;
        if (!writeAll(fd, service.handle(line) + "\n"))
            break;
    }
    ::close(fd);
}

} // namespace absim::serve
