/**
 * @file
 * absim_serve: the crash-safe simulation service daemon.
 *
 * Speaks the line-JSON protocol of serve/protocol.hh over a Unix
 * domain socket: run/sweep requests execute under the resilient
 * harness, results dedupe through the journal-backed content-addressed
 * cache (kill -9 safe; see serve/result_cache.hh), overload sheds
 * deterministically, and SIGTERM/SIGINT drain gracefully — in-flight
 * work finishes, the cache journal is flushed, new work gets the
 * draining response.  docs/SERVING.md walks through the protocol.
 *
 * Three modes:
 *
 *   absim_serve --socket PATH [flags]   the daemon
 *   absim_serve --connect PATH          client: one request line per
 *                                       stdin line, one response line
 *                                       per stdout line (lockstep)
 *   absim_serve --oneshot [flags]       no socket: serve stdin ->
 *                                       stdout in-process (smoke tests)
 *
 * Daemon flags: --workers N, --queue N (admission bound beyond the
 * workers), --cache PATH (result-cache journal), --deadline S
 * (default per-request wall-clock budget), --max-events N,
 * --stall-limit N, --retries N, --backoff-ms N.
 *
 * Exit status: 0 on clean shutdown/drain, 1 on a socket failure, 2 on
 * a bad command line.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/env.hh"
#include "serve/connection.hh"
#include "serve/service.hh"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [--workers N] [--queue N]\n"
        "       %*s [--cache PATH] [--deadline S] [--max-events N]\n"
        "       %*s [--stall-limit N] [--retries N] [--backoff-ms N]\n"
        "       %s --connect PATH\n"
        "       %s --oneshot [daemon flags]\n",
        argv0, static_cast<int>(std::strlen(argv0)), "",
        static_cast<int>(std::strlen(argv0)), "", argv0, argv0);
    return 2;
}

int
runDaemon(const absim::serve::ServiceConfig &config,
          const std::string &socketPath)
{
    sockaddr_un addr{};
    if (socketPath.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "error: socket path too long: %s\n",
                     socketPath.c_str());
        return 1;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);

    const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0) {
        std::perror("socket");
        return 1;
    }
    ::unlink(socketPath.c_str()); // Stale socket from a crashed daemon.
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd, 64) != 0) {
        std::perror(socketPath.c_str());
        ::close(listenFd);
        return 1;
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    absim::serve::Service service(config);
    std::fprintf(stderr, "absim_serve: listening on %s\n",
                 socketPath.c_str());

    std::vector<std::thread> connections;
    std::vector<int> fds;
    std::mutex fdsMutex;
    std::atomic<unsigned> active{0};

    while (g_stop == 0 && !service.shutdownRequested()) {
        pollfd pfd{listenFd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready <= 0)
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        {
            const std::lock_guard<std::mutex> lock(fdsMutex);
            fds.push_back(fd);
        }
        active.fetch_add(1);
        connections.emplace_back([&service, &active, fd] {
            absim::serve::serveConnection(service, fd, fd);
            ::close(fd);
            active.fetch_sub(1);
        });
    }

    // Graceful drain: stop accepting, let in-flight requests finish
    // and flush the cache journal, then release lingering idle
    // connections and exit cleanly.
    ::close(listenFd);
    service.drain();
    for (int waited = 0; active.load() != 0 && waited < 40; ++waited)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
        const std::lock_guard<std::mutex> lock(fdsMutex);
        for (const int fd : fds)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread &t : connections)
        t.join();
    ::unlink(socketPath.c_str());
    std::fprintf(stderr, "absim_serve: drained, exiting\n");
    return 0;
}

int
runClient(const std::string &socketPath)
{
    sockaddr_un addr{};
    if (socketPath.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "error: socket path too long: %s\n",
                     socketPath.c_str());
        return 1;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        std::perror("socket");
        return 1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        std::perror(socketPath.c_str());
        ::close(fd);
        return 1;
    }
    std::signal(SIGPIPE, SIG_IGN);

    using absim::serve::LineReader;
    LineReader requests(STDIN_FILENO);
    LineReader responses(fd);
    std::string request;
    std::string response;
    for (;;) {
        const LineReader::Status status = requests.next(request);
        if (status == LineReader::Status::Closed)
            break;
        if (status == LineReader::Status::TooLong) {
            std::fprintf(stderr, "error: request line exceeds %zu bytes\n",
                         absim::serve::kMaxLineBytes);
            ::close(fd);
            return 1;
        }
        if (request.empty())
            continue;
        if (!absim::serve::writeAll(fd, request + "\n") ||
            responses.next(response) != LineReader::Status::Line) {
            std::fprintf(stderr, "error: connection closed by daemon\n");
            ::close(fd);
            return 1;
        }
        std::cout << response << "\n" << std::flush;
    }
    ::close(fd);
    return 0;
}

int
runOneshot(const absim::serve::ServiceConfig &config)
{
    absim::serve::Service service(config);
    absim::serve::serveConnection(service, STDIN_FILENO, STDOUT_FILENO);
    service.drain();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    absim::serve::ServiceConfig config;
    std::string socketPath;
    std::string connectPath;
    bool oneshot = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const auto uintFlag = [&](std::uint64_t &out, std::uint64_t min,
                                  std::uint64_t max) {
            const char *v = value();
            std::uint64_t parsed = 0;
            if (v == nullptr || !absim::core::parseUint(v, parsed) ||
                parsed < min || parsed > max) {
                std::fprintf(stderr, "error: invalid %s value '%s'\n",
                             arg.c_str(), v == nullptr ? "" : v);
                return false;
            }
            out = parsed;
            return true;
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--socket") {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            socketPath = v;
        } else if (arg == "--connect") {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            connectPath = v;
        } else if (arg == "--oneshot") {
            oneshot = true;
        } else if (arg == "--cache") {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            config.cachePath = v;
        } else if (arg == "--workers") {
            std::uint64_t v = 0;
            if (!uintFlag(v, 1, 256))
                return 2;
            config.workers = static_cast<unsigned>(v);
        } else if (arg == "--queue") {
            std::uint64_t v = 0;
            if (!uintFlag(v, 0, 1u << 20))
                return 2;
            config.maxQueue = static_cast<std::size_t>(v);
        } else if (arg == "--deadline") {
            const char *v = value();
            double parsed = 0.0;
            if (v == nullptr || !absim::core::parseDouble(v, parsed) ||
                parsed < 0.0) {
                std::fprintf(stderr,
                             "error: invalid --deadline value '%s'\n",
                             v == nullptr ? "" : v);
                return 2;
            }
            config.policy.budget.maxWallSeconds = parsed;
        } else if (arg == "--max-events") {
            if (!uintFlag(config.policy.budget.maxEvents, 0,
                          std::numeric_limits<std::uint64_t>::max()))
                return 2;
        } else if (arg == "--stall-limit") {
            if (!uintFlag(config.policy.budget.stallDispatchLimit, 0,
                          std::numeric_limits<std::uint64_t>::max()))
                return 2;
        } else if (arg == "--retries") {
            std::uint64_t v = 0;
            if (!uintFlag(v, 1, 100))
                return 2;
            config.policy.maxAttempts = static_cast<int>(v);
        } else if (arg == "--backoff-ms") {
            std::uint64_t v = 0;
            if (!uintFlag(v, 0, 60'000))
                return 2;
            config.policy.retryBackoffMs =
                static_cast<std::uint32_t>(v);
        } else {
            std::fprintf(stderr, "error: unknown option '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        }
    }

    const int modes = (socketPath.empty() ? 0 : 1) +
                      (connectPath.empty() ? 0 : 1) + (oneshot ? 1 : 0);
    if (modes != 1)
        return usage(argv[0]);
    if (!connectPath.empty())
        return runClient(connectPath);
    if (oneshot)
        return runOneshot(config);
    return runDaemon(config, socketPath);
}
