#include "process.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/env.hh"
#include "measure.hh"

namespace absim::perfbench {

Child::~Child()
{
    if (outFd_ >= 0)
        ::close(outFd_);
    if (pid_ > 0)
        (void)wait(0.0);
}

bool
Child::start(const std::vector<std::string> &argv, bool captureOut,
             const std::string &logPath)
{
    int pipeFds[2] = {-1, -1};
    if (captureOut && ::pipe2(pipeFds, O_CLOEXEC) != 0)
        return false;
    const int logFd = ::open(logPath.empty() ? "/dev/null" : logPath.c_str(),
                             O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (logFd < 0) {
        if (captureOut) {
            ::close(pipeFds[0]);
            ::close(pipeFds[1]);
        }
        return false;
    }
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(captureOut ? pipeFds[1] : logFd, STDOUT_FILENO);
        ::dup2(logFd, STDERR_FILENO);
        ::execv(args[0], args.data());
        _exit(127);
    }
    ::close(logFd);
    if (captureOut) {
        ::close(pipeFds[1]);
        if (pid < 0)
            ::close(pipeFds[0]);
        else
            outFd_ = pipeFds[0];
    }
    if (pid < 0)
        return false;
    pid_ = pid;
    return true;
}

std::string
Child::readOut()
{
    std::string out;
    if (outFd_ < 0)
        return out;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::read(outFd_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        out.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(outFd_);
    outFd_ = -1;
    return out;
}

int
Child::wait(double timeoutSeconds)
{
    if (pid_ <= 0)
        return -1;
    const double deadline = wallNow() + timeoutSeconds;
    int status = 0;
    rusage usage{};
    for (;;) {
        const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
        if (r == pid_)
            break;
        if (r < 0 && errno != EINTR) {
            pid_ = -1;
            return -1;
        }
        if (wallNow() >= deadline) {
            ::kill(pid_, SIGKILL);
            (void)::waitpid(pid_, &status, 0);
            pid_ = -1;
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    reapedPeakRssMb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

namespace {

/** Pin every thread of process @p pid ("self" for this one) to @p cpu. */
void
pinThreads(const std::string &pid, int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    std::error_code ec;
    for (const auto &task :
         std::filesystem::directory_iterator("/proc/" + pid + "/task", ec)) {
        std::uint64_t tid = 0;
        if (core::parseUint(task.path().filename().c_str(), tid))
            (void)::sched_setaffinity(static_cast<pid_t>(tid), sizeof(set),
                                      &set);
    }
}

} // namespace

CpuRotation::CpuRotation()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed))
                cpus_.push_back(cpu);
    const auto here =
        std::find(cpus_.begin(), cpus_.end(), ::sched_getcpu());
    if (here == cpus_.end())
        return;
    at_ = static_cast<std::size_t>(here - cpus_.begin());
    pinThreads("self", *here);
    moved_ = wallNow();
}

void
CpuRotation::next(pid_t child)
{
    if (cpus_.empty())
        return;
    at_ = (at_ + 1) % cpus_.size();
    pinThreads("self", cpus_[at_]);
    if (child > 0)
        pinThreads(std::to_string(child), cpus_[at_]);
    moved_ = wallNow();
}

void
CpuRotation::every(double seconds, pid_t child)
{
    if (wallNow() - moved_ >= seconds)
        next(child);
}

bool
LineClient::connect(const std::string &path)
{
    close();
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        return false;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        return false;
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        close();
        return false;
    }
    return true;
}

bool
LineClient::request(const std::string &line, std::string &response)
{
    if (fd_ < 0)
        return false;
    const std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
        const ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    for (;;) {
        const auto newline = buffer_.find('\n');
        if (newline != std::string::npos) {
            response = buffer_.substr(0, newline);
            buffer_.erase(0, newline + 1);
            return true;
        }
        char chunk[4096];
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

void
LineClient::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    buffer_.clear();
}

} // namespace absim::perfbench
