/**
 * @file
 * Child processes and the Unix-socket client of absim_bench.
 *
 * absim_bench runs set-up probes, the serve daemon and the kernel
 * microbench as child processes.  A Child owns its process: the
 * destructor kills and reaps anything still running, so no exit path
 * leaves a process behind.
 */

#ifndef ABSIM_PERFBENCH_PROCESS_HH
#define ABSIM_PERFBENCH_PROCESS_HH

#include <string>
#include <vector>

#include <sys/types.h>

namespace absim::perfbench {

class Child
{
  public:
    Child() = default;
    ~Child();
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    /**
     * Start @p argv (argv[0] is the program path).  With @p captureOut
     * the child's stdout is readable through readOut(); otherwise it
     * goes to @p logPath (or /dev/null when empty), as stderr always
     * does.  @return false if the process could not be started.
     */
    [[nodiscard]] bool start(const std::vector<std::string> &argv,
                             bool captureOut,
                             const std::string &logPath = "");

    /** Read the captured stdout to EOF. */
    std::string readOut();

    /** Wait up to @p timeoutSeconds for exit, then SIGKILL and reap.
     *  @return the exit status, or -1 if it was killed or not run. */
    int wait(double timeoutSeconds);

    pid_t pid() const { return pid_; }
    bool running() const { return pid_ > 0; }

    /** Peak resident set of the last process reaped, in MB. */
    double reapedPeakRssMb() const { return reapedPeakRssMb_; }

  private:
    pid_t pid_ = -1;
    int outFd_ = -1;
    double reapedPeakRssMb_ = 0.0;
};

/**
 * Moves absim_bench, and with it a child process and all its threads,
 * from one CPU to the next of those it may run on.  On a shared host
 * other tenants slow each CPU on a schedule of its own, for seconds or
 * minutes at a time.  A run that stays on the CPU it started on reads
 * as fast or as slow as that CPU was; a run that visits every CPU in
 * turn gives each operation a chance on the least disturbed one.
 */
class CpuRotation
{
  public:
    /** Starts on the CPU absim_bench runs on now. */
    CpuRotation();

    /** Pin this process, and every thread of @p child when it is > 0,
     *  to the next CPU. */
    void next(pid_t child = -1);

    /** next(@p child) if @p seconds have passed since the last move. */
    void every(double seconds, pid_t child = -1);

    /** How many CPUs the rotation visits. */
    std::size_t size() const { return cpus_.size(); }

  private:
    std::vector<int> cpus_;
    std::size_t at_ = 0;
    double moved_ = 0.0;
};

/** A line-oriented client over a Unix domain socket. */
class LineClient
{
  public:
    LineClient() = default;
    ~LineClient() { close(); }
    LineClient(const LineClient &) = delete;
    LineClient &operator=(const LineClient &) = delete;

    /** Connect to @p path; false if nothing listens there (yet). */
    [[nodiscard]] bool connect(const std::string &path);

    /** Send one line and read one response line. */
    [[nodiscard]] bool request(const std::string &line,
                               std::string &response);

    void close();

  private:
    int fd_ = -1;
    std::string buffer_;
};

} // namespace absim::perfbench

#endif // ABSIM_PERFBENCH_PROCESS_HH
