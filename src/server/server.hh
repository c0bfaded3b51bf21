/**
 * @file
 * apird's network core: a TCP listener (newline-delimited JSON, one
 * thread per connection) feeding the bounded priority JobQueue, a
 * dispatcher that drains the queue in priority order onto the shared
 * ThreadPool, and the self-metrics the `stats` op reports.
 *
 * Concurrency layout:
 *  - the serve() thread owns accept(); a self-pipe lets
 *    requestDrain() (called from a signal handler — write() is
 *    async-signal-safe) interrupt the poll
 *  - each connection thread parses lines and answers ping/stats/
 *    shutdown inline. It resolves a sim request once (app, config,
 *    result-store key) and answers a stored result, or waits on an
 *    in-flight one, itself: hits and in-flight repeats never take a
 *    queue slot or a worker. Any other sim is enqueued as a job and
 *    the thread blocks on it — so per-connection responses are FIFO
 *    by construction and a full queue (busy) backpressures exactly
 *    the clients whose work needs a worker
 *  - one dispatcher thread pops jobs in priority order and submits
 *    to the ThreadPool, holding in-flight work at the worker count so
 *    late-arriving high-priority jobs still overtake queued low ones
 *    (with a 1-thread pool it runs each job inline via wait(),
 *    keeping the single-worker daemon genuinely serial)
 *  - a worker claims its job's key when the job starts running. If
 *    the key was stored or claimed since admission it hands that
 *    future back to the connection thread and is free at once, so a
 *    worker only ever runs a key's first simulation
 *
 * Graceful drain (SIGTERM / the shutdown op): stop accepting, stop
 * admitting, finish and answer everything already admitted, then
 * close connections — accepted work always completes.
 */

#ifndef APIR_SERVER_SERVER_HH
#define APIR_SERVER_SERVER_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/job_queue.hh"
#include "server/service.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace apir {
namespace server {

/** apird runtime knobs (the daemon's command-line surface). */
struct ApirdOptions
{
    std::string host = "127.0.0.1"; //!< bind address (IPv4)
    uint16_t port = 0;              //!< 0 = ephemeral, see port()
    unsigned workers = 1;           //!< simulation worker threads
    size_t queueDepth = 64;         //!< bounded-queue capacity
    unsigned retryAfterMs = 50;     //!< hint in busy responses
    std::string scenarioDir = "scenarios";
    double maxScale = 0.0;          //!< >0: reject larger requests
};

/**
 * Service times on log-spaced buckets: a Histogram over log10 of the
 * milliseconds, 20 buckets a decade from 1 us to 100 s, so a 70 us
 * replay and a 20 ms simulation both resolve to within 12%.
 * Quantiles interpolate geometrically inside a bucket and never
 * exceed the largest sample; shorter samples count as 1 us.
 */
class LogMsHistogram
{
  public:
    void sample(double ms)
    {
        hist_.sample(std::max(0.0, (std::log10(ms) - kLog10Min) *
                                       kPerDecade));
        maxMs_ = std::max(maxMs_, ms);
    }
    double quantile(double q) const
    {
        if (hist_.total() == 0)
            return 0.0;
        // The log round trip can overshoot the largest sample by an
        // ulp or so; clamp, as Histogram::quantile does.
        return std::min(maxMs_, std::pow(10.0, hist_.quantile(q) /
                                                   kPerDecade +
                                               kLog10Min));
    }

  private:
    static constexpr double kLog10Min = -3.0; //!< 1 us
    static constexpr int kPerDecade = 20;
    Histogram hist_{8 * kPerDecade, 1.0};
    double maxMs_ = 0.0;
};

class ApirdServer
{
  public:
    explicit ApirdServer(ApirdOptions opt);
    ~ApirdServer();

    ApirdServer(const ApirdServer &) = delete;
    ApirdServer &operator=(const ApirdServer &) = delete;

    /** Bind + listen; returns the bound port. Fatal on failure. */
    uint16_t start();

    /** The bound port (valid after start()). */
    uint16_t port() const { return port_; }

    /**
     * Accept and serve until a drain is requested, then finish every
     * admitted request, answer it, close all connections, and
     * return. Call after start().
     */
    void serve();

    /**
     * Begin a graceful drain. Async-signal-safe (one write() to the
     * self-pipe), so SIGTERM handlers may call it directly.
     */
    void requestDrain();

    /** Self-metrics snapshot: the `stats` op response line. */
    std::string statsJson() const;

  private:
    struct Job;

    void connectionLoop(int fd);
    void dispatchLoop();
    std::string handleLine(const std::string &line);
    void noteServiced(const std::string &response, double millis);

    ApirdOptions opt_;
    SimService service_;
    ThreadPool pool_;
    JobQueue<std::shared_ptr<Job>> queue_;

    int listenFd_ = -1;
    int wakeRd_ = -1; //!< self-pipe read end (polled with accept)
    int wakeWr_ = -1; //!< self-pipe write end (requestDrain target)
    uint16_t port_ = 0;

    std::mutex connMu_;
    std::vector<int> connFds_;
    std::vector<std::thread> connThreads_;
    bool draining_ = false; //!< under connMu_

    // In-flight throttle (dispatcher <-> completion callbacks).
    mutable std::mutex flightMu_;
    std::condition_variable flightCv_;
    size_t inFlight_ = 0;

    // Self-metrics, all under statsMu_.
    mutable std::mutex statsMu_;
    Counter requests_;     //!< well-formed request lines
    Counter parseErrors_;  //!< rejected request lines
    Counter simsOk_;       //!< sim responses with status ok
    Counter simsError_;    //!< sim responses with status error
    Counter busyRejects_;  //!< sims bounced by the full queue
    Average queueDepth_;   //!< sampled at each dispatch
    Average serviceMs_;    //!< arrival-to-response, milliseconds
    LogMsHistogram serviceHist_;
};

} // namespace server
} // namespace apir

#endif // APIR_SERVER_SERVER_HH
