#include "server/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <optional>
#include <utility>

#include "support/logging.hh"

namespace apir {
namespace server {

namespace {

/** Largest request line we will buffer before cutting a client off:
 * the wire format is one knob tuple per line, so anything near this
 * is garbage or abuse, not a request. */
constexpr size_t kMaxLineBytes = 1u << 20;

/** send() the whole buffer; false on a dead peer. MSG_NOSIGNAL so a
 * client that hung up costs us EPIPE, not SIGPIPE. */
bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

/** One admitted simulation: the resolved request plus the promise its
 * connection thread is blocked on. The worker fulfils it with the
 * result's future as soon as it has one, so a job whose key another
 * worker is computing frees its worker at once. */
struct ApirdServer::Job
{
    SimService::Resolved sim;
    std::promise<std::shared_future<std::string>> started;
};

ApirdServer::ApirdServer(ApirdOptions opt)
    : opt_(std::move(opt)),
      service_(opt_.scenarioDir, opt_.maxScale),
      pool_(opt_.workers == 0 ? 1 : opt_.workers),
      queue_(opt_.queueDepth)
{
}

ApirdServer::~ApirdServer()
{
    for (int fd : {listenFd_, wakeRd_, wakeWr_})
        if (fd >= 0)
            ::close(fd);
}

uint16_t
ApirdServer::start()
{
    int pipeFds[2];
    if (::pipe(pipeFds) != 0)
        fatal("apird: pipe: ", std::strerror(errno));
    wakeRd_ = pipeFds[0];
    wakeWr_ = pipeFds[1];

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("apird: socket: ", std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opt_.port);
    if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1)
        fatal("apird: bad bind address '", opt_.host, "'");
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("apird: bind ", opt_.host, ":", opt_.port, ": ",
              std::strerror(errno));
    if (::listen(listenFd_, 64) != 0)
        fatal("apird: listen: ", std::strerror(errno));

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        fatal("apird: getsockname: ", std::strerror(errno));
    port_ = ntohs(addr.sin_port);
    return port_;
}

void
ApirdServer::requestDrain()
{
    // One byte down the self-pipe; everything else happens on the
    // serve() thread. write() is async-signal-safe, so the SIGTERM
    // handler calls this directly.
    char b = 'q';
    ssize_t ignored = ::write(wakeWr_, &b, 1);
    (void)ignored;
}

void
ApirdServer::serve()
{
    std::thread dispatcher(&ApirdServer::dispatchLoop, this);

    pollfd fds[2];
    fds[0] = {listenFd_, POLLIN, 0};
    fds[1] = {wakeRd_, POLLIN, 0};
    for (;;) {
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            fatal("apird: poll: ", std::strerror(errno));
        }
        if (fds[1].revents & POLLIN)
            break; // drain requested
        if (!(fds[0].revents & POLLIN))
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        std::lock_guard<std::mutex> lock(connMu_);
        if (draining_) { // lost the race with a concurrent drain
            ::close(fd);
            continue;
        }
        connFds_.push_back(fd);
        connThreads_.emplace_back(&ApirdServer::connectionLoop, this,
                                  fd);
    }

    // Drain, in dependency order: stop accepting; stop admitting;
    // unblock every connection read (their in-flight responses still
    // go out — only the read side is shut); finish and answer all
    // admitted work; then collect the connection threads.
    {
        std::lock_guard<std::mutex> lock(connMu_);
        draining_ = true;
        ::close(listenFd_);
        listenFd_ = -1;
        queue_.close();
        for (int fd : connFds_)
            if (fd >= 0)
                ::shutdown(fd, SHUT_RD);
    }
    dispatcher.join();
    for (std::thread &t : connThreads_)
        t.join();
}

void
ApirdServer::dispatchLoop()
{
    for (;;) {
        // Wait for a free worker *before* taking a job, so every
        // waiting job sits in the priority queue (counted by its depth
        // and bound, and beaten by a later High one). Only this thread
        // raises inFlight_: the slot is still free when pop() returns.
        {
            std::unique_lock<std::mutex> lock(flightMu_);
            flightCv_.wait(lock, [&] {
                return inFlight_ < pool_.numThreads();
            });
        }
        std::optional<std::shared_ptr<Job>> job = queue_.pop();
        if (!job)
            break; // closed and drained
        {
            std::lock_guard<std::mutex> lock(flightMu_);
            ++inFlight_;
        }
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            queueDepth_.sample(static_cast<double>(queue_.size()));
        }
        std::shared_ptr<Job> j = *job;
        pool_.submit([this, j] {
            // The key is claimed here, when the job runs, not when it
            // was admitted: a queued Low job never holds a key that a
            // later High repeat would then wait behind.
            std::shared_future<std::string> result =
                service_.start(j->sim);
            // Leave the flight count before publishing the result, so
            // a client that pipelines `stats` right behind its sim
            // never sees its own finished job still counted.
            {
                std::lock_guard<std::mutex> lock(flightMu_);
                --inFlight_;
            }
            flightCv_.notify_one();
            j->started.set_value(std::move(result));
        });
        if (pool_.numThreads() == 1)
            pool_.wait(); // a 1-thread pool runs jobs inline here
    }
    pool_.wait(); // answer everything admitted before the drain
}

std::string
ApirdServer::handleLine(const std::string &line)
{
    Request req;
    try {
        req = parseRequest(line);
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++parseErrors_;
        return errorResponse(e.what());
    }
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++requests_;
    }

    switch (req.op) {
      case Request::Op::Ping:
        return eventResponse("pong");
      case Request::Op::Stats:
        return statsJson();
      case Request::Op::Shutdown:
        // Answer first; the drain only shuts connection *reads*, so
        // this response still reaches the client.
        requestDrain();
        return eventResponse("draining");
      case Request::Op::Sim:
        break;
    }

    auto t0 = std::chrono::steady_clock::now();
    auto serviced = [&](std::string response) {
        auto t1 = std::chrono::steady_clock::now();
        noteServiced(response,
                     std::chrono::duration<double, std::milli>(t1 - t0)
                         .count());
        return response;
    };
    if (queue_.closed()) // a drain admits no sim, not even a hit
        return errorResponse("server is draining");
    // A stored or in-flight result needs no worker: answer it here,
    // waiting for its computation if it is still running. Only what
    // still has to be simulated (or fails to resolve, whose error a
    // worker reports as before) is queued.
    SimService::Resolved sim = service_.resolve(req.sim);
    if (sim.cacheable())
        if (auto result = service_.find(sim))
            return serviced(SimService::answer(*result));

    auto job = std::make_shared<Job>();
    job->sim = std::move(sim);
    auto started = job->started.get_future();
    if (!queue_.push(req.sim.priority, job)) {
        if (queue_.closed())
            return errorResponse("server is draining");
        std::lock_guard<std::mutex> lock(statsMu_);
        ++busyRejects_;
        return busyResponse(opt_.retryAfterMs);
    }
    return serviced(SimService::answer(started.get()));
}

void
ApirdServer::noteServiced(const std::string &response, double millis)
{
    bool ok = response.rfind("{\"status\":\"ok\"", 0) == 0;
    std::lock_guard<std::mutex> lock(statsMu_);
    if (ok)
        ++simsOk_;
    else
        ++simsError_;
    serviceMs_.sample(millis);
    serviceHist_.sample(millis);
}

void
ApirdServer::connectionLoop(int fd)
{
    std::string buf;
    char chunk[65536];
    for (;;) {
        size_t nl = buf.find('\n');
        if (nl == std::string::npos) {
            if (buf.size() > kMaxLineBytes) {
                sendAll(fd, errorResponse("request line too long") +
                                "\n");
                break;
            }
            ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break; // EOF or error (including drain's SHUT_RD)
            buf.append(chunk, static_cast<size_t>(n));
            continue;
        }
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (!sendAll(fd, handleLine(line) + "\n"))
            break;
    }
    std::lock_guard<std::mutex> lock(connMu_);
    for (int &c : connFds_)
        if (c == fd)
            c = -1;
    ::close(fd);
}

std::string
ApirdServer::statsJson() const
{
    JsonValue s = JsonValue::object();
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        s.set("requests", JsonValue::number(
                              static_cast<double>(requests_.value())));
        s.set("parse_errors",
              JsonValue::number(
                  static_cast<double>(parseErrors_.value())));
        s.set("sims_ok", JsonValue::number(
                             static_cast<double>(simsOk_.value())));
        s.set("sims_error",
              JsonValue::number(
                  static_cast<double>(simsError_.value())));
        s.set("busy_rejects",
              JsonValue::number(
                  static_cast<double>(busyRejects_.value())));

        JsonValue q = JsonValue::object();
        q.set("depth", JsonValue::number(
                           static_cast<double>(queue_.size())));
        q.set("mean_depth", JsonValue::number(queueDepth_.mean()));
        q.set("max_depth", JsonValue::number(queueDepth_.max()));
        s.set("queue", std::move(q));

        JsonValue svc = JsonValue::object();
        svc.set("count", JsonValue::number(
                             static_cast<double>(serviceMs_.count())));
        svc.set("mean_ms", JsonValue::number(serviceMs_.mean()));
        svc.set("max_ms", JsonValue::number(serviceMs_.max()));
        svc.set("p50_ms", JsonValue::number(serviceHist_.quantile(0.5)));
        svc.set("p99_ms",
                JsonValue::number(serviceHist_.quantile(0.99)));
        s.set("service_ms", std::move(svc));
    }
    {
        std::lock_guard<std::mutex> lock(flightMu_);
        s.set("in_flight", JsonValue::number(
                               static_cast<double>(inFlight_)));
    }

    CacheStats cs = service_.cacheStats();
    JsonValue wc = JsonValue::object();
    wc.set("hits",
           JsonValue::number(static_cast<double>(cs.workloadHits)));
    wc.set("misses",
           JsonValue::number(static_cast<double>(cs.workloadMisses)));
    s.set("workload_cache", std::move(wc));
    JsonValue rc = JsonValue::object();
    rc.set("hits",
           JsonValue::number(static_cast<double>(cs.resultHits)));
    rc.set("misses",
           JsonValue::number(static_cast<double>(cs.resultMisses)));
    s.set("result_cache", std::move(rc));

    JsonValue doc = JsonValue::object();
    doc.set("status", JsonValue::str("ok"));
    doc.set("stats", std::move(s));
    return doc.dump();
}

} // namespace server
} // namespace apir
