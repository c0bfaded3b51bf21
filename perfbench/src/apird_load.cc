#include "apird_load.hh"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "config/loader.hh"
#include "server/protocol.hh"
#include "server/service.hh"
#include "sim.hh"
#include "support/json.hh"
#include "support/logging.hh"

extern char **environ;

namespace perfbench {

namespace {

using apir::JsonValue;

/**
 * Load shape, after the repo's recorded apird throughput measurement
 * (EXPERIMENTS.md, `tools/apird_client.py --throughput`): a daemon with
 * two simulation workers, four closed-loop client connections, and 20
 * requests per distinct simulation, a 0.95 result-cache hit rate.
 */
constexpr unsigned kConnections = 4;
constexpr unsigned kWorkers = 2;
constexpr int kRequestsPerKey = 20;
/** The throughput mode's scale, and the soak mix's doubled one. */
constexpr double kScales[] = {0.05, 0.1};
/** Machines of the soak mix: stock, and the named soak scenario. */
const char *const kMachines[] = {"", ",\"config\":\"apird_soak\""};
/** One load takes about a third of --seconds: three rounds fill it. */
constexpr double kWorkloadSeedsPerSecond = 0.8;
/**
 * Set-ups per run when not given: stream generation and daemon start,
 * about 30 ms each.
 */
constexpr int kSetups = 40;
constexpr int kIdleProbes = 50;
/** Requests replayed in-process in the traced run (a stream prefix). */
constexpr size_t kReplayRequests = 2000;
const char *const kPriorities[] = {"high", "normal", "low"};

[[noreturn]] void
die(const std::string &what)
{
    throw std::runtime_error(what);
}

/** A blocking newline-delimited JSON connection to the daemon. */
class Conn
{
  public:
    explicit Conn(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            die("socket() failed");
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            die("cannot connect to apird on port " + std::to_string(port));
        }
    }
    ~Conn() { ::close(fd_); }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    /** Send one request line and return its response line. */
    std::string
    call(const std::string &line)
    {
        std::string out = line + "\n";
        size_t sent = 0;
        while (sent < out.size()) {
            ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
            if (n <= 0)
                die("send to apird failed");
            sent += static_cast<size_t>(n);
        }
        for (;;) {
            size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string resp = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return resp;
            }
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                die("apird closed the connection");
            buf_.append(chunk, static_cast<size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** One apird process, started on an ephemeral loopback port. */
class Daemon
{
  public:
    Daemon(const std::string &bin, const std::string &scenarioDir)
    {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0)
            die("pipe() failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, fds[0]);
        posix_spawn_file_actions_addclose(&fa, fds[1]);
        std::string workers = std::to_string(kWorkers);
        std::vector<std::string> args = {bin,         "--port",
                                         "0",         "--threads",
                                         workers,     "--scenario-dir",
                                         scenarioDir};
        std::vector<char *> argv;
        for (std::string &s : args)
            argv.push_back(s.data());
        argv.push_back(nullptr);
        int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(),
                             environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(fds[1]);
        out_ = fds[0];
        if (rc != 0) {
            pid_ = -1;
            release();
            die("cannot start " + bin);
        }
        // The daemon announces its port on its first stdout line. A
        // throwing constructor runs no destructor: clean up here.
        try {
            std::string line = readLine(10000);
            JsonValue j = JsonValue::parse(line);
            if (!j.has("port"))
                die("unexpected apird handshake: " + line);
            port_ = static_cast<int>(j.at("port").asNumber());
        } catch (...) {
            release();
            throw;
        }
    }

    ~Daemon() { release(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int port() const { return port_; }

    /** User+system CPU seconds the daemon has used. */
    double
    cpuSeconds() const
    {
        std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
        std::string s((std::istreambuf_iterator<char>(f)), {});
        // Fields after the parenthesized command name; utime and
        // stime are fields 14 and 15 of the whole line.
        std::istringstream rest(s.substr(s.rfind(')') + 2));
        std::string field;
        double ticks = 0;
        for (int i = 3; i <= 15 && rest >> field; ++i)
            if (i >= 14)
                ticks += std::stod(field);
        return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }

    /** The daemon's peak resident set, MiB. */
    double
    peakRssMb() const
    {
        return perfbench::peakRssMb(std::to_string(pid_));
    }

    /** Graceful shutdown; true when the daemon drained and exited 0. */
    bool
    stop()
    {
        {
            Conn c(port_);
            c.call("{\"op\":\"shutdown\"}");
        }
        char buf[4096];
        while (::read(out_, buf, sizeof(buf)) > 0) {
        }
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    /** Kill the daemon if it still runs, wait for it, close the pipe. */
    void
    release()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
        if (out_ >= 0) {
            ::close(out_);
            out_ = -1;
        }
    }

    std::string
    readLine(int timeoutMs)
    {
        std::string line;
        char c;
        for (;;) {
            pollfd p{out_, POLLIN, 0};
            if (::poll(&p, 1, timeoutMs) <= 0)
                die("apird did not announce its port");
            if (::read(out_, &c, 1) != 1)
                die("apird exited during start-up");
            if (c == '\n')
                return line;
            line += c;
        }
    }

    pid_t pid_ = -1;
    int out_ = -1;
    int port_ = 0;
};

enum class Kind { Sim, Ping, Stats };

struct Request
{
    Kind kind = Kind::Sim;
    std::string line;
    std::string key; //!< the daemon's result-store key (sims)
    bool first = false; //!< first request for its key: a miss
};

/**
 * The seeded stream: every distinct simulation (app x machine x
 * workload) enters once at a random position, the remaining requests
 * repeat keys already entered, and pings and stats requests are mixed
 * in. Priorities go round high, normal, low as in apird_client.py.
 */
std::vector<Request>
makeStream(const ApirdMixOptions &o)
{
    std::mt19937_64 rng(o.seed);
    int workloadSeeds = std::max(
        1, static_cast<int>(std::lround(o.seconds *
                                        kWorkloadSeedsPerSecond)));
    std::vector<double> scales(std::begin(kScales), std::end(kScales));
    if (o.scale > 0)
        scales = {o.scale};
    std::vector<std::string> keys; //!< request lines, without priority
    for (int s = 0; s < workloadSeeds; ++s)
        for (double scale : scales)
            for (apir::bench::Bench b : apir::bench::kAllBenches)
                for (const char *machine : kMachines) {
                    char head[160];
                    std::snprintf(head, sizeof(head),
                                  "{\"app\":\"%s\",\"scale\":%.17g,"
                                  "\"seed\":%u,\"verify\":true",
                                  apir::bench::benchName(b), scale,
                                  derivedSeed(o.seed, s));
                    keys.push_back(std::string(head) + machine);
                }
    std::shuffle(keys.begin(), keys.end(), rng);
    // The daemon's result-store key of each; priority is not part of it.
    apir::server::SimService keyer(o.scenarioDir);
    std::vector<std::string> storeKeys;
    for (const std::string &k : keys)
        storeKeys.push_back(
            keyer.requestKey(apir::server::parseRequest(k + "}").sim));

    size_t total = keys.size() * kRequestsPerKey;
    // Positions of first occurrences; the first request is always one.
    std::vector<bool> isFirst(total, false);
    isFirst[0] = true;
    std::vector<size_t> pos(total - 1);
    for (size_t i = 0; i < pos.size(); ++i)
        pos[i] = i + 1;
    std::shuffle(pos.begin(), pos.end(), rng);
    for (size_t i = 0; i + 1 < keys.size(); ++i)
        isFirst[pos[i]] = true;

    std::vector<Request> out;
    size_t entered = 0;
    for (size_t i = 0; i < total; ++i) {
        Request r;
        uint64_t roll = rng() % 100;
        if (!isFirst[i] && roll < 2) {
            r.kind = Kind::Ping;
            r.line = "{\"op\":\"ping\"}";
        } else if (!isFirst[i] && roll < 3) {
            r.kind = Kind::Stats;
            r.line = "{\"op\":\"stats\"}";
        } else {
            size_t k = isFirst[i] ? entered++ : rng() % entered;
            r.first = isFirst[i];
            r.line = keys[k] + ",\"priority\":\"" +
                     kPriorities[i % std::size(kPriorities)] + "\"}";
            r.key = storeKeys[k];
        }
        out.push_back(std::move(r));
    }
    return out;
}

/** Per-request outcome of one load. */
struct Load
{
    double wall = 0;
    double clientCpu = 0;
    double daemonCpu = 0;
    std::vector<double> latencyMs;
    std::vector<std::string> responses;
};

/**
 * Replay the stream closed-loop: each connection sends its next
 * request when the previous response arrives. A busy response is
 * retried after its retry_after_ms; latency runs from the first send.
 */
Load
drive(const std::vector<Request> &stream, Daemon &d, Tracer &t,
      Result &res)
{
    Load load;
    load.latencyMs.assign(stream.size(), 0.0);
    load.responses.assign(stream.size(), "");
    std::atomic<size_t> next{0};
    std::atomic<bool> broken{false};
    uint32_t root = t.current();
    auto client = [&] {
        try {
            Conn c(d.port());
            for (size_t i; (i = next++) < stream.size();) {
                double t0 = nowSeconds();
                std::string resp = c.call(stream[i].line);
                for (int tries = 0;
                     resp.rfind("{\"status\":\"busy\"", 0) == 0 &&
                     tries < 100;
                     ++tries) {
                    auto j = JsonValue::parse(resp);
                    std::this_thread::sleep_for(std::chrono::milliseconds(
                        static_cast<int>(j.at("retry_after_ms").asNumber())));
                    resp = c.call(stream[i].line);
                }
                double t1 = nowSeconds();
                if (t.enabled())
                    t.record("client:request", t0, t1, root,
                             static_cast<int64_t>(i));
                load.latencyMs[i] = (t1 - t0) * 1e3;
                load.responses[i] = std::move(resp);
            }
        } catch (const std::exception &) {
            broken = true;
        }
    };
    double cpu0 = processCpuSeconds();
    double dcpu0 = d.cpuSeconds();
    double w0 = nowSeconds();
    // This thread drives one connection itself: the load uses no more
    // threads than connections.
    std::vector<std::thread> threads;
    for (unsigned k = 1; k < kConnections; ++k)
        threads.emplace_back(client);
    client();
    for (std::thread &th : threads)
        th.join();
    load.wall = nowSeconds() - w0;
    load.daemonCpu = d.cpuSeconds() - dcpu0;
    load.clientCpu = processCpuSeconds() - cpu0;
    if (broken)
        res.fail("a client connection broke during the load");
    return load;
}

/**
 * Check every response: status ok, and each simulation's bytes equal
 * to the response that first filled its key. Returns the total
 * simulated cycles over distinct keys.
 */
double
check(const std::vector<Request> &stream, const Load &load, Result &res)
{
    std::map<std::string, const std::string *> filled;
    double cycles = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
        const std::string &resp = load.responses[i];
        ++res.attempted;
        if (resp.rfind("{\"status\":\"ok\"", 0) != 0) {
            res.fail("request " + std::to_string(i) + " " +
                     stream[i].line + " -> " + resp.substr(0, 200));
            continue;
        }
        if (stream[i].kind != Kind::Sim)
            continue;
        auto [it, fresh] = filled.emplace(stream[i].key, &resp);
        if (fresh) {
            cycles += JsonValue::parse(resp).at("run").at("cycles")
                          .asNumber();
            res.outputs[stream[i].key] = fingerprint(resp);
        } else if (*it->second != resp)
            res.fail("request " + std::to_string(i) +
                     ": cached response differs from the one that "
                     "filled its key");
    }
    return cycles;
}

/** Start a daemon and wait for its first pong. */
std::unique_ptr<Daemon>
startDaemon(const ApirdMixOptions &o)
{
    auto d = std::make_unique<Daemon>(o.apird, o.scenarioDir);
    Conn c(d->port());
    std::string pong = c.call("{\"op\":\"ping\"}");
    if (pong.find("pong") == std::string::npos)
        die("apird answered ping with " + pong);
    return d;
}

double
cacheRatio(const JsonValue &stats, const char *cache)
{
    const JsonValue &c = stats.at("stats").at(cache);
    double hits = c.at("hits").asNumber();
    double total = hits + c.at("misses").asNumber();
    return total > 0 ? hits / total : 0.0;
}

/**
 * Each distinct simulation of `first` again, cold, through the
 * benchmark's own simulation path (runJob): it must report what apird
 * answered.
 * Returns their simulated counts.
 */
SimCounts
rerun(const ApirdMixOptions &o, const std::vector<Request> &stream,
      const std::vector<size_t> &first,
      const std::map<std::pair<double, uint32_t>, Inputs> &inputs,
      const Load &load, Tracer &t, Result &res)
{
    SimCounts counts;
    Span root(t, "bench:sims");
    Stopwatch sw;
    sw.start();
    for (size_t i : first) {
        ++res.attempted;
        const std::string what = "request " + std::to_string(i) +
                                 " in-process";
        apir::server::SimRequest sim =
            apir::server::parseRequest(stream[i].line).sim;
        Job job;
        job.bench = *apir::bench::benchFromName(sim.app);
        job.cfg = apir::bench::defaultAccelConfig();
        if (!sim.config.empty())
            job.cfg = apir::loadScenarioFile(
                          o.scenarioDir + "/" + sim.config + ".conf",
                          job.cfg)
                          .accel;
        job.verify = sim.verify;
        apir::ScopedFatalThrows guard;
        try {
            JobResult r =
                runJob(job, inputs.at({sim.scale, sim.seed}), t, sw);
            if (!r.verified)
                res.fail(what + ": output differs from the sequential "
                                "reference");
            else if (r.json !=
                     JsonValue::parse(load.responses[i]).at("run").dump())
                res.fail(what + ": differs from apird's response");
            counts.add(r.rr);
        } catch (const std::exception &e) {
            res.fail(what + ": " + e.what());
        }
    }
    sw.stop();
    return counts;
}

} // namespace

Result
runApirdMix(const ApirdMixOptions &o, Tracer &t)
{
    Result res;
    t.setEnabled(false);
    try {
        // Set-up: generate the request stream, then start the daemon
        // and wait for its first pong. Host speed drifts over seconds,
        // so half the samples come before the first load (the last
        // daemon serves it), one before each later round and the rest
        // after the last.
        std::vector<Request> stream;
        std::vector<double> setup;
        std::unique_ptr<Daemon> d;
        auto setUp = [&](std::vector<Request> &into) {
            if (d && !d->stop())
                res.fail("apird did not exit cleanly after a shutdown");
            double s0 = nowSeconds();
            into = makeStream(o);
            d = startDaemon(o);
            setup.push_back(nowSeconds() - s0);
        };
        int samples = o.setups > 0 ? o.setups : kSetups;
        for (int i = 0; i < (samples + 1) / 2; ++i)
            setUp(stream);

        Load load = drive(stream, *d, t, res);
        double cycles = check(stream, load, res);
        std::vector<double> hits, misses;
        for (size_t i = 0; i < stream.size(); ++i)
            if (stream[i].kind == Kind::Sim)
                (stream[i].first ? misses : hits)
                    .push_back(load.latencyMs[i]);
        res.counts["sim_cycles"] = cycles;
        res.counts["distinct_sims"] = static_cast<double>(misses.size());

        auto quantile = [&](const char *name, const std::vector<double> &v,
                            double q) {
            size_t beyond = 0;
            auto x = tailQuantile(v, q, beyond);
            res.notes.push_back(std::string(name) + ": " +
                                std::to_string(v.size()) + " samples, " +
                                std::to_string(beyond) + " beyond");
            if (x)
                res.metric(name, *x, "ms");
        };
        if (!o.trace) {
            // The same stream again on fresh daemons (each a set-up
            // sample); every metric takes its fastest round, as
            // fig10's jobs do, and every round must answer alike.
            std::vector<Load> loads{std::move(load)};
            double rss = d->peakRssMb();
            std::vector<Request> spare;
            for (int r = 1; r < o.rounds; ++r) {
                setUp(spare);
                loads.push_back(drive(stream, *d, t, res));
                check(stream, loads.back(), res);
                rss = std::max(rss, d->peakRssMb());
                for (size_t i = 0; i < stream.size(); ++i)
                    if (stream[i].kind == Kind::Sim &&
                        loads.back().responses[i] != loads[0].responses[i])
                        res.fail("request " + std::to_string(i) +
                                 " answered differently in round " +
                                 std::to_string(r + 1));
            }
            auto fastest = [&](const std::function<double(const Load &)> &f) {
                double best = f(loads[0]);
                for (const Load &l : loads)
                    best = std::min(best, f(l));
                return best;
            };
            double wall = fastest([](const Load &l) { return l.wall; });
            res.metric("wall_s", wall, "s");
            res.metric("cpu_s", fastest([](const Load &l) {
                           return l.clientCpu + l.daemonCpu;
                       }),
                       "s");
            res.metric("peak_rss_mb", rss, "MiB");
            res.metric("sim_cycles", cycles, "cycles");
            res.metric("sim_cycles_per_s", cycles / wall, "cycles/s");
            res.metric("req_per_s",
                       static_cast<double>(stream.size()) / wall, "1/s");
            for (auto [name, q] : {std::pair{"req_p50_ms", 0.50},
                                   std::pair{"req_p99_ms", 0.99}}) {
                quantile(name, loads[0].latencyMs, q);
                if (res.metrics.count(name))
                    res.metric(name, fastest([q = q](const Load &l) {
                                   size_t beyond = 0;
                                   return *tailQuantile(l.latencyMs, q,
                                                        beyond);
                               }),
                               "ms");
            }
            for (int i = (samples + 1) / 2 + o.rounds - 1; i < samples; ++i)
                setUp(spare);
            res.metric("setup_s", median(setup), "s");
            if (!d->stop())
                res.fail("apird did not exit cleanly after the load");
            return res;
        }

        quantile("server.hit_p50_ms", hits, 0.50);
        quantile("server.hit_p99_ms", hits, 0.99);
        quantile("server.miss_p50_ms", misses, 0.50);
        res.metric("server.busy_ratio",
                   load.daemonCpu / (load.wall * kWorkers), "ratio");
        JsonValue stats = JsonValue::parse(Conn(d->port()).call(
            "{\"op\":\"stats\"}"));
        res.metric("server.result_hit_ratio",
                   cacheRatio(stats, "result_cache"), "ratio");
        res.metric("server.workload_hit_ratio",
                   cacheRatio(stats, "workload_cache"), "ratio");
        if (!d->stop())
            res.fail("apird did not exit cleanly after the load");

        // The same stream on a fresh daemon, with client spans.
        d = startDaemon(o);
        Load traced;
        t.setEnabled(true);
        {
            Span root(t, "bench:timed");
            traced = drive(stream, *d, t, res);
        }
        for (size_t i = 0; i < stream.size(); ++i)
            if (stream[i].kind == Kind::Sim &&
                traced.responses[i] != load.responses[i])
                res.fail("request " + std::to_string(i) +
                         " answered differently on the traced load");
        double overhead = traced.wall - load.wall;
        res.metric("trace.overhead_s", overhead, "s");
        res.metric("trace.overhead_frac", overhead / load.wall, "ratio");

        // Round trip of a cache hit on the idle daemon.
        {
            std::vector<double> rtt;
            Conn c(d->port());
            for (int i = 0; i < kIdleProbes; ++i) {
                const Request &r = stream[i % stream.size()];
                if (r.kind != Kind::Sim)
                    continue;
                double t0 = nowSeconds();
                c.call(r.line);
                rtt.push_back((nowSeconds() - t0) * 1e3);
            }
            res.metric("server.rtt_idle_ms", median(rtt), "ms");
        }
        if (!d->stop())
            res.fail("apird did not exit cleanly after the load");

        // The server layers in this process: every request of a stream
        // prefix through parseRequest and SimService::handle, and the
        // generators for each distinct workload the prefix names.
        std::map<std::pair<double, uint32_t>, Inputs> inputs;
        std::vector<size_t> firstSeen; //!< the prefix's misses
        std::vector<double> parseUs, hitUs, missMs;
        {
            Span root(t, "bench:replay");
            apir::server::SimService svc(o.scenarioDir);
            std::set<std::string> seen;
            for (size_t i = 0; i < std::min(stream.size(), kReplayRequests);
                 ++i) {
                auto id = static_cast<int64_t>(i);
                apir::server::Request req;
                {
                    Span s(t, "server.parse:parseRequest", id);
                    double t0 = nowSeconds();
                    req = apir::server::parseRequest(stream[i].line);
                    parseUs.push_back((nowSeconds() - t0) * 1e6);
                }
                if (req.op != apir::server::Request::Op::Sim)
                    continue;
                bool miss = seen.insert(stream[i].key).second;
                std::pair<double, uint32_t> wk{req.sim.scale, req.sim.seed};
                if (miss && !inputs.count(wk))
                    inputs.emplace(wk, makeInputs(wk.first, wk.second, t));
                if (miss)
                    firstSeen.push_back(i);
                Span s(t, miss ? "server.handle:SimService::handle(miss)"
                               : "server.handle:SimService::handle(hit)",
                       id);
                double t0 = nowSeconds();
                std::string resp = svc.handle(req.sim);
                double took = nowSeconds() - t0;
                if (miss)
                    missMs.push_back(took * 1e3);
                else
                    hitUs.push_back(took * 1e6);
                if (resp != load.responses[i])
                    res.fail("request " + std::to_string(i) +
                             ": in-process response differs from apird's");
            }
        }
        res.metric("server.parse_us", median(parseUs), "us");
        res.metric("server.handle_hit_us", median(hitUs), "us");
        res.metric("server.handle_miss_ms", median(missMs), "ms");

        // The simulation layers behind those misses.
        SimCounts counts = rerun(o, stream, firstSeen, inputs, load, t, res);
        for (const auto &[name, v] : counts.metrics())
            res.metric(name, v, SimCounts::unit(name));
    } catch (const std::exception &e) {
        // The load that broke off counts as one more failed operation.
        ++res.attempted;
        res.fail(std::string("apird-mix: ") + e.what());
    }
    return res;
}

} // namespace perfbench
