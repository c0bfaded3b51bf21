/**
 * @file
 * perfbench: the benchmark's C++ program. One run of one workload: set up,
 * measure, check the outputs, and print one JSON line of results
 * (see perfbench/README.md for the workloads and metrics).
 *
 *   perfbench --workload fig10-starved-restore|apird-mix
 *             --seed N --seconds S --trace 0|1 --work-dir DIR
 *             [--trace-out FILE] [--apird BIN] [--scenario-dir DIR]
 *             [--scale X] [--setups N] [--rounds N]
 *   perfbench --workload equivalence --scale X --work-dir DIR
 *
 * The equivalence workload checks this program's own path through a
 * simulation against bench::runAccelerator, cold and restored.
 */

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apird_load.hh"
#include "config/loader.hh"
#include "config/strict_num.hh"
#include "result.hh"
#include "sim.hh"
#include "support/logging.hh"

using namespace perfbench;
using apir::bench::Bench;
using apir::bench::kAllBenches;

namespace {

/**
 * Workload sizes. Each pass simulates a fresh input drawn from the
 * run's seed; a run makes as many passes as fit its --seconds, in
 * kRounds rounds, on the reference machine (a fixed count per
 * --seconds, so two builds of the program always do the same work),
 * and summing over passes evens out how much the cost of one input
 * depends on its seed.
 */
constexpr double kFig10Scale = 0.15;
constexpr double kFig10PassSeconds = 1.9;
/**
 * Set-up samples per pass when --setups is not given. Host speed
 * drifts over seconds, so the samples are spread over the timed
 * region (see measure). A pass's set-up takes ~90 ms.
 */
constexpr int kFig10Setups = 7;
/**
 * Rounds of the timed work in an untraced run: each job's (apird-mix:
 * each load's) fastest round counts.
 */
constexpr int kRounds = 3;
/** Warmup checkpoint cycle per unit of scale (fig10). */
constexpr double kWarmupCyclesPerScale = 60000;
const double kFig10Points[] = {1.0, 2.0, 4.0, 8.0};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".";
    std::string traceOut;
    std::string apird;
    std::string scenarioDir = "scenarios";
    double scale = 0; //!< 0 = the workload's own
    /** Set-up samples (fig10: per pass); 0 = the workload's. */
    int setups = 0;
    /** Untraced: times the timed work runs over; the fastest counts. */
    int rounds = kRounds;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            apir::fatal(flag, " requires a value");
        std::string v = argv[++i];
        auto num = [&] {
            auto d = apir::parseStrictDouble(v);
            if (!d || *d < 0)
                apir::fatal(flag, ": '", v, "' is not a number >= 0");
            return *d;
        };
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = static_cast<uint64_t>(num());
        else if (flag == "--seconds")
            a.seconds = num();
        else if (flag == "--trace")
            a.trace = num() != 0;
        else if (flag == "--work-dir")
            a.workDir = v;
        else if (flag == "--trace-out")
            a.traceOut = v;
        else if (flag == "--apird")
            a.apird = v;
        else if (flag == "--scenario-dir")
            a.scenarioDir = v;
        else if (flag == "--scale")
            a.scale = num();
        else if (flag == "--setups")
            a.setups = std::max(1, static_cast<int>(num()));
        else if (flag == "--rounds")
            a.rounds = std::max(1, static_cast<int>(num()));
        else
            apir::fatal("unknown argument '", flag, "'");
    }
    return a;
}

size_t
passesFor(double seconds, double passSeconds)
{
    return std::max<size_t>(1, std::lround(seconds / passSeconds));
}

/** Run one job; a fatal() inside it becomes a failed operation. */
std::optional<JobResult>
tryJob(const Job &job, const Inputs &in, Tracer &t, Stopwatch &sw,
       Result &res, const std::string &what)
{
    apir::ScopedFatalThrows guard;
    try {
        JobResult r = runJob(job, in, t, sw);
        if (!r.verified)
            res.fail(what + ": output differs from the sequential "
                            "reference");
        return r;
    } catch (const std::exception &e) {
        res.fail(what + ": " + e.what());
        return std::nullopt;
    }
}

std::string
jobName(Bench b, uint32_t seed, double bw = 0)
{
    std::string s = std::string(apir::bench::benchName(b)) +
                     " seed " + std::to_string(seed);
    if (bw > 0)
        s += " x" + std::to_string(static_cast<int>(bw));
    return s;
}

/** One timed job and the inputs it simulates. */
struct Planned
{
    Job job;
    const Inputs *in;
    std::string name;
};

/**
 * A run's set-up, pass by pass. `first(i)` prepares what pass i's jobs
 * use; `again(i)` does the same work into throwaway storage, so that
 * each pass's set-up can be timed several times.
 */
struct SetUp
{
    size_t passes;
    std::function<void(size_t)> first;
    std::function<void(size_t)> again;
    int samples; //!< per pass, unless --setups is given
};

/**
 * Set up, then time every planned job. Untraced: the plan runs
 * `rounds` times over, and each job's time is its fastest round: the
 * host's speed changes by up to 1.8x in episodes of 10-30 s, and the
 * fastest of rounds spread over the run leaves much of that out. Each
 * round must simulate what the first did. The set-up's further samples
 * are taken between jobs, evenly spread and cycling over the passes, so
 * they meet the host as the jobs do; setup_s is the sum over passes of
 * each pass's median. Traced: one round, each job untraced and then
 * traced, back to back so host speed drifts alike for both; report the
 * per-layer counts and the tracing overhead, and fail a job whose
 * traced run simulates anything different.
 */
void
measure(const Args &a, Tracer &t, Result &res, const SetUp &setUp,
        const std::function<std::vector<Planned>()> &makePlan)
{
    std::vector<std::vector<double>> setup(setUp.passes);
    auto sample = [&](size_t pass,
                      const std::function<void(size_t)> &work) {
        double s0 = nowSeconds();
        work(pass);
        setup[pass].push_back(nowSeconds() - s0);
    };
    {
        Span root(t, "bench:setup");
        for (size_t i = 0; i < setUp.passes; ++i)
            sample(i, setUp.first);
    }
    const std::vector<Planned> plan = makePlan();
    const int rounds = a.trace ? 1 : a.rounds;
    // Each vCPU of the reference host is slowed, for tens of seconds at
    // a time, by whatever shares its physical core: a job's rounds run
    // on different CPUs, so that its fastest round is not held to one.
    cpu_set_t allowed;
    sched_getaffinity(0, sizeof(allowed), &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    auto pin = [&](size_t k) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[k % cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    };
    const size_t steps = rounds * plan.size();
    int samples = a.setups > 0 ? a.setups : setUp.samples;
    // A traced run does not report setup_s.
    size_t extra =
        a.trace ? 0 : static_cast<size_t>(samples - 1) * setUp.passes;
    size_t taken = 0;
    SimCounts counts;
    std::vector<double> wall(plan.size(), 0), cpu(plan.size(), 0);
    std::vector<std::string> first(plan.size());
    Stopwatch traced;
    size_t done = 0;
    for (size_t step = 0; step < steps; ++step) {
        const size_t j = step % plan.size();
        const bool firstRound = step < plan.size();
        const Planned &p = plan[j];
        ++res.attempted;
        t.setEnabled(false);
        pin(j + step / plan.size());
        Stopwatch plain;
        plain.start();
        auto r = tryJob(p.job, *p.in, t, plain, res, p.name);
        plain.stop();
        if (firstRound || plain.wall() < wall[j]) {
            wall[j] = plain.wall();
            cpu[j] = plain.cpu();
        }
        for (; taken < (step + 1) * extra / steps; ++taken)
            sample(taken % setUp.passes, setUp.again);
        if (!r)
            continue;
        if (!firstRound) {
            if (!first[j].empty() && r->json != first[j])
                res.fail(p.name + ": a later round simulated different "
                                  "results");
            continue;
        }
        first[j] = r->json;
        counts.add(r->rr, r->busyBefore);
        SimCounts own;
        own.add(r->rr, r->busyBefore);
        std::string outputs = r->json;
        for (const auto &[name, v] : own.sum)
            outputs += "|" + name + "=" + std::to_string(v);
        res.outputs[p.name] = fingerprint(outputs);
        ++done;
        if (!a.trace)
            continue;
        t.setEnabled(true);
        ++res.attempted;
        std::optional<JobResult> again;
        {
            Span root(t, "bench:timed");
            traced.start();
            again = tryJob(p.job, *p.in, t, traced, res, p.name);
            traced.stop();
        }
        if (again && again->json != r->json)
            res.fail(p.name + ": the traced run simulated different "
                              "results");
    }
    sched_setaffinity(0, sizeof(allowed), &allowed);
    double cycles = counts.sum["sim_cycles"];
    double wallSum = 0, cpuSum = 0;
    for (size_t j = 0; j < plan.size(); ++j) {
        wallSum += wall[j];
        cpuSum += cpu[j];
    }
    if (!a.trace) {
        res.metric("wall_s", wallSum, "s");
        res.metric("cpu_s", cpuSum, "s");
        double setupSum = 0;
        for (const std::vector<double> &pass : setup)
            setupSum += median(pass);
        res.metric("setup_s", setupSum, "s");
        res.metric("peak_rss_mb", peakRssMb(), "MiB");
        res.metric("sim_cycles", cycles, "cycles");
        res.metric("sim_cycles_per_s", cycles / wallSum, "cycles/s");
        res.metric("req_per_s", static_cast<double>(done) / wallSum, "1/s");
    } else {
        for (const auto &[name, v] : counts.metrics())
            res.metric(name, v, SimCounts::unit(name));
        double overhead = traced.wall() - wallSum;
        res.metric("trace.overhead_s", overhead, "s");
        res.metric("trace.overhead_frac", overhead / wallSum, "ratio");
    }
    res.counts = counts.sum;
    res.notes.push_back(std::to_string(done) + " of " +
                        std::to_string(plan.size()) +
                        " simulation jobs completed, " +
                        std::to_string(rounds) + " rounds");
}

Result
runFig10(const Args &a, Tracer &t)
{
    Result res;
    double scale = a.scale > 0 ? a.scale : kFig10Scale;
    size_t passes = passesFor(a.seconds, kRounds * kFig10PassSeconds);
    auto warmup = static_cast<uint64_t>(kWarmupCyclesPerScale * scale);
    apir::AccelConfig base =
        apir::loadScenarioFile(a.scenarioDir + "/bandwidth_starved.conf",
                               apir::bench::defaultAccelConfig())
            .accel;
    auto ckptPath = [&](const char *tag, size_t i, Bench b) {
        return a.workDir + "/fig10-" + tag + std::to_string(i) + "-" +
               apir::bench::benchName(b) + ".ckpt";
    };

    // Set-up of a pass: inputs, then each app's warmup checkpoint at x1.
    double ckptBytes = 0;
    auto setUpPass = [&](size_t i, const Inputs &in, const char *tag) {
        Stopwatch unused;
        for (Bench b : kAllBenches) {
            Job job;
            job.bench = b;
            job.cfg = base;
            job.ckpt = Ckpt::Save;
            job.saveCycle = warmup;
            job.ckptPath = ckptPath(tag, i, b);
            ++res.attempted;
            auto r = tryJob(job, in, t, unused, res,
                            "warmup " + jobName(b, in.w.seed));
            if (r && tag[0] == '\0')
                ckptBytes += static_cast<double>(r->ckptBytes);
        }
    };
    std::vector<Inputs> inputs;
    SetUp setUp{passes,
                [&](size_t i) {
                    inputs.push_back(
                        makeInputs(scale, derivedSeed(a.seed, i), t));
                    setUpPass(i, inputs.back(), "");
                },
                [&](size_t i) {
                    setUpPass(i, makeInputs(scale, derivedSeed(a.seed, i), t),
                              "spare");
                },
                kFig10Setups};
    measure(a, t, res, setUp, [&] {
        std::vector<Planned> plan;
        for (size_t i = 0; i < passes; ++i) {
            for (Bench b : kAllBenches) {
                for (double bw : kFig10Points) {
                    Job job;
                    job.bench = b;
                    job.cfg = base;
                    job.cfg.mem.bandwidthScale *= bw;
                    job.verify = true;
                    job.timeVerify = false; // as fig10 runs unverified
                    // Fig. 9's CPU model, on each point's work counts:
                    // the only workload that runs it (microseconds).
                    job.cpuModel = true;
                    job.ckpt = Ckpt::Restore;
                    job.ckptPath = ckptPath("", i, b);
                    plan.push_back({job, &inputs[i],
                                    jobName(b, inputs[i].w.seed, bw)});
                }
            }
        }
        return plan;
    });
    if (a.trace)
        res.metric("checkpoint.bytes", ckptBytes, "B");
    for (size_t i = 0; i < passes; ++i) {
        for (Bench b : kAllBenches) {
            std::filesystem::remove(ckptPath("", i, b));
            std::filesystem::remove(ckptPath("spare", i, b));
        }
    }
    return res;
}

/**
 * This program's own simulation path must report exactly what
 * bench::runAccelerator reports: cold on the stock machine, and
 * restored from a warmup checkpoint on the starved one.
 */
Result
runEquivalence(const Args &a, Tracer &t)
{
    Result res;
    double scale = a.scale > 0 ? a.scale : 0.02;
    Inputs in = makeInputs(scale, derivedSeed(a.seed, 0), t);
    apir::AccelConfig starved =
        apir::loadScenarioFile(a.scenarioDir + "/bandwidth_starved.conf",
                               apir::bench::defaultAccelConfig())
            .accel;
    Stopwatch sw;
    for (Bench b : kAllBenches) {
        for (bool restore : {false, true}) {
            ++res.attempted;
            std::string what = jobName(b, in.w.seed) +
                               (restore ? " restored" : " cold");
            apir::AccelConfig cfg =
                restore ? starved : apir::bench::defaultAccelConfig();
            Job job;
            job.bench = b;
            job.cfg = cfg;
            job.verify = true;
            if (restore) {
                Job save = job;
                save.ckpt = Ckpt::Save;
                save.saveCycle =
                    static_cast<uint64_t>(kWarmupCyclesPerScale * scale);
                save.ckptPath = a.workDir + "/equivalence.ckpt";
                ++res.attempted;
                if (!tryJob(save, in, t, sw, res, "warmup " + what))
                    continue;
                job.ckpt = Ckpt::Restore;
                job.ckptPath = save.ckptPath;
            }
            auto mine = tryJob(job, in, t, sw, res, what);
            apir::bench::AccelRun ref =
                apir::bench::runAccelerator(b, in.w, cfg, true);
            apir::JsonValue j = apir::bench::runToJson(ref);
            j.set("benchmark",
                  apir::JsonValue::str(apir::bench::benchName(b)));
            if (mine && mine->json != j.dump())
                res.fail(what + ": differs from bench::runAccelerator");
        }
    }
    std::filesystem::remove(a.workDir + "/equivalence.ckpt");
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    Tracer t;
    t.setEnabled(a.trace);
    Result res;
    if (a.workload == "fig10-starved-restore") {
        res = runFig10(a, t);
    } else if (a.workload == "apird-mix") {
        ApirdMixOptions o;
        o.apird = a.apird;
        o.scenarioDir = a.scenarioDir;
        o.seed = a.seed;
        o.seconds = a.seconds;
        o.scale = a.scale;
        o.trace = a.trace;
        o.setups = a.setups;
        o.rounds = a.rounds;
        res = runApirdMix(o, t);
    } else if (a.workload == "equivalence") {
        res = runEquivalence(a, t);
    } else {
        apir::fatal("unknown workload '", a.workload, "'");
    }
    if (a.trace && !a.traceOut.empty())
        t.write(a.traceOut);
    std::printf("%s\n", res.json().c_str());
    return 0;
}
