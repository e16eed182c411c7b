/**
 * @file
 * bfbench: the repository benchmark.
 *
 * One workload per process, single-threaded: a closed loop that runs one
 * simulated machine at a time. A workload runs in whole passes, and every
 * pass repeats the same simulated runs, so simulated results must match
 * bit for bit between passes. Run time takes every run slice at its best
 * pass, set-up time the median pass. With trace=1 one extra pass runs
 * under the host self-profiler and supplies the per-layer host metrics;
 * end-to-end metrics never come from it.
 *
 * bfbench calls the layers' public APIs itself (CmpSystem, Os, Kernel,
 * ProgramBuilder + BarrierCodegen, the fuzz scenario generators, runChurn,
 * HostProfiler) and times each call from outside, so it depends on no
 * other bench helper.
 *
 *   bfbench workload=NAME [seed=12345] [passes=3] [seconds=0] [trace=0|1]
 *           [out=FILE]
 *
 * Passes repeat until at least `passes` have run and another would end
 * past `seconds`. Every metric prints as "name value unit"; the last
 * stdout line is one JSON object {correct, attempted, failed, metrics}
 * holding the end-to-end metrics, or with trace=1 the per-layer ones.
 * out=FILE receives every metric as JSON. The exit status is non-zero
 * when any run failed. See README.md for the workloads and metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "barriers/barrier_gen.hh"
#include "kernels/workload.hh"
#include "sim/artifact.hh"
#include "sim/hash.hh"
#include "sim/hostprof.hh"
#include "sim/json.hh"
#include "sim/log.hh"
#include "sim/snapshot.hh"
#include "sys/fuzz.hh"
#include "sys/system.hh"

using namespace bfsim;

namespace
{

// ----- workload shapes ----------------------------------------------------------

constexpr unsigned fig4BarriersPerLoop = 64;
const unsigned fig4Cores[] = {4, 16, 64};

const std::vector<BarrierKind> fig4HwKinds = {
    BarrierKind::HwNetwork, BarrierKind::FilterICache,
    BarrierKind::FilterDCache, BarrierKind::FilterICachePP,
    BarrierKind::FilterDCachePP};
const std::vector<BarrierKind> fig4SwKinds = {BarrierKind::SwCentral,
                                              BarrierKind::SwTree};

struct Table1Kernel
{
    KernelId id;
    uint64_t n;
};
const Table1Kernel table1Kernels[] = {
    {KernelId::Livermore2, 256}, {KernelId::Livermore3, 256},
    {KernelId::Livermore6, 256}, {KernelId::Autocorr, 1024},
    {KernelId::Viterbi, 256}};
constexpr unsigned table1Reps = 2;

constexpr uint64_t fuzzSeedsPerPass = 96;

// The fuzzer's run recipe (src/sys/fuzz.cc): a hash-chain sync point every
// 500 ticks, at most 4096 of them, and a hard tick ceiling per run.
constexpr Tick snapshotInterval = 500;
constexpr size_t maxSyncPoints = 4096;
constexpr Tick armedRunLimit = 30'000'000;

/** Simulated ticks per timed slice of a run (~1-10 ms of host time). */
constexpr Tick runSlice = 8192;

// ----- one pass -----------------------------------------------------------------

/** One simulated run, as one pass recorded it. */
struct Run
{
    std::string label;
    StateHasher outcome;       ///< simulated result, for pass-to-pass checks
    std::vector<double> slices; ///< host seconds of each timed run slice
    double instructions = -1;  ///< simulated; negative when not reported

    double
    runS() const
    {
        double s = 0;
        for (double x : slices)
            s += x;
        return s;
    }
};

/** Everything one pass of a workload measured. */
struct Pass
{
    // Host seconds outside the run calls, split by the layer that spent them.
    double constructS = 0; ///< CmpSystem construction (+ snapshot recorder)
    double inputsS = 0;    ///< workload inputs written into simulated memory
    double buildS = 0;     ///< program build: kernels' builders, barrier codegen
    double startS = 0;     ///< Os: barrier registration, thread create/start
    double checkS = 0;     ///< output checks against the golden references

    std::vector<Run> runs;             ///< in run order
    std::vector<std::string> failures; ///< "label: reason"

    std::map<std::string, double> sim;   ///< additive simulated totals
    std::map<std::string, double> paper; ///< cpb.* and speedup.* cells

    double setupS() const { return constructS + inputsS + buildS + startS; }

    double
    runS() const
    {
        double s = 0;
        for (const Run &r : runs)
            s += r.runS();
        return s;
    }
};

/**
 * Add the host seconds @p fn takes to @p slot; under the self-profiler
 * the interval is attributed to @p ph.
 */
template <typename Fn>
void
timed(double &slot, HostPhase ph, Fn &&fn)
{
    HostProfiler::Scope scope(ph);
    const uint64_t t0 = HostProfiler::nowNs();
    fn();
    slot += double(HostProfiler::nowNs() - t0) * 1e-9;
}

/**
 * Run one simulated run and record it in @p p. @p fn does the run, fills
 * in its Run and returns an empty string, or the reason it failed. An
 * exception fails this run only.
 */
void
record(Pass &p, std::string label, const std::function<std::string(Run &)> &fn)
{
    Run &run = p.runs.emplace_back();
    run.label = std::move(label);
    std::string why;
    try {
        why = fn(run);
    } catch (const std::exception &e) {
        why = std::string("threw: ") + e.what();
    }
    if (!why.empty())
        p.failures.push_back(run.label + ": " + why);
}

/** Time the run call @p fn as one more slice of @p run. */
template <typename Fn>
auto
timedSlice(Run &run, Fn &&fn)
{
    const uint64_t t0 = HostProfiler::nowNs();
    auto result = fn();
    run.slices.push_back(double(HostProfiler::nowNs() - t0) * 1e-9);
    return result;
}

/** Counters summed over every core, bank and link into one key. */
struct CounterSum
{
    const char *key;
    const char *prefix;
    const char *suffix;
};

const CounterSum counterSums[] = {
    {"l1i.fetchHits", "l1i.", ".fetchHits"},
    {"l1i.fetchMisses", "l1i.", ".fetchMisses"},
    {"l1d.loadHits", "l1d.", ".loadHits"},
    {"l1d.loadMisses", "l1d.", ".loadMisses"},
    {"l1d.storeHits", "l1d.", ".storeHits"},
    {"l1d.storeMisses", "l1d.", ".storeMisses"},
    {"l1d.storeUpgrades", "l1d.", ".storeUpgrades"},
    {"l1.mshrFullStalls", "l1", ".mshrFullStalls"},
    {"l1d.scFastFails", "l1d.", ".scFastFails"},
    {"l2.hits", "l2.bank", ".hits"},
    {"l2.misses", "l2.bank", ".misses"},
    {"l2.invAlls", "l2.bank", ".invAlls"},
    {"l3.hits", "l3.hits", ""},
    {"l3.misses", "l3.misses", ""},
    {"dram.accesses", "dram.accesses", ""},
    {"bus.req.busyCycles", "bus.req", ".busyCycles"},
    {"bus.req.queueCycles", "bus.req", ".queueCycles"},
    {"bus.req.msgs", "bus.req", ".msgs"},
    {"bus.resp.busyCycles", "bus.resp", ".busyCycles"},
    {"bus.resp.queueCycles", "bus.resp", ".queueCycles"},
    {"bus.resp.msgs", "bus.resp", ".msgs"},
    {"filter.blockedFills", "filter.bank", ".blockedFills"},
    {"filter.timeoutNacks", "filter.bank", ".timeoutNacks"},
    {"barrier.episodes", "barrier.episodes", ""},
    {"barrier.swapStallCycles", "barrier.swapStallCycles", ""},
    {"hwnet.releases", "hwnet.releases", ""},
    {"os.barrierFallbacks", "os.barrierFallbacks", ""},
    {"os.barrierRecoveries", "os.barrierRecoveries", ""},
    {"os.virt.faultIns", "os.virt.faultIns", ""},
    {"os.repair.forcedLeaves", "os.repair.forcedLeaves", ""},
    {"check.violations", "check.violations", ""},
    {"faults.injected", "faults.", ""},
};

/** Barrier-episode distributions pooled as (count, sum) over runs. */
const char *const episodeDists[] = {"barrier.episodeLatency",
                                    "barrier.arrivalSkew",
                                    "barrier.waitCycles"};

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.compare(0, std::char_traits<char>::length(prefix), prefix) == 0;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const size_t n = std::char_traits<char>::length(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Fold a finished machine's statistics into the pass totals. */
void
harvest(Pass &p, CmpSystem &sys, Tick cycles)
{
    const CmpConfig &cfg = sys.config();
    auto &sim = p.sim;
    sim["cycles"] += double(cycles);
    sim["coreCycles"] += double(cycles) * cfg.numCores;
    sim["instructions"] += double(sys.totalInstructions());

    const CycleAccountant &acct = sys.cycleAccounting();
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        const CycleAccountant::Buckets &b = acct.buckets(CoreId(c));
        sim["acct.compute"] += double(b.compute);
        sim["acct.fetchStall"] += double(b.fetchStall);
        sim["acct.loadStall"] += double(b.loadStall);
        sim["acct.barrierWait"] += double(b.barrierWait);
        sim["acct.descheduled"] += double(b.descheduled);
    }

    StatGroup &st = sys.statistics();
    st.forEachCounter([&](const std::string &name, uint64_t v) {
        for (const CounterSum &cs : counterSums)
            if (startsWith(name, cs.prefix) && endsWith(name, cs.suffix))
                sim[cs.key] += double(v);
    });
    for (const char *name : episodeDists) {
        const Distribution &d = st.distribution(name);
        sim[std::string(name) + ".count"] += double(d.count());
        if (d.count() > 0)
            sim[std::string(name) + ".sum"] += double(d.count()) * d.mean();
    }
    // Link-cycles: a crossbar has a request link per bank and a response
    // link per core, so busy fractions divide by every link's cycles.
    sim["bus.req.linkCycles"] +=
        double(cycles) * (cfg.crossbar ? cfg.l2Banks : 1);
    sim["bus.resp.linkCycles"] +=
        double(cycles) * (cfg.crossbar ? cfg.numCores : 1);
}

/** Output check of a loaded machine: empty when its outputs are right. */
using OutputCheck = std::function<std::string(CmpSystem &)>;

/**
 * Construct a machine from @p cfg, load it with @p load, run it and check
 * it. Invariant-armed configurations run the fuzzer's way: a snapshot
 * recorder from construction on, a tick ceiling, and any invariant
 * violation fails the run. @return simulated cycles, 0 when it failed.
 */
Tick
execute(Pass &p, std::string label, const CmpConfig &cfg,
        const std::function<OutputCheck(CmpSystem &)> &load)
{
    Tick cycles = 0;
    record(p, std::move(label), [&](Run &run) -> std::string {
        std::unique_ptr<CmpSystem> sys;
        std::unique_ptr<SnapshotRecorder> rec;
        timed(p.constructS, HostPhase::Setup, [&] {
            sys = std::make_unique<CmpSystem>(cfg);
            if (cfg.checkInvariants)
                rec = std::make_unique<SnapshotRecorder>(
                    *sys, snapshotInterval, maxSyncPoints);
        });
        const OutputCheck check = load(*sys);

        // Every pass runs the same slices of simulated time, so each
        // slice's best host time over the passes can be taken.
        const Tick limit = cfg.checkInvariants ? armedRunLimit : tickNever;
        for (Tick bound = 0; !sys->allThreadsHalted() && bound < limit;) {
            bound = std::min(limit, bound + runSlice);
            timedSlice(run, [&] { return sys->runTo(bound); });
        }
        const Tick end = timedSlice(run, [&] { return sys->run(limit); });
        run.instructions = double(sys->totalInstructions());

        std::string why;
        if (!sys->allThreadsHalted())
            why = std::to_string(sys->liveThreadCount()) +
                  " thread(s) left un-halted";
        else if (sys->anyBarrierError())
            why = "barrier error";
        else
            timed(p.checkS, HostPhase::CheckResult,
                  [&] { why = check(*sys); });
        if (why.empty() && sys->invariantChecker() &&
            sys->invariantChecker()->violationCount() > 0)
            why = "invariant violation: " +
                  sys->invariantChecker()->violations().front().message;

        {
            HostProfiler::Scope scope(HostPhase::Harness);
            harvest(p, *sys, end);
            run.outcome.u64(end);
            run.outcome.u64(sys->totalInstructions());
            run.outcome.u64(sys->stateHash());
            if (rec)
                for (const SyncPoint &sp : rec->chain()) {
                    run.outcome.u64(sp.tick);
                    run.outcome.u64(sp.hash);
                }
        }
        if (why.empty())
            cycles = end;
        return why;
    });
    return cycles;
}

std::string
grantCheck(const BarrierHandle &handle)
{
    if (handle.granted == handle.requested)
        return "";
    return std::string("requested ") + barrierKindName(handle.requested) +
           ", granted " + barrierKindName(handle.granted);
}

/**
 * The Fig. 4 loop on one thread per core: @p loops trips of 64
 * back-to-back barriers, then the trip count is stored to @p cell.
 */
ProgramPtr
buildBarrierLoop(Os &os, const BarrierHandle &handle, unsigned tid,
                 unsigned loops, Addr cell)
{
    ProgramBuilder b(os.codeBase(ThreadId(tid)));
    BarrierCodegen bar(handle, tid);
    IntReg rLoop = b.temp(), rLoops = b.temp(), rCell = b.temp();

    bar.emitInit(b);
    b.li(rLoop, 0);
    b.li(rLoops, int64_t(loops));
    b.li(rCell, int64_t(cell));
    b.label("loop");
    for (unsigned i = 0; i < fig4BarriersPerLoop; ++i)
        bar.emitBarrier(b);
    b.addi(rLoop, rLoop, 1);
    b.blt(rLoop, rLoops, "loop");
    b.sd(rLoop, rCell, 0);
    b.halt();
    bar.emitArrivalSections(b);
    return b.build();
}

Tick
runBarrierLoop(Pass &p, const CmpConfig &cfg, BarrierKind kind,
               unsigned loops)
{
    const std::string label = std::string("fig4 ") + barrierKindName(kind) +
                              " " + std::to_string(cfg.numCores) + "c " +
                              std::to_string(loops) + " loops";
    return execute(p, label, cfg, [&](CmpSystem &sys) -> OutputCheck {
        Os &os = sys.os();
        const unsigned threads = cfg.numCores;
        const Addr line = cfg.lineBytes;
        Addr cells = 0;
        timed(p.inputsS, HostPhase::Setup, [&] {
            cells = os.allocData(threads * line, line);
            for (unsigned t = 0; t < threads; ++t)
                sys.memory().write64(cells + t * line, ~uint64_t(0));
        });
        BarrierHandle handle;
        timed(p.startS, HostPhase::Setup,
              [&] { handle = os.registerBarrier(kind, threads); });
        std::vector<ProgramPtr> progs;
        timed(p.buildS, HostPhase::Setup, [&] {
            for (unsigned t = 0; t < threads; ++t)
                progs.push_back(buildBarrierLoop(os, handle, t, loops,
                                                 cells + t * line));
        });
        timed(p.startS, HostPhase::Setup, [&] {
            for (unsigned t = 0; t < threads; ++t)
                os.startThread(os.createThread(progs[t]), CoreId(t));
        });
        return [=, granted = grantCheck(handle)](CmpSystem &s) -> std::string {
            if (!granted.empty())
                return granted;
            for (unsigned t = 0; t < threads; ++t) {
                const uint64_t v = s.memory().read64(cells + t * line);
                if (v != loops)
                    return "thread " + std::to_string(t) + " stored " +
                           std::to_string(v) + " loops";
            }
            return "";
        };
    });
}

/**
 * One kernel run against its golden reference: sequential on core 0 when
 * @p kind is empty, else barrier-parallel over @p threads threads.
 */
Tick
runKernelCase(Pass &p, const std::string &label, const CmpConfig &cfg,
              KernelId id, const KernelParams &params,
              std::optional<BarrierKind> kind, unsigned threads)
{
    return execute(p, label, cfg, [&](CmpSystem &sys) -> OutputCheck {
        Os &os = sys.os();
        std::shared_ptr<Kernel> kernel;
        timed(p.inputsS, HostPhase::Setup, [&] {
            kernel = makeKernel(id);
            kernel->setup(sys, params);
        });
        std::string granted;
        std::vector<ProgramPtr> progs;
        if (!kind) {
            timed(p.buildS, HostPhase::Setup, [&] {
                progs.push_back(kernel->buildSequential(sys, os.codeBase(0)));
            });
        } else {
            BarrierHandle handle;
            timed(p.startS, HostPhase::Setup,
                  [&] { handle = os.registerBarrier(*kind, threads); });
            granted = grantCheck(handle);
            timed(p.buildS, HostPhase::Setup, [&] {
                for (unsigned t = 0; t < threads; ++t)
                    progs.push_back(kernel->buildParallel(
                        sys, os.codeBase(ThreadId(t)), t, threads, handle));
            });
        }
        timed(p.startS, HostPhase::Setup, [&] {
            for (size_t t = 0; t < progs.size(); ++t)
                os.startThread(os.createThread(progs[t]), CoreId(t));
        });
        return [kernel, granted](CmpSystem &s) -> std::string {
            if (!granted.empty())
                return granted;
            return kernel->check(s) ? ""
                                    : "result differs from the golden "
                                      "reference";
        };
    });
}

/**
 * One churn scenario run through runChurn, which builds its machine
 * internally: its set-up lands in run time, and only cycles, fault
 * counters and invariant violations come back.
 */
void
runChurnCase(Pass &p, const std::string &label, const FuzzScenario &sc,
             BarrierKind kind)
{
    record(p, label, [&](Run &run) -> std::string {
        const FuzzRun r =
            timedSlice(run, [&] { return runChurn(sc, kind, false); });

        HostProfiler::Scope scope(HostPhase::Harness);
        p.sim["cycles"] += double(r.cycles);
        p.sim["coreCycles"] += double(r.cycles) * sc.cfg.numCores;
        p.sim["check.violations"] += double(r.violations);
        for (const auto &[name, v] : r.counters)
            if (startsWith(name, "faults."))
                p.sim["faults.injected"] += double(v);
        run.outcome.u64(r.cycles);
        for (const SyncPoint &sp : r.chain) {
            run.outcome.u64(sp.tick);
            run.outcome.u64(sp.hash);
        }
        if (!r.failed)
            return "";
        if (!r.exception.empty())
            return "threw: " + r.exception;
        if (r.violations > 0)
            return "invariant violation: " + r.firstViolation;
        return !r.completed ? "threads left un-halted"
               : r.barrierError ? "barrier error"
                                : "epoch cells differ from the schedule";
    });
}

double
geomean(const std::vector<double> &v)
{
    double logSum = 0;
    for (double x : v) {
        if (!(x > 0))
            return 0;
        logSum += std::log(x);
    }
    return v.empty() ? 0 : std::exp(logSum / double(v.size()));
}

/**
 * Fig. 4: every mechanism at 4/16/64 cores, each run at @p loopsA and
 * @p loopsB trips. Steady-state cycles per barrier is the difference of
 * the two runs over the extra barriers, so warm-up cancels out (§4.2).
 */
void
fig4Pass(Pass &p, const std::vector<BarrierKind> &kinds, unsigned loopsA,
         unsigned loopsB)
{
    for (unsigned cores : fig4Cores) {
        std::vector<double> cpbs;
        for (BarrierKind kind : kinds) {
            CmpConfig cfg;
            cfg.numCores = cores;
            const Tick a = runBarrierLoop(p, cfg, kind, loopsA);
            const Tick b = runBarrierLoop(p, cfg, kind, loopsB);
            const double cpb =
                a && b ? (double(b) - double(a)) /
                             double(fig4BarriersPerLoop * (loopsB - loopsA))
                       : 0;
            p.paper[std::string("cpb.") + barrierKindName(kind) + "." +
                    std::to_string(cores) + "c"] = cpb;
            cpbs.push_back(cpb);
        }
        p.paper["cpb_" + std::to_string(cores) + "c"] = geomean(cpbs);
    }
}

void
fig4HwPass(Pass &p, uint64_t)
{
    fig4Pass(p, fig4HwKinds, 8, 16);
}

void
fig4SwPass(Pass &p, uint64_t)
{
    fig4Pass(p, fig4SwKinds, 1, 2);
}

/** Table 1 at 16 cores: each kernel sequential and under all 7 mechanisms. */
void
table1Pass(Pass &p, uint64_t seed)
{
    const CmpConfig cfg;
    std::vector<double> bestFilters, bestSws;
    for (const Table1Kernel &k : table1Kernels) {
        KernelParams params;
        params.n = k.n;
        params.reps = table1Reps;
        params.seed = seed;
        const std::string name = kernelName(k.id);
        const Tick seq = runKernelCase(p, name + " sequential", cfg, k.id,
                                       params, std::nullopt, 1);
        double bestSw = 0, bestFilter = 0, hwNet = 0;
        for (BarrierKind kind : allBarrierKinds()) {
            const Tick par =
                runKernelCase(p, name + " " + barrierKindName(kind), cfg,
                              k.id, params, kind, cfg.numCores);
            const double s = seq && par ? double(seq) / double(par) : 0;
            if (kind == BarrierKind::HwNetwork)
                hwNet = s;
            else if (isFilterKind(kind))
                bestFilter = std::max(bestFilter, s);
            else
                bestSw = std::max(bestSw, s);
        }
        p.paper["speedup." + name + ".best_sw"] = bestSw;
        p.paper["speedup." + name + ".best_filter"] = bestFilter;
        p.paper["speedup." + name + ".hw_network"] = hwNet;
        bestSws.push_back(bestSw);
        bestFilters.push_back(bestFilter);
    }
    p.paper["speedup_filter"] = geomean(bestFilters);
    p.paper["speedup_sw"] = geomean(bestSws);
}

/**
 * Fuzzer scenarios 0..95: each one's kernel scenario under all 7
 * mechanisms, then its churn scenario under its 2. The scenario window is
 * fixed because it is screened: every one of its 864 runs passes, while
 * other windows hold known simulator bugs. The workload seed instead
 * reseeds each kernel scenario's input data, which the golden references
 * follow and the kernels' timing does not.
 */
void
fuzzPass(Pass &p, uint64_t seed)
{
    for (uint64_t s = 0; s < fuzzSeedsPerPass; ++s) {
        FuzzScenario sc = scenarioFromSeed(s);
        StateHasher inputSeed;
        inputSeed.u64(sc.params.seed);
        inputSeed.u64(seed);
        sc.params.seed = inputSeed.digest();
        CmpConfig cfg = sc.cfg;
        cfg.checkInvariants = true; // the fuzz oracle: collect, don't abort
        cfg.checkFailFast = false;
        const std::string tag = "fuzz " + std::to_string(s) + " ";
        for (BarrierKind kind : sc.kinds)
            runKernelCase(p, tag + kernelName(sc.kernel) + " " +
                                 barrierKindName(kind),
                          cfg, sc.kernel, sc.params, kind, sc.threads);
        const FuzzScenario churn = churnScenarioFromSeed(s);
        for (BarrierKind kind : churn.kinds)
            runChurnCase(p, tag + "churn " + barrierKindName(kind), churn,
                         kind);
    }
}

struct Workload
{
    const char *name;
    void (*pass)(Pass &, uint64_t seed);
};

const Workload workloads[] = {
    {"fig4-hw", fig4HwPass},
    {"fig4-sw", fig4SwPass},
    {"table1-kernels", table1Pass},
    {"faulted-fuzz", fuzzPass},
};

// ----- metrics ------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median over passes of @p f. */
double
medianOf(const std::vector<Pass> &passes,
         const std::function<double(const Pass &)> &f)
{
    std::vector<double> v;
    for (const Pass &p : passes)
        v.push_back(f(p));
    return median(v);
}

/**
 * Host seconds of one pass with every run slice at its best: each slice's
 * fastest time over the passes, summed over the slices of every run (of
 * the runs that report instructions when @p instructionsOnly).
 * Interference from other processes only ever adds host time, mostly in
 * bursts shorter than a pass, so per-slice minima filter out most of it.
 */
double
bestRunSeconds(const std::vector<Pass> &passes, bool instructionsOnly)
{
    const std::vector<Run> &runs = passes.front().runs;
    double total = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
        if (instructionsOnly && runs[i].instructions < 0)
            continue;
        for (size_t j = 0; j < runs[i].slices.size(); ++j) {
            double best = runs[i].slices[j];
            for (const Pass &p : passes)
                if (i < p.runs.size() && j < p.runs[i].slices.size())
                    best = std::min(best, p.runs[i].slices[j]);
            total += best;
        }
    }
    return total;
}

/**
 * Peak resident set of this process image, from VmHWM. (getrusage's
 * ru_maxrss would also count a shell that exec'd this binary.)
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (startsWith(line, "VmHWM:"))
            return std::stod(line.substr(6)) / 1024.0; // kB
    fatal("bfbench: no VmHWM in /proc/self/status");
}

std::vector<Metric>
endToEndMetrics(const std::vector<Pass> &passes)
{
    const Pass &p0 = passes.front();
    return {
        {"wall_s", bestRunSeconds(passes, false), "s"},
        {"sim_mips",
         ratio(p0.sim.at("instructions"), bestRunSeconds(passes, true)) *
             1e-6,
         "MIPS"},
        {"setup_s",
         medianOf(passes, [](const Pass &p) { return p.setupS(); }), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_cycles", p0.sim.at("cycles"), "cycles"},
    };
}

/** Simulated per-layer metrics, folded over cores, banks and links. */
std::vector<Metric>
simulatedMetrics(const Pass &p)
{
    auto s = [&](const char *key) {
        auto it = p.sim.find(key);
        return it == p.sim.end() ? 0.0 : it->second;
    };
    const double acct = s("acct.compute") + s("acct.fetchStall") +
                        s("acct.loadStall") + s("acct.barrierWait") +
                        s("acct.descheduled");
    const double episodes = s("barrier.episodes");
    auto pooledMean = [&](const char *dist) {
        const std::string d = dist;
        return ratio(s((d + ".sum").c_str()), s((d + ".count").c_str()));
    };
    auto missRate = [&](double misses, double hits) {
        return ratio(misses, misses + hits);
    };
    return {
        {"cpu.ipc", ratio(s("instructions"), acct), "instr/cycle"},
        {"cpu.compute_frac", ratio(s("acct.compute"), acct), "frac"},
        {"cpu.fetch_stall_frac", ratio(s("acct.fetchStall"), acct), "frac"},
        {"cpu.load_stall_frac", ratio(s("acct.loadStall"), acct), "frac"},
        {"cpu.barrier_wait_frac", ratio(s("acct.barrierWait"), acct),
         "frac"},
        {"cpu.descheduled_frac", ratio(s("acct.descheduled"), acct), "frac"},
        {"mem.l1i_fetch_miss_rate",
         missRate(s("l1i.fetchMisses"), s("l1i.fetchHits")), "frac"},
        {"mem.l1d_load_miss_rate",
         missRate(s("l1d.loadMisses"), s("l1d.loadHits")), "frac"},
        {"mem.l1d_store_miss_rate",
         missRate(s("l1d.storeMisses") + s("l1d.storeUpgrades"),
                  s("l1d.storeHits")),
         "frac"},
        {"mem.l2_miss_rate", missRate(s("l2.misses"), s("l2.hits")), "frac"},
        {"mem.l3_miss_rate", missRate(s("l3.misses"), s("l3.hits")), "frac"},
        {"mem.mshr_full_stalls", s("l1.mshrFullStalls"), "count"},
        {"mem.dram_accesses", s("dram.accesses"), "count"},
        {"mem.invalls", s("l2.invAlls"), "count"},
        {"mem.sc_fast_fails", s("l1d.scFastFails"), "count"},
        {"mem.req_bus_busy_frac",
         ratio(s("bus.req.busyCycles"), s("bus.req.linkCycles")), "frac"},
        {"mem.resp_bus_busy_frac",
         ratio(s("bus.resp.busyCycles"), s("bus.resp.linkCycles")), "frac"},
        {"mem.req_bus_queue_per_msg",
         ratio(s("bus.req.queueCycles"), s("bus.req.msgs")), "cycles/msg"},
        {"mem.resp_bus_queue_per_msg",
         ratio(s("bus.resp.queueCycles"), s("bus.resp.msgs")), "cycles/msg"},
        {"filter.episodes", episodes, "count"},
        {"filter.episode_latency_mean", pooledMean("barrier.episodeLatency"),
         "cycles"},
        {"filter.arrival_skew_mean", pooledMean("barrier.arrivalSkew"),
         "cycles"},
        {"filter.wait_cycles_mean", pooledMean("barrier.waitCycles"),
         "cycles"},
        {"filter.blocked_fills_per_episode",
         ratio(s("filter.blockedFills"), episodes), "fills/episode"},
        {"filter.timeout_nacks", s("filter.timeoutNacks"), "count"},
        {"filter.swap_stall_cycles", s("barrier.swapStallCycles"), "cycles"},
        {"hwnet.releases", s("hwnet.releases"), "count"},
        {"os.barrier_fallbacks", s("os.barrierFallbacks"), "count"},
        {"os.barrier_recoveries", s("os.barrierRecoveries"), "count"},
        {"os.virt_fault_ins", s("os.virt.faultIns"), "count"},
        {"os.repair_forced_leaves", s("os.repair.forcedLeaves"), "count"},
        {"check.violations", s("check.violations"), "count"},
        {"faults.injected", s("faults.injected"), "count"},
    };
}

/** Host times outside the event loop, by layer (untraced, median pass). */
std::vector<Metric>
outsideMetrics(const std::vector<Pass> &passes)
{
    auto med = [&](double Pass::*slot) {
        return medianOf(passes, [slot](const Pass &p) { return p.*slot; });
    };
    return {
        {"sys.construct_s", med(&Pass::constructS), "s"},
        {"workload.inputs_s", med(&Pass::inputsS), "s"},
        {"isa.build_s", med(&Pass::buildS), "s"},
        {"os.start_s", med(&Pass::startS), "s"},
        {"workload.check_s", med(&Pass::checkS), "s"},
        {"sys.run_ms_per_run",
         1e3 * bestRunSeconds(passes, false) /
             double(passes.front().runs.size()),
         "ms"},
    };
}

/** Host per-layer metrics from the traced pass's self-profile. */
std::vector<Metric>
hostMetrics(const HostProfReport &rep, const HostProfiler &prof,
            const Pass &traced, double untracedRunS)
{
    const double cycles = traced.sim.at("cycles");
    std::vector<Metric> out;
    // The event phases; osSched and watchdog are left out because no
    // workload spends measurable time in them.
    for (HostPhase ph :
         {HostPhase::CoreTick, HostPhase::L1Access, HostPhase::L2Access,
          HostPhase::Memory, HostPhase::BusArb, HostPhase::FilterFsm,
          HostPhase::Network, HostPhase::Fault, HostPhase::Snapshot,
          HostPhase::Check, HostPhase::QueuePop}) {
        // The report lists only the phases that ran.
        const std::string name = hostPhaseName(ph);
        double ns = 0;
        for (const HostProfPhase &row : rep.phases)
            if (name == row.name)
                ns = row.ns;
        out.push_back({"host." + name + "_ns_per_cycle", ratio(ns, cycles),
                       "ns/cycle"});
    }
    out.push_back({"host.events_per_cycle",
                   ratio(double(rep.events), cycles), "events/cycle"});
    out.push_back({"host.core_ticks_per_core_cycle",
                   ratio(double(prof.eventCount(HostPhase::CoreTick)),
                         traced.sim.at("coreCycles")),
                   "ticks/cycle"});
    out.push_back({"host.attributed_frac", rep.attributedFrac, "frac"});
    out.push_back({"host.trace_overhead_frac",
                   ratio(traced.runS(), untracedRunS) - 1, "frac"});
    return out;
}

/**
 * Simulated results of @p p that differ from @p ref, one entry per run
 * (or one for the whole pass when the run lists themselves differ).
 */
std::vector<std::string>
divergences(const Pass &ref, const Pass &p, const std::string &which)
{
    const bool sameRuns =
        p.runs.size() == ref.runs.size() &&
        std::equal(p.runs.begin(), p.runs.end(), ref.runs.begin(),
                   [](const Run &a, const Run &b) { return a.label == b.label; });
    if (!sameRuns)
        return {which + ": ran a different set of runs"};
    std::vector<std::string> out;
    for (size_t i = 0; i < p.runs.size(); ++i)
        if (p.runs[i].outcome.digest() != ref.runs[i].outcome.digest())
            out.push_back(p.runs[i].label + ": simulated result differs in " +
                          which);
    if (out.empty() && (p.sim != ref.sim || p.paper != ref.paper))
        out.push_back(which + ": simulated totals differ");
    return out;
}

void
printMetrics(const char *section, const std::vector<Metric> &ms)
{
    std::cout << "# " << section << "\n";
    for (const Metric &m : ms) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.10g", m.value);
        std::cout << m.name << " " << buf << " " << m.unit << "\n";
    }
}

void
writeMetrics(JsonWriter &w, const std::vector<Metric> &ms)
{
    w.beginObject();
    for (const Metric &m : ms) {
        w.key(m.name).beginObject();
        w.kv("value", std::isfinite(m.value) ? m.value : 0.0);
        w.kv("unit", m.unit);
        w.end();
    }
    w.end();
}

int
usage(const std::string &why)
{
    std::cerr << "bfbench: " << why << "\n"
              << "usage: bfbench workload=NAME [seed=12345] [passes=3] "
                 "[seconds=0] [trace=0|1] [out=FILE]\nworkloads:";
    for (const Workload &w : workloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

int
benchMain(int argc, char **argv)
{
    const OptionMap opts = OptionMap::fromArgs(argc, argv);
    for (const std::string &k : opts.keys())
        if (k != "workload" && k != "seed" && k != "passes" &&
            k != "seconds" && k != "trace" && k != "out")
            return usage("unknown option '" + k + "'");
    if (!opts.positionalArgs().empty())
        return usage("unexpected argument '" + opts.positionalArgs()[0] +
                     "'");
    const std::string name = opts.getString("workload", "");
    const Workload *wl = nullptr;
    for (const Workload &w : workloads)
        if (name == w.name)
            wl = &w;
    if (!wl)
        return usage(name.empty() ? "workload= is required"
                                  : "unknown workload '" + name + "'");
    const uint64_t seed = opts.getUint("seed", 12345);
    const size_t minPasses = std::max<uint64_t>(1, opts.getUint("passes", 3));
    const double seconds = opts.getDouble("seconds", 0);
    const bool trace = opts.getBool("trace", false);
    const std::string outPath = opts.getString("out", "");

    std::vector<Pass> passes;
    const uint64_t t0 = HostProfiler::nowNs();
    for (;;) {
        passes.emplace_back();
        wl->pass(passes.back(), seed);
        const double elapsed = double(HostProfiler::nowNs() - t0) * 1e-9;
        const double perPass = elapsed / double(passes.size());
        if (passes.size() >= minPasses && elapsed + perPass > seconds)
            break;
    }

    std::vector<std::string> failures;
    size_t attempted = 0;
    for (size_t i = 0; i < passes.size(); ++i) {
        attempted += passes[i].runs.size();
        failures.insert(failures.end(), passes[i].failures.begin(),
                        passes[i].failures.end());
        if (i > 0)
            for (std::string &d : divergences(passes[0], passes[i],
                                              "pass " + std::to_string(i + 1)))
                failures.push_back(std::move(d));
    }

    std::vector<Metric> perLayer;
    if (trace) {
        HostProfiler &prof = HostProfiler::enable();
        Pass traced;
        wl->pass(traced, seed);
        const HostProfReport rep =
            prof.report(uint64_t(traced.sim.at("cycles")),
                        uint64_t(traced.sim.at("instructions")));
        perLayer = hostMetrics(
            rep, prof, traced,
            medianOf(passes, [](const Pass &p) { return p.runS(); }));
        HostProfiler::disable();
        attempted += traced.runs.size();
        failures.insert(failures.end(), traced.failures.begin(),
                        traced.failures.end());
        for (std::string &d : divergences(passes[0], traced, "traced pass"))
            failures.push_back(std::move(d));
    }
    for (Metric &m : outsideMetrics(passes))
        perLayer.push_back(std::move(m));
    for (Metric &m : simulatedMetrics(passes[0]))
        perLayer.push_back(std::move(m));

    const std::vector<Metric> e2e = endToEndMetrics(passes);
    std::vector<Metric> paper;
    for (const auto &[k, v] : passes[0].paper)
        paper.push_back({k, v, startsWith(k, "cpb") ? "cycles" : "x"});

    for (const std::string &f : failures)
        std::cout << "FAIL " << f << "\n";
    std::cout << "# bfbench workload=" << wl->name << " seed=" << seed
              << " passes=" << passes.size()
              << " runs/pass=" << passes[0].runs.size()
              << (trace ? " +1 traced" : "") << "\n";
    for (size_t i = 0; i < passes.size(); ++i)
        std::cout << "# pass " << i + 1 << ": run " << passes[i].runS()
                  << " s, setup " << passes[i].setupS() << " s\n";
    printMetrics("end to end", e2e);
    std::cout << "attempted " << attempted << " runs\nfail_frac "
              << ratio(double(failures.size()), double(attempted))
              << " frac\n";
    printMetrics("paper", paper);
    printMetrics("per layer", perLayer);

    if (!outPath.empty()) {
        writeJsonArtifact(outPath, [&](JsonWriter &w) {
            w.beginObject();
            w.kv("workload", wl->name);
            w.kv("seed", seed);
            w.kv("trace", trace);
            w.kv("passes", uint64_t(passes.size()));
            w.kv("attempted", uint64_t(attempted));
            w.kv("failed", uint64_t(failures.size()));
            w.key("failures").beginArray();
            for (const std::string &f : failures)
                w.value(f);
            w.end();
            w.key("end_to_end");
            writeMetrics(w, e2e);
            w.key("paper");
            writeMetrics(w, paper);
            w.key("per_layer");
            writeMetrics(w, perLayer);
            w.end();
        });
    }

    JsonWriter w(std::cout);
    w.beginObject();
    w.kv("correct", failures.empty());
    w.kv("attempted", uint64_t(attempted));
    w.kv("failed", uint64_t(failures.size()));
    w.key("metrics");
    writeMetrics(w, trace ? perLayer : e2e);
    w.end();
    std::cout << std::endl;
    return failures.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "bfbench: " << e.what() << "\n";
        return 2;
    }
}
