/**
 * @file
 * Host-speed benchmark of the ReMAP simulator (see README.md).
 *
 * Measures how long the simulator takes to run the paper's region
 * and barrier experiments exactly, to repeat them from the snapshot
 * cache, and to run long regions sampled. It drives the simulator
 * only through its public entry points (WorkloadInfo::make,
 * System::runSegment/runSampled, harness::runRegions,
 * harness::SnapshotCache, isa::interpret, System::dumpStatsJson) in
 * one process with one simulation thread.
 *
 *   simbench --workload regions|barriers|sampled --seed N
 *            --seconds S --trace 0|1 [--results FILE]
 *
 * Timing rule: every timed unit is short (one whole warm or sampled
 * job, or one fixed-length runSegment() slice of an exact job), each
 * unit's time is the fastest of its repetitions, the repetitions are
 * whole rounds over the job list in a seeded order, and a metric is
 * the sum of its units' times. The last line of stdout is one JSON
 * object with the metrics; diagnostics go to stderr.
 *
 * Set-up (setup_s) follows the same rule: it is the fastest of
 * kSetupSamples cold set-ups, this process's own and the rest in fresh
 * copies of this program started with --setup-only 1, which build
 * every job's system once and print their seconds since process start.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/parallel.hh"
#include "harness/snapshot_cache.hh"
#include "isa/interp.hh"
#include "sim/json_value.hh"
#include "sim/profile.hh"
#include "sim/sampling.hh"

extern char **environ;

namespace
{

using namespace remap;
using harness::RegionJob;
using harness::RegionResult;
using workloads::Mode;
using workloads::RunSpec;
using workloads::Variant;
using Clock = std::chrono::steady_clock;

/** Simulated cycles per timed slice of an exact job. */
constexpr Cycle kSegmentCycles = 8192;
/** Cycle limit of one region run (runRegion uses the same). */
constexpr Cycle kMaxCycles = 400'000'000ULL;
/** Timed rounds per run: --seconds divided by the workload's nominal
 *  round length, clamped to [kMinRounds, kMaxRounds]. The count
 *  depends only on the arguments, never on host speed, so every run
 *  of one command takes the fastest of the same number of samples. */
constexpr unsigned kMinRounds = 3;
constexpr unsigned kMaxRounds = 16;
/** Sampled jobs with at least this many windows must cover the
 *  exact cycle count with their 95% interval. */
constexpr std::uint64_t kMinCiWindows = 20;
/** Cold set-ups per run (this process's and fresh processes'):
 *  setup_s is the fastest of them, like every other timed unit. */
constexpr unsigned kSetupSamples = 17;
/** Instruction budget of the isa::interpret reference runs. */
constexpr std::uint64_t kInterpSteps = 1'000'000'000ULL;

/** Process start: taken before the other static initialisers run. */
Clock::time_point processStart;

__attribute__((constructor(101))) void
noteProcessStart()
{
    processStart = Clock::now();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------ //
// Workloads
// ------------------------------------------------------------------ //

struct Job
{
    RegionJob region;
    std::string label;
};

std::string
jobLabel(const RegionJob &j)
{
    std::string s = j.info->name + "/" +
                    workloads::variantName(j.spec.variant);
    if (j.spec.problemSize)
        s += "/n" + std::to_string(j.spec.problemSize);
    if (j.spec.threads > 1)
        s += "/p" + std::to_string(j.spec.threads);
    if (j.spec.copies > 1)
        s += "/x" + std::to_string(j.spec.copies);
    if (j.spec.iterations)
        s += "/i" + std::to_string(j.spec.iterations);
    return s;
}

void
addJob(std::vector<Job> &jobs, const workloads::WorkloadInfo &info,
       const RunSpec &spec)
{
    RegionJob r{&info, spec};
    jobs.push_back(Job{r, jobLabel(r)});
}

/** Fig. 10/11 variant sets of every non-barrier Table III workload
 *  at kernel-default sizes, plus the software-queue variant. */
std::vector<Job>
regionsJobs()
{
    std::vector<Job> jobs;
    for (const auto &w : workloads::registry()) {
        if (w.mode == Mode::Barrier)
            continue;
        RunSpec spec;
        for (Variant v : {Variant::Seq, Variant::SeqOoo2}) {
            spec.variant = v;
            addJob(jobs, w, spec);
        }
        spec.variant = Variant::Comp;
        spec.copies = w.mode == Mode::ComputeOnly ? 4 : 1;
        addJob(jobs, w, spec);
        spec.copies = 1;
        if (w.mode != Mode::CommComp)
            continue;
        for (Variant v : {Variant::Comm, Variant::CompComm,
                          Variant::Ooo2Comm, Variant::SwQueue}) {
            spec.variant = v;
            addJob(jobs, w, spec);
        }
    }
    return jobs;
}

/** Fig. 12-14 series at the smallest and one large figure size of
 *  each barrier workload, plus the homogeneous barrier network. */
std::vector<Job>
barriersJobs()
{
    struct Series
    {
        const char *name;
        unsigned small, large;
        bool comp; ///< Fig. 13's barrier+Comp series exists
    };
    const Series series[] = {{"ll2", 8, 512, false},
                             {"ll6", 8, 128, false},
                             {"ll3", 32, 1024, true},
                             {"dijkstra", 32, 128, true}};
    std::vector<Job> jobs;
    for (const Series &s : series) {
        const auto &info = workloads::byName(s.name);
        for (unsigned size : {s.small, s.large}) {
            RunSpec spec;
            spec.problemSize = size;
            spec.variant = Variant::Seq;
            addJob(jobs, info, spec);
            std::vector<Variant> variants = {Variant::SwBarrier,
                                             Variant::HwBarrier,
                                             Variant::HomogBarrier};
            if (s.comp)
                variants.push_back(Variant::HwBarrierComp);
            for (Variant v : variants) {
                for (unsigned p : {8u, 16u}) {
                    spec.variant = v;
                    spec.threads = p;
                    addJob(jobs, info, spec);
                }
            }
        }
    }
    return jobs;
}

/** Iteration-boosted long regions, run under the default SMARTS
 *  schedule (the one REMAP_SAMPLE=1 selects). */
std::vector<Job>
sampledJobs()
{
    struct Case
    {
        const char *name;
        Variant variant;
        unsigned size, threads, iterations;
    };
    const Case cases[] = {
        {"hmmer", Variant::Seq, 0, 1, 400},
        {"gsmtoast", Variant::Comp, 0, 1, 150},
        {"adpcm", Variant::Comp, 0, 1, 60000},
        {"ll3", Variant::HwBarrier, 1024, 8, 300},
        {"adpcm", Variant::CompComm, 0, 1, 60000},
        {"hmmer", Variant::CompComm, 0, 1, 60},
    };
    std::vector<Job> jobs;
    for (const Case &c : cases) {
        RunSpec spec;
        spec.variant = c.variant;
        spec.problemSize = c.size;
        spec.threads = c.threads;
        spec.iterations = c.iterations;
        spec.sample = sampling::SampleParams::defaults();
        addJob(jobs, workloads::byName(c.name), spec);
    }
    return jobs;
}

// ------------------------------------------------------------------ //
// Bookkeeping
// ------------------------------------------------------------------ //

/** Operations attempted and failed; every failure is logged. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failures that are estimate-coverage misses, not wrong
     *  outputs (see README: "correct"). */
    std::uint64_t coverageMisses = 0;

    void
    op(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "simbench: FAILED %s\n", what.c_str());
        }
    }
};

/** Fastest observed time of each timed unit: unit @p part of job
 *  @p job (a whole warm or sampled job is its part 0). */
struct BestTimes
{
    std::vector<std::vector<double>> best;
    /** Sum of the unit times noted in the current round. */
    double roundTotal = 0.0;

    void
    note(std::size_t job, std::size_t part, double s)
    {
        roundTotal += s;
        if (job >= best.size())
            best.resize(job + 1);
        std::vector<double> &b = best[job];
        if (part >= b.size())
            b.resize(part + 1, std::numeric_limits<double>::infinity());
        b[part] = std::min(b[part], s);
    }

    double
    sum() const
    {
        double t = 0.0;
        for (const std::vector<double> &job : best)
            for (double s : job)
                t += s;
        return t;
    }
};

/** Bit-exact equality of the outputs a figure uses. */
bool
sameResult(const RegionResult &a, const RegionResult &b)
{
    return a.cycles == b.cycles && a.insts == b.insts &&
           a.energyJ == b.energyJ && a.work == b.work &&
           a.sampled == b.sampled &&
           a.sampleWindows == b.sampleWindows &&
           a.ciLowCycles == b.ciLowCycles &&
           a.ciHighCycles == b.ciHighCycles;
}

/** Deterministic order of the jobs in one round. */
std::vector<std::size_t>
roundOrder(std::size_t n, std::uint64_t seed, unsigned round)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + round + 1;
    auto next = [&x] {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[next() % i]);
    return order;
}

/** Clear every REMAP_* variable: each one changes the simulated
 *  path, its timing, or what the run writes. */
void
scrubEnvironment()
{
    std::vector<std::string> seen;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "REMAP_", 6) == 0)
            seen.emplace_back(*e, std::strcspn(*e, "="));
    for (const std::string &name : seen) {
        std::fprintf(stderr, "simbench: clearing %s\n", name.c_str());
        unsetenv(name.c_str());
    }
}

/** Scoped REMAP_PROFILE=1: Systems built inside profile themselves
 *  (how runRegions-driven runs are traced). */
class ProfileEnv
{
  public:
    explicit ProfileEnv(bool on) : on_(on)
    {
        if (on_)
            setenv("REMAP_PROFILE", "1", 1);
    }
    ~ProfileEnv()
    {
        if (on_)
            unsetenv("REMAP_PROFILE");
    }
    ProfileEnv(const ProfileEnv &) = delete;
    ProfileEnv &operator=(const ProfileEnv &) = delete;

  private:
    bool on_;
};

double
peakRssMiB()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** Named per-layer values of the traced run. */
using Layers = std::map<std::string, double>;

double
numAt(const json::Value &v, const char *key)
{
    return v.has(key) && v.at(key).isNumber() ? v.at(key).num : 0.0;
}

/** Add one finished System's stats-dump counters and profile to
 *  @p L (the cpu, mem, spl and core layers). */
void
addSystemLayers(sys::System &system, double run_s, Layers &L)
{
    std::ostringstream os;
    system.dumpStatsJson(os);
    json::Value d;
    if (!json::parse(os.str(), d))
        return;
    for (const auto &[name, g] : d.at("groups").obj) {
        L["cpu.committed_insts"] += numAt(g, "committed_insts");
        L["spl.initiations"] += numAt(g, "initiations");
        L["spl.barrier_ops"] += numAt(g, "barrier_ops");
        L["spl.rr_conflicts"] += numAt(g, "rr_conflicts");
        L["spl.virtualized_inits"] += numAt(g, "virtualized_inits");
        L["mem.bus_transactions"] += numAt(g, "bus_transactions");
        L["mem.snoop_invalidations"] +=
            numAt(g, "snoop_invalidations");
        if (name.ends_with(".l1i") || name.ends_with(".l1d"))
            L["mem.l1_misses"] += numAt(g, "misses");
        if (g.has("hits"))
            L["mem.cache_lookups"] +=
                numAt(g, "hits") + numAt(g, "misses");
    }
    const json::Value &sim = d.at("sim");
    for (const auto &[name, g] : sim.at("groups").obj) {
        L["cpu.fused_insts"] += numAt(g, "block_fused_insts");
        L["cpu.generic_insts"] += numAt(g, "block_generic_insts");
        L["cpu.rob_walk_skips"] +=
            numAt(g, "rob_wb_skips") + numAt(g, "rob_issue_skips");
        L["mem.mru_hits"] += numAt(g, "mru_hits");
    }
    const double skipped = numAt(sim.at("leap"), "skipped_cycles");
    L["core.sim_cycles"] += static_cast<double>(system.now());
    L["core.leap_skipped_cycles"] += skipped;
    L["core.ticked_cycles"] +=
        static_cast<double>(system.now()) - skipped;
    L["core.run_s"] += run_s;

    if (const prof::Profiler *p = system.profiler()) {
        auto s = [p](prof::Phase ph) {
            return static_cast<double>(p->totalNs(ph).value()) / 1e9;
        };
        using prof::Phase;
        L["cpu.fetch_decode_s"] += s(Phase::FetchDecode);
        L["cpu.issue_execute_s"] += s(Phase::IssueExecute);
        L["cpu.writeback_commit_s"] += s(Phase::WritebackCommit);
        L["mem.cache_access_s"] += s(Phase::CacheAccess);
        L["mem.accesses"] += static_cast<double>(
            p->count(Phase::CacheAccess).value());
        L["spl.fabric_tick_s"] += s(Phase::FabricTick);
        L["spl.barrier_s"] += s(Phase::Barrier);
        L["core.leap_scan_s"] += s(Phase::LeapScan);
        // Host time of the run outside every detailed-mode phase.
        L["core.untimed_s"] +=
            run_s - s(Phase::FetchDecode) - s(Phase::IssueExecute) -
            s(Phase::WritebackCommit) - s(Phase::FabricTick) -
            s(Phase::LeapScan);
    }
}

/** Milliseconds of @p phase in a runRegions result's profile. */
double
phaseS(const RegionResult &r, prof::Phase phase)
{
    for (const auto &[name, ms] : r.hostPhaseMs)
        if (name == prof::phaseName(phase))
            return ms / 1e3;
    return 0.0;
}

/** Sum of the top-level (non-nested) profiled phases of @p r. */
double
topLevelPhaseS(const RegionResult &r)
{
    using prof::Phase;
    return phaseS(r, Phase::FetchDecode) +
           phaseS(r, Phase::IssueExecute) +
           phaseS(r, Phase::WritebackCommit) +
           phaseS(r, Phase::FabricTick) + phaseS(r, Phase::LeapScan) +
           phaseS(r, Phase::SnapshotSave) +
           phaseS(r, Phase::SnapshotRestore);
}

// ------------------------------------------------------------------ //
// The benchmark
// ------------------------------------------------------------------ //

class Bench
{
  public:
    Bench(std::vector<Job> jobs, bool sampled)
        : jobs_(std::move(jobs)), sampled_(sampled),
          cache_(harness::SnapshotCache::instance())
    {
    }

    Ledger ledger;
    BestTimes cold, warm;
    Layers layers;
    /** Untraced and traced time of one round (trace mode). */
    double roundTime[2] = {0.0, 0.0};

    /** Untimed reference results every later run is checked
     *  against; leaves the warm-start cache primed for exact jobs. */
    void
    prepare(bool traced)
    {
        cache_.setEnabled(true);
        cache_.clear();
        refs_.assign(jobs_.size(), RegionResult{});
        if (!sampled_) {
            // The figure sweeps' path: every job through runRegions
            // with an empty cache. It verifies golden outputs (fatal
            // on mismatch) and stores warm-start snapshots.
            std::vector<RegionJob> all;
            for (const Job &j : jobs_)
                all.push_back(j.region);
            ProfileEnv env(traced);
            refs_ = harness::runRegions(all, model_, &pool_);
            for (const RegionResult &r : refs_)
                layers["sim.snapshot_save_s"] +=
                    phaseS(r, prof::Phase::SnapshotSave);
            const auto st = cache_.stats();
            layers["sim.snapshot_bytes"] +=
                static_cast<double>(st.bytes + st.windowBytes);
            return;
        }
        // Sampled jobs: the exact run their interval must cover.
        exact_.assign(jobs_.size(), ExactRun{});
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            RunSpec spec = jobs_[i].region.spec;
            spec.sample = {};
            workloads::PreparedRun run =
                jobs_[i].region.info->make(spec);
            const sys::RunResult r = run.run(kMaxCycles);
            exact_[i].cycles = r.cycles;
            exact_[i].insts = run.system->totalCommittedInsts();
            exact_[i].golden = !r.timedOut &&
                               (!run.verify || run.verify());
        }
    }

    /** One round over every job in @p order, then the per-round
     *  cross-job checks. */
    void
    round(const std::vector<std::size_t> &order, bool traced,
          bool timed)
    {
        const auto t0 = Clock::now();
        probeS_ = 0.0;
        std::vector<RegionResult> coldRes(jobs_.size());
        for (std::size_t i : order) {
            if (sampled_) {
                coldRes[i] = coldSampled(i, traced, timed);
                warmUnit(i, coldRes[i], traced, timed);
            } else {
                coldRes[i] = coldExact(i, traced, timed);
                warmUnit(i, refs_[i], traced, timed);
            }
        }
        roundTime[traced ? 1 : 0] += secondsSince(t0) - probeS_;
        if (timed)
            std::fprintf(stderr, "simbench: round: cold %.3f s, warm "
                         "%.3f s\n", cold.roundTotal, warm.roundTotal);
        cold.roundTotal = warm.roundTotal = 0.0;
        interpretChecks(order);
        barrierPairChecks(coldRes);
        if (sampled_)
            coverageChecks(coldRes);
        lastCold_ = std::move(coldRes);
    }

    /** Committed instructions of the whole workload. */
    double
    totalInsts() const
    {
        double n = 0.0;
        for (const RegionResult &r : refs_)
            n += static_cast<double>(r.insts);
        return n;
    }

    void
    writeResults(const std::string &path) const
    {
        std::ofstream f(path);
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            const RegionResult &r = lastCold_[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          " cycles=%llu insts=%llu energy=%a "
                          "ci=[%a,%a] windows=%llu\n",
                          static_cast<unsigned long long>(r.cycles),
                          static_cast<unsigned long long>(r.insts),
                          r.energyJ, r.ciLowCycles, r.ciHighCycles,
                          static_cast<unsigned long long>(
                              r.sampleWindows));
            f << jobs_[i].label << buf;
        }
    }

    /** Per-job results and best unit times, for the log. */
    void
    printTable() const
    {
        auto ms = [](const BestTimes &t, std::size_t i) {
            double s = 0.0;
            if (i < t.best.size())
                for (double p : t.best[i])
                    s += p;
            return s * 1e3;
        };
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            const RegionResult &r = lastCold_[i];
            std::fprintf(stderr,
                         "simbench: %-28s cycles=%-9llu insts=%-9llu "
                         "windows=%-4llu cold=%.1fms warm=%.1fms\n",
                         jobs_[i].label.c_str(),
                         static_cast<unsigned long long>(r.cycles),
                         static_cast<unsigned long long>(r.insts),
                         static_cast<unsigned long long>(
                             r.sampleWindows),
                         ms(cold, i), ms(warm, i));
        }
    }

  private:
    struct ExactRun
    {
        Cycle cycles = 0;
        std::uint64_t insts = 0;
        bool golden = false;
    };

    /** Exact job from a freshly built system to its end, timed per
     *  kSegmentCycles slice; checked against the runRegions result. */
    RegionResult
    coldExact(std::size_t i, bool traced, bool timed)
    {
        const Job &job = jobs_[i];
        workloads::PreparedRun run = job.region.info->make(job.region.spec);
        if (traced)
            run.system->enableProfiling();
        RegionResult res;
        std::size_t seg = 0;
        double run_s = 0.0;
        bool timed_out = true;
        while (timed_out && res.cycles < kMaxCycles) {
            const auto t0 = Clock::now();
            const sys::RunResult r =
                run.system->runSegment(kSegmentCycles);
            const double s = secondsSince(t0);
            run_s += s;
            if (timed && !traced)
                cold.note(i, seg, s);
            ++seg;
            res.cycles += r.cycles;
            timed_out = r.timedOut;
        }
        const auto tv = Clock::now();
        const bool golden = !timed_out && (!run.verify || run.verify());
        const double verify_s = secondsSince(tv);
        fill(run, job.region.spec, res);
        ledger.op(golden && sameResult(res, refs_[i]),
                  "cold " + job.label + " (golden output, or cycles/"
                  "insts/energy differ from runRegions)");
        if (traced) {
            addSystemLayers(*run.system, run_s, layers);
            layers["workloads.verify_s"] += verify_s;
        }
        return res;
    }

    /** Sampled job through runRegions with an empty cache. */
    RegionResult
    coldSampled(std::size_t i, bool traced, bool timed)
    {
        const Job &job = jobs_[i];
        cache_.clear();
        ProfileEnv env(traced);
        const auto t0 = Clock::now();
        const RegionResult res =
            harness::runRegions({job.region}, model_, &pool_)[0];
        const double s = secondsSince(t0);
        if (timed && !traced)
            cold.note(i, 0, s);
        if (!refSet_[i]) {
            refs_[i] = res;
            refSet_[i] = true;
        }
        // A traced round also checks the directly driven runSampled()
        // inside this same operation, so every round of a run counts
        // the same operations, traced or not.
        ledger.op(res.sampled && !res.warmStarted &&
                      sameResult(res, refs_[i]) &&
                      (!traced || sampledProbe(i, res)),
                  "cold sampled " + job.label +
                      " (not sampled, differs from the first run, or "
                      "from the traced runSampled)");
        if (traced) {
            layers["sim.snapshot_save_s"] +=
                phaseS(res, prof::Phase::SnapshotSave);
            layers["sim.warmed_insts"] +=
                static_cast<double>(res.warmedInsts);
            layers["sim.sample_windows"] +=
                static_cast<double>(res.sampleWindows);
            const auto st = cache_.stats();
            layers["sim.snapshot_bytes"] +=
                static_cast<double>(st.bytes + st.windowBytes);
        }
        return res;
    }

    /** The job again through runRegions, served from the cache
     *  (warm start for exact jobs, window replay for sampled ones). */
    void
    warmUnit(std::size_t i, const RegionResult &ref, bool traced,
             bool timed)
    {
        const Job &job = jobs_[i];
        const auto before = cache_.stats();
        ProfileEnv env(traced);
        const auto t0 = Clock::now();
        const RegionResult res =
            harness::runRegions({job.region}, model_, &pool_)[0];
        const double s = secondsSince(t0);
        if (timed && !traced)
            warm.note(i, 0, s);
        ledger.op(sameResult(res, ref) &&
                      (!sampled_ || res.sampleReplayed),
                  "warm " + job.label +
                      " (differs from cold, or not replayed)");
        if (traced) {
            const auto after = cache_.stats();
            layers["harness.cache_hits"] +=
                static_cast<double>(after.hits - before.hits);
            layers["harness.cache_misses"] +=
                static_cast<double>(after.misses - before.misses);
            layers["harness.warm_started_jobs"] += res.warmStarted;
            layers["harness.replayed_windows"] +=
                static_cast<double>(res.replayedWindows);
            layers["sim.snapshot_restore_s"] +=
                phaseS(res, prof::Phase::SnapshotRestore);
            layers["harness.job_overhead_s"] += s - topLevelPhaseS(res);
        }
    }

    /** Traced counters of a sampled job that runRegions does not
     *  expose: the same run driven directly through runSampled.
     *  True when it matches the runRegions result. */
    bool
    sampledProbe(std::size_t i, const RegionResult &cold_res)
    {
        const auto start = Clock::now();
        const Job &job = jobs_[i];
        workloads::PreparedRun run = job.region.info->make(job.region.spec);
        run.system->enableProfiling();
        run.system->setSampleParams(job.region.spec.sample);
        const auto t0 = Clock::now();
        const sys::RunResult r = run.system->runSampled(kMaxCycles);
        const double run_s = secondsSince(t0);
        const auto tv = Clock::now();
        const bool golden = !r.timedOut && (!run.verify || run.verify());
        layers["workloads.verify_s"] += secondsSince(tv);
        const sampling::Estimate e = run.system->sampleEstimate();
        const Cycle cycles = e.sampled
                                 ? static_cast<Cycle>(e.estCycles + 0.5)
                                 : run.system->now();
        const double before = layers["core.untimed_s"];
        addSystemLayers(*run.system, run_s, layers);
        // In a sampled run the time outside the detailed phases is
        // functional warming (plus the run loop around it).
        layers["sim.warming_s"] += layers["core.untimed_s"] - before;
        probeS_ += secondsSince(start);
        return golden && cycles == cold_res.cycles &&
               run.system->totalCommittedInsts() == cold_res.insts;
    }

    /** Seq/SeqOOO2 jobs: the ISA reference interpreter on a freshly
     *  prepared copy commits the same instructions and passes the
     *  same golden check. */
    void
    interpretChecks(const std::vector<std::size_t> &order)
    {
        for (std::size_t i : order) {
            const RunSpec &spec = jobs_[i].region.spec;
            if (spec.variant != Variant::Seq &&
                spec.variant != Variant::SeqOoo2)
                continue;
            RunSpec exact = spec;
            exact.sample = {};
            workloads::PreparedRun run =
                jobs_[i].region.info->make(exact);
            const isa::InterpResult r =
                isa::interpret(*run.system->thread(0).program,
                               run.system->memory(), kInterpSteps);
            ledger.op(r.halted && r.instructions == refs_[i].insts &&
                          (!run.verify || run.verify()),
                      "isa::interpret " + jobs_[i].label +
                          " (instruction count or golden output)");
        }
    }

    /** ReMAP-barrier and homogeneous-barrier jobs of one size and
     *  thread count commit equal instruction counts although their
     *  timing differs (neither spins), and fewer than the spinning
     *  software barrier. */
    void
    barrierPairChecks(const std::vector<RegionResult> &res)
    {
        for (std::size_t h = 0; h < jobs_.size(); ++h) {
            const RegionJob &hw = jobs_[h].region;
            if (hw.spec.variant != Variant::HwBarrier || sampled_)
                continue;
            const RegionResult *homog = nullptr, *sw = nullptr;
            for (std::size_t k = 0; k < jobs_.size(); ++k) {
                const RegionJob &o = jobs_[k].region;
                if (o.info != hw.info ||
                    o.spec.problemSize != hw.spec.problemSize ||
                    o.spec.threads != hw.spec.threads)
                    continue;
                if (o.spec.variant == Variant::HomogBarrier)
                    homog = &res[k];
                if (o.spec.variant == Variant::SwBarrier)
                    sw = &res[k];
            }
            if (!homog || !sw)
                continue;
            ledger.op(homog->insts == res[h].insts &&
                          res[h].insts < sw->insts,
                      "barrier pair " + jobs_[h].label +
                          " (HW and homogeneous barrier instruction "
                          "counts differ, or not below SW barrier)");
        }
    }

    /** The exact run lies inside each sampled job's 95% interval and
     *  commits the same instructions. */
    void
    coverageChecks(const std::vector<RegionResult> &res)
    {
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            const ExactRun &x = exact_[i];
            ledger.op(x.golden && x.insts == res[i].insts,
                      "exact run of " + jobs_[i].label +
                          " (golden output or instruction count)");
            if (res[i].sampleWindows < kMinCiWindows)
                continue;
            const double c = static_cast<double>(x.cycles);
            const bool inside =
                res[i].ciLowCycles <= c && c <= res[i].ciHighCycles;
            if (!inside)
                ++ledger.coverageMisses;
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          " (exact %llu cycles outside [%.0f, %.0f])",
                          static_cast<unsigned long long>(x.cycles),
                          res[i].ciLowCycles, res[i].ciHighCycles);
            ledger.op(inside, "95% interval of " + jobs_[i].label + buf);
        }
    }

    /** Instructions, energy and work of a finished exact run, the
     *  way runRegion computes them. */
    void
    fill(workloads::PreparedRun &run, const RunSpec &spec,
         RegionResult &res)
    {
        const unsigned copies = std::max(1u, spec.copies);
        res.insts = run.system->totalCommittedInsts();
        res.energyJ = run.system
                          ->measureEnergy(model_, res.cycles,
                                          /*include_idle_cores=*/false)
                          .totalJ() /
                      copies;
        res.work = run.workUnits / copies;
    }

    std::vector<Job> jobs_;
    bool sampled_;
    harness::SnapshotCache &cache_;
    power::EnergyModel model_;
    harness::JobPool pool_{1};
    std::vector<RegionResult> refs_;
    std::vector<bool> refSet_ = std::vector<bool>(jobs_.size(), false);
    std::vector<ExactRun> exact_;
    std::vector<RegionResult> lastCold_;
    /** Host time of this round's sampledProbe runs, which the round's
     *  traced-overhead figure leaves out. */
    double probeS_ = 0.0;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string results;
    /** Child mode: build every job's system once, print the seconds
     *  since the process start and exit. */
    bool setupOnly = false;
};

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            o.workload = v;
        } else if (k == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                return false;
        } else if (k == "--results") {
            o.results = v;
        } else if (k == "--setup-only") {
            o.setupOnly = v == "1";
            if (v != "0" && v != "1")
                return false;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return argc % 2 == 1 && !o.workload.empty();
}

/** One cold set-up in a fresh process: this program run with
 *  --setup-only. Returns the seconds it reports, or -1 if it fails. */
double
childSetupS(const std::string &workload)
{
    int fd[2];
    if (pipe2(fd, O_CLOEXEC) != 0)
        return -1.0;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fd[1], STDOUT_FILENO);
    std::string w = workload;
    std::string a0 = "simbench", a1 = "--workload", a3 = "--setup-only",
                a4 = "1";
    char *args[] = {a0.data(), a1.data(), w.data(), a3.data(), a4.data(),
                    nullptr};
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, args, environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fd[1]);
    std::string out;
    char buf[256];
    ssize_t n;
    while (rc == 0 && (n = read(fd[0], buf, sizeof buf)) != 0) {
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        else if (errno != EINTR)
            break;
    }
    close(fd[0]);
    int status = 0;
    if (rc != 0)
        return -1.0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            return -1.0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return -1.0;
    char *end = nullptr;
    const double s = std::strtod(out.c_str(), &end);
    return end != out.c_str() ? s : -1.0;
}

void
printMetric(std::string &out, const std::string &name, double value,
            const char *unit)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.empty() ? "" : ", ", name.c_str(), value, unit);
    out += buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = processStart;
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: simbench --workload regions|barriers|"
                     "sampled --seed N --seconds S --trace 0|1 "
                     "[--results FILE]\n");
        return 2;
    }
    scrubEnvironment();

    std::vector<Job> jobs;
    double round_s = 0.0; // nominal length of one timed round
    if (opt.workload == "regions") {
        jobs = regionsJobs();
        round_s = 14.0;
    } else if (opt.workload == "barriers") {
        jobs = barriersJobs();
        round_s = 8.0;
    } else if (opt.workload == "sampled") {
        jobs = sampledJobs();
        round_s = 1.0;
    } else {
        std::fprintf(stderr, "simbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    // Set-up, timed from the process start: build every job's
    // system once. A --setup-only child stops here.
    double make_s = 0.0;
    for (const Job &j : jobs) {
        const auto t0 = Clock::now();
        workloads::PreparedRun run = j.region.info->make(j.region.spec);
        make_s += secondsSince(t0);
    }
    std::vector<double> setups = {secondsSince(start)};
    if (opt.setupOnly) {
        std::printf("%.17g\n", setups[0]);
        return 0;
    }

    const bool sampled = opt.workload == "sampled";
    const std::size_t njobs = jobs.size();
    Bench bench(std::move(jobs), sampled);
    bench.prepare(opt.trace);

    unsigned rounds = 0;
    if (opt.trace) {
        // One untraced and one traced round of the same units.
        bench.round(roundOrder(njobs, opt.seed, 0), false, false);
        bench.round(roundOrder(njobs, opt.seed, 1), true, false);
        rounds = 2;
    } else {
        const double want = std::ceil(opt.seconds / round_s);
        rounds = static_cast<unsigned>(std::clamp(
            want, double(kMinRounds), double(kMaxRounds)));
        // The other cold set-ups run in fresh processes, spread over
        // the run like the timed rounds: evenly before the first
        // round and after each one.
        unsigned slot = 0;
        auto more_setups = [&] {
            ++slot;
            const std::size_t due =
                1 + (kSetupSamples - 1) * slot / (rounds + 1);
            while (setups.size() < due) {
                const double s = childSetupS(opt.workload);
                if (!(s > 0.0)) {
                    std::fprintf(stderr, "simbench: a --setup-only "
                                         "process failed\n");
                    std::exit(1);
                }
                setups.push_back(s);
            }
        };
        more_setups();
        for (unsigned r = 0; r < rounds; ++r) {
            bench.round(roundOrder(njobs, opt.seed, r), false, true);
            more_setups();
        }
    }
    bench.printTable();
    if (!opt.results.empty())
        bench.writeResults(opt.results);

    std::string metrics;
    if (opt.trace) {
        Layers L = bench.layers;
        L["workloads.make_s"] = make_s;
        L["workloads.jobs"] = static_cast<double>(njobs);
        L["sim.detailed_insts"] =
            L["cpu.committed_insts"] - L["sim.warmed_insts"];
        const double core_s = L["cpu.fetch_decode_s"] +
                              L["cpu.issue_execute_s"] +
                              L["cpu.writeback_commit_s"];
        auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        L["cpu.ns_per_inst"] = ratio(core_s * 1e9, L["sim.detailed_insts"]);
        L["mem.ns_per_access"] =
            ratio(L["mem.cache_access_s"] * 1e9, L["mem.accesses"]);
        L["mem.mru_hit_ratio"] =
            ratio(L["mem.mru_hits"], L["mem.cache_lookups"]);
        L["spl.ns_per_initiation"] =
            ratio(L["spl.fabric_tick_s"] * 1e9, L["spl.initiations"]);
        L["trace.overhead_ratio"] =
            ratio(bench.roundTime[1], bench.roundTime[0]);
        const std::pair<const char *, const char *> names[] = {
            {"cpu.fetch_decode_s", "s"}, {"cpu.issue_execute_s", "s"},
            {"cpu.writeback_commit_s", "s"}, {"cpu.ns_per_inst", "ns"},
            {"cpu.committed_insts", "count"},
            {"cpu.fused_insts", "count"},
            {"cpu.generic_insts", "count"},
            {"cpu.rob_walk_skips", "count"},
            {"mem.cache_access_s", "s"}, {"mem.ns_per_access", "ns"},
            {"mem.accesses", "count"}, {"mem.l1_misses", "count"},
            {"mem.bus_transactions", "count"},
            {"mem.snoop_invalidations", "count"},
            {"mem.mru_hit_ratio", "ratio"},
            {"spl.fabric_tick_s", "s"},
            {"spl.ns_per_initiation", "ns"},
            {"spl.initiations", "count"}, {"spl.barrier_s", "s"},
            {"spl.barrier_ops", "count"},
            {"spl.rr_conflicts", "count"},
            {"spl.virtualized_inits", "count"},
            {"core.run_s", "s"}, {"core.sim_cycles", "count"},
            {"core.ticked_cycles", "count"},
            {"core.leap_skipped_cycles", "count"},
            {"core.leap_scan_s", "s"},
            {"sim.warmed_insts", "count"},
            {"sim.detailed_insts", "count"},
            {"sim.sample_windows", "count"}, {"sim.warming_s", "s"},
            {"sim.snapshot_save_s", "s"},
            {"sim.snapshot_restore_s", "s"},
            {"sim.snapshot_bytes", "bytes"},
            {"harness.cache_hits", "count"},
            {"harness.cache_misses", "count"},
            {"harness.warm_started_jobs", "count"},
            {"harness.replayed_windows", "count"},
            {"harness.job_overhead_s", "s"},
            {"workloads.make_s", "s"}, {"workloads.verify_s", "s"},
            {"workloads.jobs", "count"},
            {"trace.overhead_ratio", "ratio"}};
        for (const auto &[name, unit] : names)
            printMetric(metrics, name, L[name], unit);
    } else {
        const double cold_s = bench.cold.sum();
        printMetric(metrics, "cold_s", cold_s, "s");
        printMetric(metrics, "warm_s", bench.warm.sum(), "s");
        printMetric(metrics, "sim_mips",
                    bench.totalInsts() / cold_s / 1e6, "Minst/s");
        std::vector<double> sorted = setups;
        std::sort(sorted.begin(), sorted.end());
        std::fprintf(stderr,
                     "simbench: set-up: fastest %.4f s of %zu cold "
                     "processes, median %.4f s, this process %.4f s\n",
                     sorted.front(), sorted.size(),
                     sorted[sorted.size() / 2], setups[0]);
        printMetric(metrics, "setup_s", sorted.front(), "s");
        printMetric(metrics, "peak_rss_mb", peakRssMiB(), "MiB");
    }
    std::fprintf(stderr, "simbench: %u rounds, %.1f s\n", rounds,
                 secondsSince(start));

    const Ledger &led = bench.ledger;
    // Coverage misses are estimator bias, not wrong outputs: they
    // count as failed operations but leave "correct" true.
    const bool correct = led.failed == led.coverageMisses;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(led.attempted),
                static_cast<unsigned long long>(led.failed),
                metrics.c_str());
    return 0;
}
