// live-serve and durable-restart: a seeded SocialNetwork span stream
// pushed by two persistent producer threads into OnlineService::ingest,
// with the main thread polling at every 250 ms of event time.

#include <malloc.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>

#include "chaos/fault.h"
#include "eval/harness.h"
#include "online/live_source.h"
#include "sim/simulator.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads.h"

namespace sleuthbench {

using sleuth::online::Incident;
using sleuth::online::OnlineService;
using sleuth::online::SpanEvent;

namespace {

// Stream make-up (README "Inputs"). Fault phases start off the poll
// grid, last kFaultUs, and are kCycleUs apart, which leaves the 4 s
// detection window time to clear before the next phase.
constexpr size_t kPhases = 8;
constexpr int64_t kFirstFaultUs = 4'000'000;
constexpr int64_t kFaultUs = 3'000'000;
constexpr int64_t kCycleUs = 9'000'000;
constexpr int64_t kTailUs = 8'000'000;
constexpr double kRatePerSec = 400.0;
constexpr int64_t kJitterUs = 20'000;
constexpr double kDuplicateProb = 0.02;
constexpr int64_t kPollUs = 250'000;
constexpr size_t kProducers = 2;
constexpr size_t kMinRounds = 4;
// The tail percentile: 313 polls leave 15.6 beyond it.
constexpr double kTailQuantile = 0.95;
constexpr size_t kRestartsPerRound = 10;
// One per durable round: a recovery costs about a fifth of the round,
// and a second one would leave fewer rounds, so fewer repeats of every
// poll, in a run.
constexpr size_t kDurableRestartsPerRound = 1;
// A phase's fault plan is accepted when this share of requests
// simulated under it violates its SLO: strong enough to open an
// incident, and of similar strength across phases and seeds.
constexpr double kMinViolation = 0.5;
constexpr double kMaxViolation = 0.65;

struct Fixture
{
    sleuth::synth::AppConfig app;
    sleuth::sim::ClusterModel cluster;
    std::vector<sleuth::trace::Trace> corpus;
};

Fixture
makeFixture()
{
    sleuth::synth::AppConfig app =
        sleuth::eval::makeApp(sleuth::eval::BenchmarkApp::SocialNet);
    sleuth::sim::ClusterModel cluster(app, 12, 7);
    sleuth::sim::Simulator::calibrateSlos(app, cluster, 300, 99.0, 7);
    Fixture f{std::move(app), std::move(cluster), {}};
    sleuth::sim::Simulator warmup(f.app, f.cluster, {.seed = 0x9a17});
    for (size_t i = 0; i < 400; ++i)
        f.corpus.push_back(warmup.simulateOne().trace);
    return f;
}

const std::string &
serviceName(const sleuth::synth::AppConfig &app, int serviceId)
{
    return app.services[static_cast<size_t>(serviceId)].name;
}

/** Services whose RPCs call an RPC of the given service. */
std::set<std::string>
callersOf(const sleuth::synth::AppConfig &app, int serviceId)
{
    std::set<std::string> out;
    for (const sleuth::synth::FlowConfig &flow : app.flows)
        for (const sleuth::synth::CallNode &node : flow.nodes)
            for (int child : node.children) {
                const sleuth::synth::CallNode &c =
                    flow.nodes[static_cast<size_t>(child)];
                int callee =
                    app.rpcs[static_cast<size_t>(c.rpcId)].serviceId;
                int caller =
                    app.rpcs[static_cast<size_t>(node.rpcId)].serviceId;
                if (callee == serviceId && caller != serviceId)
                    out.insert(serviceName(app, caller));
            }
    return out;
}

/**
 * The fault phases, each validated to be of similar strength. They are
 * part of the workload, the same for every seed: the seed draws the
 * requests, so that a seed's phase mix does not move the metrics.
 */
std::vector<std::pair<sleuth::chaos::FaultPhase, PhaseTruth>>
makePhases(const Fixture &f)
{
    std::vector<std::pair<sleuth::chaos::FaultPhase, PhaseTruth>> out;
    sleuth::util::Rng rng(0xc4a05u);
    int64_t start = kFirstFaultUs;
    for (size_t p = 0; p < kPhases; ++p) {
        // Off-grid phase start, so detection delays are continuous.
        int64_t offset = rng.uniformInt(1'000, 249'000);
        sleuth::chaos::FaultPlan plan;
        for (uint64_t tries = 0;; ++tries) {
            sleuth::util::Rng prng = rng.fork(p * 1000 + tries);
            plan = sleuth::chaos::planFixedFaults(
                f.cluster.allInstances(), 2,
                sleuth::chaos::FaultScope::Container, {}, prng);
            sleuth::sim::Simulator probe(
                f.app, f.cluster, {.seed = 7919 + p * 1000 + tries},
                plan);
            size_t violating = 0;
            const size_t n = 200;
            for (size_t i = 0; i < n; ++i) {
                sleuth::sim::SimResult r = probe.simulateOne();
                if (r.violatesSlo(
                        f.app.flows[static_cast<size_t>(r.flowIndex)].sloUs))
                    ++violating;
            }
            double share = static_cast<double>(violating) / n;
            if (share >= kMinViolation && share <= kMaxViolation)
                break;
        }
        PhaseTruth truth;
        truth.startUs = start + offset;
        truth.endUs = truth.startUs + kFaultUs;
        for (const sleuth::chaos::FaultSpec &fs : plan.faults) {
            for (const sleuth::chaos::Instance &inst :
                 f.cluster.allInstances()) {
                if (inst.container != fs.target)
                    continue;
                truth.services.insert(serviceName(f.app, inst.serviceId));
                // A network fault on a container delays or fails the hop
                // to it, which the trace records in the caller's client
                // span: the callers are equally consistent with it.
                if (fs.type == sleuth::chaos::FaultType::NetworkDelay ||
                    fs.type == sleuth::chaos::FaultType::NetworkError)
                    for (const std::string &caller :
                         callersOf(f.app, inst.serviceId))
                        truth.services.insert(caller);
            }
        }
        out.push_back({{truth.startUs, plan}, truth});
        start += kCycleUs;
    }
    return out;
}

Stream
makeStream(const Fixture &f, uint64_t seed)
{
    auto phases = makePhases(f);
    sleuth::chaos::FaultSchedule schedule;
    schedule.phases.push_back({0, {}});
    std::vector<PhaseTruth> truths;
    for (const auto &[phase, truth] : phases) {
        schedule.phases.push_back(phase);
        schedule.phases.push_back({truth.endUs, {}});
        truths.push_back(truth);
    }
    int64_t endUs = truths.back().endUs + kTailUs;

    // Poisson arrivals; each request simulated under the fault plan
    // active at its arrival and shifted onto the arrival timeline.
    sleuth::sim::Simulator sim(f.app, f.cluster, {.seed = seed ^ 0x515u});
    sleuth::util::Rng rng(seed);
    std::vector<sleuth::trace::Trace> traces;
    const sleuth::chaos::FaultPlan *active = nullptr;
    double clock = 0.0;
    for (;;) {
        clock += rng.exponential(kRatePerSec / 1e6);
        int64_t arrival = static_cast<int64_t>(std::llround(clock));
        if (arrival >= endUs)
            break;
        const sleuth::chaos::FaultPlan &plan = schedule.activeAt(arrival);
        if (&plan != active) {
            sim.setFaultPlan(plan);
            active = &plan;
        }
        sleuth::sim::SimResult res = sim.simulateOne();
        for (sleuth::trace::Span &span : res.trace.spans) {
            span.startUs += arrival;
            span.endUs += arrival;
        }
        traces.push_back(std::move(res.trace));
    }
    Stream s = buildStream(std::move(traces), kJitterUs, kDuplicateProb,
                           seed, kPollUs);
    s.truth.phases = std::move(truths);
    return s;
}

/**
 * Persistent producer threads. run() hands each thread a stride of one
 * poll interval's deliveries and returns when all have been ingested,
 * so every delivery of an interval is enqueued before its poll.
 */
class Producers
{
  public:
    explicit Producers(size_t n)
    {
        times_.resize(n);
        for (size_t t = 0; t < n; ++t)
            threads_.emplace_back([this, t, n] { loop(t, n); });
    }

    ~Producers()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    Producers(const Producers &) = delete;
    Producers &operator=(const Producers &) = delete;

    void
    run(OnlineService *svc, std::vector<SpanEvent> *events, size_t begin,
        size_t end)
    {
        std::unique_lock<std::mutex> lock(mu_);
        svc_ = svc;
        events_ = events;
        begin_ = begin;
        end_ = end;
        done_ = 0;
        ++generation_;
        cv_.notify_all();
        done_cv_.wait(lock, [&] { return done_ == threads_.size(); });
    }

    /** Start/end of each thread's last batch. */
    const std::vector<std::pair<Clock::time_point, Clock::time_point>> &
    lastTimes() const
    {
        return times_;
    }

  private:
    void
    loop(size_t t, size_t n)
    {
        uint64_t seen = 0;
        for (;;) {
            OnlineService *svc = nullptr;
            std::vector<SpanEvent> *events = nullptr;
            size_t begin = 0;
            size_t end = 0;
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
                if (stop_)
                    return;
                seen = generation_;
                svc = svc_;
                events = events_;
                begin = begin_;
                end = end_;
            }
            Clock::time_point t0 = Clock::now();
            for (size_t i = begin + t; i < end; i += n)
                svc->ingest(std::move((*events)[i]));
            Clock::time_point t1 = Clock::now();
            {
                std::lock_guard<std::mutex> lock(mu_);
                times_[t] = {t0, t1};
                ++done_;
            }
            done_cv_.notify_one();
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    uint64_t generation_ = 0;
    size_t done_ = 0;
    bool stop_ = false;
    OnlineService *svc_ = nullptr;
    std::vector<SpanEvent> *events_ = nullptr;
    size_t begin_ = 0;
    size_t end_ = 0;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> times_;
    std::vector<std::thread> threads_;
};

/** Checks run after every poll of the (untimed) checking round. */
struct PollChecker
{
    const sleuth::core::SleuthPipeline &reference;
    size_t cursor = 0;
    size_t knownIncidents = 0;
    std::vector<std::string> observed;
    std::string error;

    void
    afterPoll(const OnlineService &svc)
    {
        const sleuth::storage::TraceStore &store = svc.store();
        size_t stored = svc.stats().tracesStored;
        for (; cursor < stored; ++cursor)
            if (store.contains(cursor))
                observed.push_back(store.at(cursor).traceId());
        const std::vector<Incident> &incs = svc.incidents();
        for (; knownIncidents < incs.size(); ++knownIncidents) {
            const Incident &inc = incs[knownIncidents];
            std::vector<int64_t> slos;
            std::vector<sleuth::trace::Trace> snap =
                reconstructSnapshot(store, inc, &slos);
            std::string err;
            if (snap.size() != inc.anomalousTraces.size())
                err = "store-reconstructed snapshot holds " +
                      std::to_string(snap.size()) + " traces, incident " +
                      std::to_string(inc.anomalousTraces.size());
            else
                err = compareAnalysis(inc.rca,
                                      reference.analyze(snap, slos));
            if (!err.empty() && error.empty())
                error = "incident " + std::to_string(inc.id) + ": " + err;
        }
    }
};

struct RoundOut
{
    double loopMs = 0.0;
    /**
     * Wall time of each step of the loop: interval k's ingest plus its
     * poll, and the final drainAll as the last step.
     */
    std::vector<double> stepMs;
    std::vector<double> pollMs;
    /** Wall time of the poll that opened (and analyzed) incident i. */
    std::vector<double> verdictMs;
    uint64_t operations = 0;
};

RoundOut
runRound(const Stream &stream, OnlineService *svc, Producers *producers,
         std::vector<SpanEvent> *events, HeapSampler *heap,
         SpanRecorder *rec, PollChecker *checker)
{
    RoundOut out;
    size_t begin = 0;
    Clock::time_point start = Clock::now();
    for (size_t k = 0; k < stream.pollEnd.size(); ++k) {
        size_t end = stream.pollEnd[k];
        size_t group = rec->newGroup("poll " + std::to_string(k));
        Clock::time_point step0 = Clock::now();
        if (end > begin) {
            producers->run(svc, events, begin, end);
            if (rec->enabled())
                for (const auto &[t0, t1] : producers->lastTimes())
                    rec->record(group, "online", "OnlineService::ingest",
                                t0, t1);
        }
        begin = end;
        size_t before = svc->incidents().size();
        Clock::time_point t0 = Clock::now();
        svc->poll(static_cast<int64_t>(k + 1) * stream.pollIntervalUs);
        Clock::time_point t1 = Clock::now();
        rec->record(group, "online", "OnlineService::poll", t0, t1);
        double ms = msBetween(t0, t1);
        out.stepMs.push_back(msBetween(step0, t1));
        out.pollMs.push_back(ms);
        for (size_t i = before; i < svc->incidents().size(); ++i)
            out.verdictMs.push_back(ms);
        ++out.operations;
        heap->sample();
        if (checker != nullptr)
            checker->afterPoll(*svc);
    }
    size_t before = svc->incidents().size();
    size_t group = rec->newGroup("drain");
    Clock::time_point t0 = Clock::now();
    svc->drainAll(stream.drainUs);
    Clock::time_point t1 = Clock::now();
    rec->record(group, "online", "OnlineService::drainAll", t0, t1);
    for (size_t i = before; i < svc->incidents().size(); ++i)
        out.verdictMs.push_back(msBetween(t0, t1));
    out.stepMs.push_back(msBetween(t0, t1));
    ++out.operations;
    out.loopMs = msBetween(start, t1);
    heap->sample();
    if (checker != nullptr)
        checker->afterPoll(*svc);
    return out;
}

/** Event-time delay from storm onset to the detecting poll. */
std::vector<double>
detectionDelaysMs(const std::vector<Incident> &incidents,
                  const std::vector<PhaseTruth> &phases)
{
    std::vector<double> out;
    for (const Incident &inc : incidents) {
        int64_t phaseStart = INT64_MIN;
        for (const PhaseTruth &p : phases)
            if (p.startUs <= inc.openedAtUs)
                phaseStart = p.startUs;
        int64_t onset = INT64_MAX;
        for (const sleuth::trace::Trace &t : inc.anomalousTraces)
            for (const sleuth::trace::Span &s : t.spans)
                if (s.parentSpanId.empty() && s.startUs >= phaseStart)
                    onset = std::min(onset, s.startUs);
        if (onset == INT64_MAX)
            onset = phaseStart;
        out.push_back(static_cast<double>(inc.openedAtUs - onset) / 1000.0);
    }
    return out;
}

} // namespace

int
runServe(const Args &args, bool durable)
{
    // --- Inputs (untimed): app, healthy corpus, fault phases, stream.
    Fixture fx = makeFixture();
    Stream stream = makeStream(fx, args.seed);
    sleuth::online::OnlineConfig cfg = servingConfig();
    cfg.endpoints = sleuth::online::endpointProfiles(fx.app);
    const std::string dataDir = args.workDir + "/data-" +
                                (durable ? std::string("durable")
                                         : std::string("live")) +
                                "-" + std::to_string(args.seed);
    sleuth::durable::DurableConfig dcfg;
    dcfg.dir = dataDir + "/wal";
    dcfg.fsyncPolicy = sleuth::durable::FsyncPolicy::Group;
    dcfg.snapshotEveryPolls = 64;
    std::fprintf(stderr,
                 "%s: %zu traces, %zu deliveries (%zu duplicates), %zu "
                 "polls, %zu fault phases\n",
                 durable ? "durable-restart" : "live-serve",
                 stream.traces.size(), stream.deliveries.size(),
                 stream.truth.duplicatesInjected, stream.pollEnd.size(),
                 stream.truth.phases.size());

    // --- Set-up (timed once, cold): fit the model and profile, then
    // construct the service of round 0.
    HeapSampler heap;
    Clock::time_point s0 = Clock::now();
    sleuth::eval::SleuthAdapter adapter;
    adapter.fit(fx.corpus);
    auto svc = std::make_unique<OnlineService>(
        adapter.model(), adapter.encoder(), adapter.profile(), cfg);
    double setupS = msSince(s0) / 1000.0;
    const std::string modelText = adapter.model().save().dump();
    const size_t embedDim = adapter.model().config().embedDim;

    SpanRecorder off(false);
    SpanRecorder rec(args.trace);
    Producers producers(kProducers);
    std::string failure;
    auto fail = [&](const std::string &what) {
        if (failure.empty() && !what.empty())
            failure = what;
    };

    // --- Timed rounds. Round 0's outcome is checked below; every later
    // round must reproduce it exactly (the serving path is
    // deterministic at any producer count).
    // Each loop step, poll, verdict poll and restart is timed once per
    // round; the metrics take the fastest repeat of each
    // (fastestRepeats).
    std::vector<std::vector<double>> stepMs(stream.pollEnd.size() + 1);
    std::vector<std::vector<double>> pollMs(stream.pollEnd.size());
    std::vector<std::vector<double>> verdictMs;
    std::vector<double> restartMs;
    std::vector<double> loopUntraced;
    std::vector<double> loopTraced;
    std::vector<Incident> firstIncidents;
    std::string firstPrint;
    uint64_t firstFingerprint = 0;
    std::vector<double> detectMs;
    uint64_t operations = 0;
    Clock::time_point measure0 = Clock::now();
    for (size_t round = 0;
         failure.empty() &&
         anotherRound(round, kMinRounds, measure0, args.seconds);
         ++round) {
        std::vector<SpanEvent> events = materializeEvents(stream);
        if (durable && !freshDir(dcfg.dir)) {
            fail("cannot create data directory " + dcfg.dir);
            break;
        }
        if (round > 0)
            svc = std::make_unique<OnlineService>(
                adapter.model(), adapter.encoder(), adapter.profile(), cfg);
        if (durable) {
            sleuth::online::RecoveryInfo info = svc->enableDurability(dcfg);
            if (!info.ok) {
                fail("enableDurability on a fresh directory: " + info.error);
                break;
            }
        }
        if (round == 0)
            heap.resetBaseline();
        bool traced = args.trace && round % 2 == 1;
        RoundOut r = runRound(stream, svc.get(), &producers, &events, &heap,
                              traced ? &rec : &off, nullptr);
        (traced ? loopTraced : loopUntraced).push_back(r.loopMs);
        std::fprintf(stderr, "round %zu: %.1f ms ingest-and-poll\n", round,
                     r.loopMs);
        operations += r.operations;
        if (!traced) {
            for (size_t k = 0; k < r.stepMs.size() && k < stepMs.size(); ++k)
                stepMs[k].push_back(r.stepMs[k]);
            for (size_t k = 0; k < r.pollMs.size() && k < pollMs.size(); ++k)
                pollMs[k].push_back(r.pollMs[k]);
            verdictMs.resize(std::max(verdictMs.size(), r.verdictMs.size()));
            for (size_t i = 0; i < r.verdictMs.size(); ++i)
                verdictMs[i].push_back(r.verdictMs[i]);
        }
        fail(checkConservation(stream.truth, svc->stats(),
                               svc->backlogSpans()));
        uint64_t liveFingerprint = svc->servingFingerprint();
        if (round == 0) {
            firstIncidents = svc->incidents();
            firstPrint = incidentsFingerprint(firstIncidents);
            firstFingerprint = liveFingerprint;
            detectMs = detectionDelaysMs(firstIncidents, stream.truth.phases);
        } else if (incidentsFingerprint(svc->incidents()) != firstPrint) {
            fail("round " + std::to_string(round) +
                 ": incidents or verdicts differ from round 0");
        } else if (liveFingerprint != firstFingerprint) {
            fail("round " + std::to_string(round) +
                 ": serving state differs from round 0");
        }
        svc.reset();
        events.clear();
        events.shrink_to_fit();
        // Return freed memory to the system, so every round starts from
        // the same allocator state instead of whatever the last left.
        ::malloc_trim(0);

        // Restarts: reload the saved model, rebuild the profile,
        // construct the service, and (durable) recover the directory the
        // round left (after a clean stop, recovery reopens the last
        // segment at its end and leaves the directory's contents as they
        // were).
        for (size_t i = 0;
             i < (durable ? kDurableRestartsPerRound : kRestartsPerRound);
             ++i) {
            // A restarted process starts from fresh pages: hand freed
            // memory back first, so no restart reuses the last one's.
            ::malloc_trim(0);
            Clock::time_point r0 = Clock::now();
            std::unique_ptr<Restarted> fresh =
                reloadModel(modelText, embedDim, fx.corpus);
            OnlineService restarted(fresh->model, fresh->encoder,
                                    fresh->profile, cfg);
            sleuth::online::RecoveryInfo info;
            if (durable)
                info = restarted.enableDurability(dcfg);
            Clock::time_point r1 = Clock::now();
            restartMs.push_back(msBetween(r0, r1));
            if (durable) {
                rec.record(rec.newGroup("restart"), "online",
                           "OnlineService::enableDurability", r0, r1);
                fail(checkRecovery(liveFingerprint,
                                   restarted.servingFingerprint(), info));
            }
        }
    }
    removeDir(dataDir);

    // --- Checking round (untimed): the non-durable service (live-serve
    // on this seed), with the store, snapshot and verdict checks after
    // every poll, then the end-of-stream checks. Round 0 must match it.
    {
        sleuth::core::SleuthPipeline reference(adapter.model(),
                                               adapter.encoder(),
                                               adapter.profile(),
                                               cfg.pipeline);
        PollChecker checker{reference, 0, 0, {}, {}};
        std::vector<SpanEvent> events = materializeEvents(stream);
        OnlineService check(adapter.model(), adapter.encoder(),
                            adapter.profile(), cfg);
        HeapSampler unused;
        runRound(stream, &check, &producers, &events, &unused, &off,
                 &checker);
        fail(checker.error);
        fail(checkConservation(stream.truth, check.stats(),
                               check.backlogSpans()));
        fail(checkStoredOnce(stream.truth.traceIds, checker.observed,
                             check.stats().tracesStored));
        std::string incidentError = checkIncidents(
            check.incidents(), stream.truth.phases, stream.drainUs);
        if (!incidentError.empty()) {
            for (const PhaseTruth &p : stream.truth.phases) {
                std::fprintf(stderr, "phase %.3f-%.3f s:", p.startUs / 1e6,
                             p.endUs / 1e6);
                for (const std::string &svcName : p.services)
                    std::fprintf(stderr, " %s", svcName.c_str());
                std::fprintf(stderr, "\n");
            }
            for (const Incident &inc : check.incidents()) {
                std::fprintf(stderr, "incident %zu opened %.3f s:", inc.id,
                             inc.openedAtUs / 1e6);
                for (const auto &[svcName, votes] : inc.rankedRootCauses)
                    std::fprintf(stderr, " %s(%zu)", svcName.c_str(), votes);
                std::fprintf(stderr, "\n");
            }
        }
        fail(incidentError);
        if (incidentsFingerprint(check.incidents()) != firstPrint)
            fail(std::string("incidents or verdicts differ from ") +
                 (durable ? "the non-durable service" : "round 0"));
    }

    std::vector<Metric> metrics;
    if (!args.trace) {
        std::vector<double> polls = fastestRepeats(pollMs);
        std::vector<double> verdicts = fastestRepeats(verdictMs);
        std::vector<double> onsetToVerdict;
        for (size_t i = 0; i < verdicts.size() && i < detectMs.size(); ++i)
            onsetToVerdict.push_back(detectMs[i] + verdicts[i]);
        double loopMs = 0.0;
        for (double ms : fastestRepeats(stepMs))
            loopMs += ms;
        metrics = {
            {"setup_s", setupS, "s"},
            {"mem_peak_mb", heap.peakAboveBaselineMb(), "MiB"},
            {"op_p50_ms", median(polls), "ms"},
            {"op_tail_ms", quantile(polls, kTailQuantile), "ms"},
            {"spans_per_s",
             static_cast<double>(stream.deliveries.size()) /
                 (loopMs / 1000.0),
             "spans/s"},
            {"verdict_ms", median(verdicts), "ms"},
            {"onset_to_verdict_ms", median(onsetToVerdict), "ms"},
            {"restart_ms", fastest(restartMs), "ms"},
        };
    } else {
        double untraced = median(loopUntraced);
        metrics.push_back(
            {"tracing.overhead_pct",
             untraced > 0.0 ? (median(loopTraced) / untraced - 1.0) * 100.0
                            : 0.0,
             "%"});
        std::vector<StormInput> snapshots;
        for (const Incident &inc : firstIncidents)
            snapshots.push_back({inc.anomalousTraces, inc.slos});
        replayAnalysisLayers(snapshots, adapter.model(), adapter.encoder(),
                             adapter.profile(), cfg.pipeline, &rec,
                             &metrics);
        if (!freshDir(dataDir))
            fail("cannot create data directory " + dataDir);
        replayServingLayers(stream, adapter.model(), adapter.encoder(),
                            adapter.profile(), cfg, dataDir, untraced, &rec,
                            &metrics);
        removeDir(dataDir);
        appendObsHistograms(&metrics);
        if (!writeTrace(rec, args))
            fail("cannot write the trace file");
    }
    if (!failure.empty())
        std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
    printResult(failure.empty(), operations, 0, metrics);
    return failure.empty() ? 0 : 1;
}

} // namespace sleuthbench
