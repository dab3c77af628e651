// storm-rca: distinct anomaly storms on the paper's Synthetic-256 app,
// each simulated under its own container-fault plan and analyzed by
// SleuthPipeline::analyze.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "chaos/fault.h"
#include "eval/harness.h"
#include "online/live_source.h"
#include "sim/simulator.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads.h"

namespace sleuthbench {

namespace {

// Storm make-up (README "Inputs"): storm k has kSizes[k % 3] traces
// and (k / 3) % 3 + 1 container faults, so sizes and fault counts are
// crossed evenly in every run. The tail (kTailQuantile) needs at
// least ten storms beyond it.
constexpr size_t kStorms = 54;
constexpr size_t kSizes[3] = {192, 256, 320};
constexpr size_t kMinRounds = 5;
// The tail percentile: 54 storms leave 10.6 beyond it.
constexpr double kTailQuantile = 0.8;
constexpr size_t kRestartsPerRound = 3;
// A plan is kept when at least this share of its storm's traces are
// touched by the fault (the rest are background SLO misses).
constexpr double kMinTouched = 0.5;
// Share of fault-touched traces whose top verdict service is in the
// ground truth. Measured at 0.76-0.81 over seeds 1-5; a model that
// stopped locating faults scores near 1/64 (random service).
constexpr double kTruthFloor = 0.6;
// Storms replayed as a span stream by the traced serving replay.
constexpr size_t kStreamStorms = 2;
// Threads for input generation and checks (never for timed calls).
constexpr size_t kWorkers = 4;

struct Storm
{
    StormInput input;
    std::vector<std::set<std::string>> truth;
    size_t spans = 0;
};

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
        sleuth::eval::makeApp(sleuth::eval::BenchmarkApp::Syn256, 7);
    sleuth::sim::ClusterModel cluster(app, 100, 7);
    sleuth::sim::Simulator::calibrateSlos(app, cluster, 300, 99.0, 7);
    Fixture f{std::move(app), std::move(cluster), {}};
    sleuth::sim::Simulator warmup(f.app, f.cluster, {.seed = 0x9a17});
    for (size_t i = 0; i < 400; ++i)
        f.corpus.push_back(warmup.simulateOne().trace);
    return f;
}

/**
 * The storms of a seed. Their fault plans are part of the workload, the
 * same for every seed; the seed draws the requests simulated under
 * them, so that a seed's plan mix does not move the metrics.
 */
std::vector<Storm>
makeStorms(const Fixture &f, uint64_t seed)
{
    std::vector<Storm> storms(kStorms);
    const sleuth::util::Rng rng(0x5707u);
    parallelFor(kStorms, kWorkers, [&](size_t k, size_t) {
        const size_t size = kSizes[k % 3];
        const size_t faults = (k / 3) % 3 + 1;
        for (uint64_t tries = 0;; ++tries) {
            sleuth::util::Rng prng = rng.fork(k * 1000 + tries);
            sleuth::chaos::FaultPlan plan = sleuth::chaos::planFixedFaults(
                f.cluster.allInstances(), faults,
                sleuth::chaos::FaultScope::Container, {}, prng);
            sleuth::sim::Simulator sim(
                f.app, f.cluster, {.seed = seed * 104729 + k * 1000 + tries},
                plan);
            Storm s;
            size_t touched = 0;
            size_t attempts = 0;
            // Harvest the SLO-violating traces of the plan; give up on
            // plans whose faults barely touch traffic.
            while (s.input.traces.size() < size && attempts < size * 12) {
                sleuth::sim::SimResult r = sim.simulateOne();
                ++attempts;
                int64_t slo =
                    f.app.flows[static_cast<size_t>(r.flowIndex)].sloUs;
                if (!r.violatesSlo(slo))
                    continue;
                touched += r.faultTouched() ? 1 : 0;
                r.trace.traceId = "s" + std::to_string(k) + "-" +
                                  r.trace.traceId;
                s.spans += r.trace.spans.size();
                s.input.traces.push_back(std::move(r.trace));
                s.input.slos.push_back(slo);
                s.truth.push_back(std::move(r.rootCauseServices));
            }
            if (s.input.traces.size() == size &&
                static_cast<double>(touched) >=
                    kMinTouched * static_cast<double>(size)) {
                storms[k] = std::move(s);
                return;
            }
        }
    });
    return storms;
}

/** The first storms laid out as a 400 req/s span stream. */
Stream
stormStream(const std::vector<Storm> &storms, uint64_t seed)
{
    std::vector<sleuth::trace::Trace> traces;
    for (size_t k = 0; k < kStreamStorms && k < storms.size(); ++k) {
        int64_t base = 2'000'000 + static_cast<int64_t>(k) * 8'000'000;
        for (size_t i = 0; i < storms[k].input.traces.size(); ++i) {
            sleuth::trace::Trace t = storms[k].input.traces[i];
            int64_t rootStart = INT64_MAX;
            for (const sleuth::trace::Span &s : t.spans)
                rootStart = std::min(rootStart, s.startUs);
            int64_t shift = base + static_cast<int64_t>(i) * 2'500 - rootStart;
            for (sleuth::trace::Span &s : t.spans) {
                s.startUs += shift;
                s.endUs += shift;
            }
            traces.push_back(std::move(t));
        }
    }
    return buildStream(std::move(traces), 20'000, 0.02, seed, 250'000);
}

} // namespace

int
runStormRca(const Args &args)
{
    // --- Inputs (untimed).
    Fixture fx = makeFixture();
    std::vector<Storm> storms = makeStorms(fx, args.seed);
    size_t totalTraces = 0;
    for (const Storm &s : storms)
        totalTraces += s.input.traces.size();
    std::fprintf(stderr, "storm-rca: %zu storms, %zu traces\n",
                 storms.size(), totalTraces);

    // --- Set-up (timed once, cold): fit model and profile, construct
    // the pipeline with its defaults.
    HeapSampler heap;
    Clock::time_point s0 = Clock::now();
    sleuth::eval::SleuthAdapter adapter;
    adapter.fit(fx.corpus);
    sleuth::core::PipelineConfig pcfg;
    sleuth::core::SleuthPipeline pipeline(adapter.model(), adapter.encoder(),
                                          adapter.profile(), pcfg);
    double setupS = msSince(s0) / 1000.0;
    const std::string modelText = adapter.model().save().dump();
    const size_t embedDim = adapter.model().config().embedDim;

    std::string failure;
    auto fail = [&](const std::string &what) {
        if (failure.empty() && !what.empty())
            failure = what;
    };

    // --- Timed rounds: every storm analyzed once per round. Round 0's
    // results are checked below; every later round must reproduce them.
    SpanRecorder off(false);
    SpanRecorder rec(args.trace);
    std::vector<sleuth::core::PipelineResult> first;
    // Each storm's analysis and each restart is timed once per round;
    // the metrics take the fastest repeat of each (fastestRepeats).
    std::vector<std::vector<double>> stormMs(storms.size());
    std::vector<double> restartMs;
    std::vector<double> roundUntraced;
    std::vector<double> roundTraced;
    uint64_t operations = 0;
    heap.resetBaseline();
    Clock::time_point measure0 = Clock::now();
    for (size_t round = 0;
         failure.empty() &&
         anotherRound(round, kMinRounds, measure0, args.seconds);
         ++round) {
        bool traced = args.trace && round % 2 == 1;
        SpanRecorder &r = traced ? rec : off;
        double roundMs = 0.0;
        for (size_t k = 0; k < storms.size(); ++k) {
            const StormInput &in = storms[k].input;
            Clock::time_point t0 = Clock::now();
            sleuth::core::PipelineResult got =
                pipeline.analyze(in.traces, in.slos);
            Clock::time_point t1 = Clock::now();
            r.record(r.newGroup("storm " + std::to_string(k)), "core",
                     "SleuthPipeline::analyze", t0, t1);
            double ms = msBetween(t0, t1);
            if (!traced)
                stormMs[k].push_back(ms);
            roundMs += ms;
            ++operations;
            heap.sample();
            if (round == 0) {
                first.push_back(std::move(got));
                continue;
            }
            std::string err = compareAnalysis(got, first[k]);
            if (!err.empty())
                fail("round " + std::to_string(round) + ", storm " +
                     std::to_string(k) + ": " + err);
        }
        (traced ? roundTraced : roundUntraced).push_back(roundMs);
        std::fprintf(stderr, "round %zu: %.1f ms of analysis\n", round,
                     roundMs);

        // Restarts: reload the saved model, rebuild the profile from the
        // normal corpus, construct the pipeline.
        for (size_t i = 0; i < kRestartsPerRound; ++i) {
            // A restarted process starts from fresh pages.
            ::malloc_trim(0);
            Clock::time_point r0 = Clock::now();
            std::unique_ptr<Restarted> fresh =
                reloadModel(modelText, embedDim, fx.corpus);
            sleuth::core::SleuthPipeline restarted(
                fresh->model, fresh->encoder, fresh->profile, pcfg);
            restartMs.push_back(msSince(r0));
        }
    }

    // --- Checks (untimed): matrix against the hash-map Jaccard,
    // evaluation count, verdicts against the reference analysis, and
    // the ground-truth floor.
    std::vector<std::string> errors(first.size());
    std::vector<size_t> touched(first.size(), 0);
    std::vector<double> hitRate(first.size(), 0.0);
    std::vector<std::unique_ptr<sleuth::core::FeatureEncoder>> encoders;
    for (size_t w = 0; w < kWorkers; ++w)
        encoders.push_back(
            std::make_unique<sleuth::core::FeatureEncoder>(embedDim));
    parallelFor(first.size(), kWorkers, [&](size_t k, size_t w) {
        const StormInput &in = storms[k].input;
        AssembledAnalysis ref =
            assembleAnalysis(in.traces, in.slos, adapter.model(),
                             *encoders[w], adapter.profile(), pcfg, false);
        std::string err = checkMatrix(ref.sets, ref.matrix);
        if (err.empty())
            err = checkDistanceEvaluations(first[k].distanceEvaluations,
                                           in.traces.size());
        if (err.empty())
            err = compareAnalysis(first[k], ref.result);
        if (!err.empty())
            errors[k] = "storm " + std::to_string(k) + ": " + err;
        hitRate[k] = truthHitRate(first[k], storms[k].truth, &touched[k]);
    });
    size_t touchedTotal = 0;
    double hitsTotal = 0.0;
    for (size_t k = 0; k < first.size(); ++k) {
        fail(errors[k]);
        touchedTotal += touched[k];
        hitsTotal += hitRate[k] * static_cast<double>(touched[k]);
    }
    if (failure.empty())
        fail(checkTruthFloor(
            touchedTotal > 0 ? hitsTotal / static_cast<double>(touchedTotal)
                             : 0.0,
            touchedTotal, kTruthFloor));
    std::fprintf(stderr, "storm-rca: ground-truth hit rate %.3f over %zu "
                         "fault-touched traces\n",
                 touchedTotal > 0
                     ? hitsTotal / static_cast<double>(touchedTotal)
                     : 0.0,
                 touchedTotal);

    std::vector<Metric> metrics;
    if (!args.trace) {
        std::vector<double> analyses = fastestRepeats(stormMs);
        double p50 = median(analyses);
        double analysisMs = 0.0;
        double spans = 0.0;
        for (size_t k = 0; k < analyses.size(); ++k) {
            analysisMs += analyses[k];
            spans += static_cast<double>(storms[k].spans);
        }
        metrics = {
            {"setup_s", setupS, "s"},
            {"mem_peak_mb", heap.peakAboveBaselineMb(), "MiB"},
            {"op_p50_ms", p50, "ms"},
            {"op_tail_ms", quantile(analyses, kTailQuantile), "ms"},
            {"spans_per_s", spans / (analysisMs / 1000.0), "spans/s"},
            // A storm is handed over whole, so its verdict and its
            // onset-to-verdict time are the analysis time.
            {"verdict_ms", p50, "ms"},
            {"onset_to_verdict_ms", p50, "ms"},
            {"restart_ms", fastest(restartMs), "ms"},
        };
    } else {
        double untraced = median(roundUntraced);
        metrics.push_back(
            {"tracing.overhead_pct",
             untraced > 0.0 ? (median(roundTraced) / untraced - 1.0) * 100.0
                            : 0.0,
             "%"});
        std::vector<StormInput> inputs;
        for (const Storm &s : storms)
            inputs.push_back(s.input);
        replayAnalysisLayers(inputs, adapter.model(), adapter.encoder(),
                             adapter.profile(), pcfg, &rec, &metrics);

        // Serving-layer replay over the first storms as a span stream
        // (the layers storm-rca itself never enters; reported so every
        // traced run carries every per-layer metric).
        sleuth::online::OnlineConfig cfg = servingConfig();
        cfg.endpoints = sleuth::online::endpointProfiles(fx.app);
        Stream stream = stormStream(storms, args.seed);
        const std::string dataDir =
            args.workDir + "/data-storm-" + std::to_string(args.seed);
        if (!freshDir(dataDir))
            fail("cannot create data directory " + dataDir);
        double loopMs = 0.0;
        {
            std::vector<sleuth::online::SpanEvent> events =
                materializeEvents(stream);
            sleuth::online::OnlineService svc(
                adapter.model(), adapter.encoder(), adapter.profile(), cfg);
            Clock::time_point t0 = Clock::now();
            size_t begin = 0;
            for (size_t k = 0; k < stream.pollEnd.size(); ++k) {
                for (size_t i = begin; i < stream.pollEnd[k]; ++i)
                    svc.ingest(std::move(events[i]));
                begin = stream.pollEnd[k];
                svc.poll(static_cast<int64_t>(k + 1) * stream.pollIntervalUs);
            }
            svc.drainAll(stream.drainUs);
            loopMs = msSince(t0);
        }
        replayServingLayers(stream, adapter.model(), adapter.encoder(),
                            adapter.profile(), cfg, dataDir, loopMs, &rec,
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
