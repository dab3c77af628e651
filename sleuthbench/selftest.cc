// Self-test of the benchmark's correctness checks: each check must
// pass on real program output and fire on a deliberately corrupted
// copy of it. A check that cannot fail shows nothing.
//
//   sleuthbench_selftest [WORK_DIR]     (python3 sleuthbench/run.py --selftest)

#include <cstdio>
#include <set>
#include <string>

#include "checks.h"
#include "common.h"
#include "eval/harness.h"
#include "online/durable_state.h"
#include "online/live_source.h"
#include "sim/simulator.h"
#include "synth/generator.h"
#include "workloads.h"

using namespace sleuthbench;

namespace {

int failures = 0;

void
expectPass(const char *check, const std::string &err)
{
    if (err.empty()) {
        std::printf("ok    %-22s passes on program output\n", check);
    } else {
        std::printf("FAIL  %-22s rejected program output: %s\n", check,
                    err.c_str());
        ++failures;
    }
}

void
expectFire(const char *check, const char *corruption, const std::string &err)
{
    if (!err.empty()) {
        std::printf("ok    %-22s fires on %s (%s)\n", check, corruption,
                    err.c_str());
    } else {
        std::printf("FAIL  %-22s did not fire on %s\n", check, corruption);
        ++failures;
    }
}

std::string
rateFloor(const sleuth::core::PipelineResult &r,
          const std::vector<std::set<std::string>> &truth)
{
    size_t touched = 0;
    double rate = truthHitRate(r, truth, &touched);
    return checkTruthFloor(rate, touched, 0.6);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string workDir =
        (argc > 1 ? std::string(argv[1]) : std::string(".bench_build")) +
        "/selftest";

    // A small application, a trained model, and a storm whose SLO sits
    // below the median latency so most traces are anomalous.
    sleuth::synth::AppConfig app =
        sleuth::synth::generateApp(sleuth::synth::syntheticParams(16, 3));
    sleuth::sim::ClusterModel cluster(app, 6, 3);
    sleuth::sim::Simulator::calibrateSlos(app, cluster, 200, 99.0, 3);
    sleuth::sim::Simulator healthy(app, cluster, {.seed = 11});
    std::vector<sleuth::trace::Trace> corpus;
    for (int i = 0; i < 120; ++i)
        corpus.push_back(healthy.simulateOne().trace);
    sleuth::eval::SleuthAdapter adapter;
    adapter.fit(corpus);

    sleuth::util::Rng prng(5);
    sleuth::chaos::FaultPlan plan = sleuth::chaos::planFixedFaults(
        cluster.allInstances(), 2, sleuth::chaos::FaultScope::Container, {},
        prng);
    sleuth::sim::Simulator faulty(app, cluster, {.seed = 12}, plan);
    std::vector<sleuth::trace::Trace> storm;
    std::vector<int64_t> slos;
    std::vector<std::set<std::string>> truth;
    for (int i = 0; i < 60; ++i) {
        sleuth::sim::SimResult r = faulty.simulateOne();
        storm.push_back(r.trace);
        slos.push_back(
            std::max<int64_t>(1, r.trace.rootDurationUs() / 2));
        truth.push_back(r.rootCauseServices);
    }

    // --- Storm checks.
    sleuth::core::PipelineConfig pcfg;
    sleuth::core::SleuthPipeline pipeline(adapter.model(), adapter.encoder(),
                                          adapter.profile(), pcfg);
    sleuth::core::PipelineResult got = pipeline.analyze(storm, slos);
    AssembledAnalysis ref =
        assembleAnalysis(storm, slos, adapter.model(), adapter.encoder(),
                         adapter.profile(), pcfg, false);

    expectPass("checkMatrix", checkMatrix(ref.sets, ref.matrix));
    {
        sleuth::distance::DistanceMatrix m = ref.matrix;
        m.set(7, 3, m.at(7, 3) + 1e-12);
        expectFire("checkMatrix", "one entry off by 1e-12",
                   checkMatrix(ref.sets, m));
        m = ref.matrix;
        m.set(9, 2, 1.5);
        expectFire("checkMatrix", "an entry outside [0,1]",
                   checkMatrix(ref.sets, m));
        expectFire("checkMatrix", "a matrix one row short",
                   checkMatrix(ref.sets, sleuth::distance::DistanceMatrix(
                                             storm.size() - 1)));
    }
    expectPass("checkDistanceEvals",
               checkDistanceEvaluations(got.distanceEvaluations,
                                        storm.size()));
    expectFire("checkDistanceEvals", "one evaluation missing",
               checkDistanceEvaluations(got.distanceEvaluations - 1,
                                        storm.size()));

    expectPass("compareAnalysis", compareAnalysis(got, ref.result));
    {
        sleuth::core::PipelineResult bad = got;
        size_t other = 1;
        while (other < bad.perTrace.size() &&
               bad.perTrace[other].services == bad.perTrace[0].services)
            ++other;
        if (other < bad.perTrace.size())
            std::swap(bad.perTrace[0], bad.perTrace[other]);
        else
            bad.perTrace[0].services = {"no-such-service"};
        expectFire("compareAnalysis", "one verdict swapped",
                   compareAnalysis(bad, ref.result));
        bad = got;
        bad.clusterLabels[0] = bad.clusterLabels[0] == -1 ? 0 : -1;
        expectFire("compareAnalysis", "one cluster label changed",
                   compareAnalysis(bad, ref.result));
        bad = got;
        ++bad.rcaInvocations;
        expectFire("compareAnalysis", "one extra RCA invocation",
                   compareAnalysis(bad, ref.result));
    }

    {
        // Truth that agrees with every top verdict must pass; verdicts
        // naming services outside the truth must fire.
        std::vector<std::set<std::string>> agree(storm.size());
        for (size_t i = 0; i < storm.size(); ++i)
            if (!got.perTrace[i].services.empty())
                agree[i] = {got.perTrace[i].services.front()};
        expectPass("checkTruthFloor", rateFloor(got, agree));
        sleuth::core::PipelineResult bad = got;
        for (sleuth::core::RcaResult &r : bad.perTrace)
            r.services = {"no-such-service"};
        expectFire("checkTruthFloor", "every verdict outside the truth",
                   rateFloor(bad, truth));
    }

    // --- Serving checks, on a real stream through a real service.
    sleuth::online::OnlineConfig cfg = servingConfig();
    cfg.endpoints = sleuth::online::endpointProfiles(app);
    std::vector<sleuth::trace::Trace> arrivals;
    for (size_t i = 0; i < corpus.size(); ++i) {
        sleuth::trace::Trace t = corpus[i];
        for (sleuth::trace::Span &s : t.spans) {
            s.startUs += static_cast<int64_t>(i) * 10'000;
            s.endUs += static_cast<int64_t>(i) * 10'000;
        }
        arrivals.push_back(std::move(t));
    }
    Stream stream = buildStream(std::move(arrivals), 20'000, 0.05, 7,
                                250'000);
    if (!freshDir(workDir)) {
        std::printf("FAIL  cannot create %s\n", workDir.c_str());
        return 1;
    }
    sleuth::durable::DurableConfig dcfg;
    dcfg.dir = workDir + "/wal";
    sleuth::online::OnlineService svc(adapter.model(), adapter.encoder(),
                                      adapter.profile(), cfg);
    svc.enableDurability(dcfg);
    std::vector<std::string> observed;
    size_t cursor = 0;
    size_t begin = 0;
    auto observe = [&] {
        for (; cursor < svc.stats().tracesStored; ++cursor)
            if (svc.store().contains(cursor))
                observed.push_back(svc.store().at(cursor).traceId());
    };
    for (size_t k = 0; k < stream.pollEnd.size(); ++k) {
        for (size_t i = begin; i < stream.pollEnd[k]; ++i) {
            const Delivery &d = stream.deliveries[i];
            svc.ingest(sleuth::online::SpanEvent{
                stream.traces[d.trace].traceId,
                stream.traces[d.trace].spans[d.span]});
        }
        begin = stream.pollEnd[k];
        svc.poll(static_cast<int64_t>(k + 1) * stream.pollIntervalUs);
        observe();
    }
    svc.drainAll(stream.drainUs);
    observe();

    sleuth::online::OnlineStats stats = svc.stats();
    expectPass("checkConservation",
               checkConservation(stream.truth, stats, svc.backlogSpans()));
    {
        sleuth::online::OnlineStats bad = stats;
        --bad.assembly.spansAccepted;
        expectFire("checkConservation", "one accepted span removed",
                   checkConservation(stream.truth, bad, 0));
        expectFire("checkConservation", "a backlog of one span",
                   checkConservation(stream.truth, stats, 1));
        StreamTruth moreDups = stream.truth;
        ++moreDups.duplicatesInjected;
        expectFire("checkConservation", "one injected duplicate unrejected",
                   checkConservation(moreDups, stats, 0));
    }

    expectPass("checkStoredOnce",
               checkStoredOnce(stream.truth.traceIds, observed,
                               stats.tracesStored));
    {
        std::vector<std::string> bad = observed;
        bad.pop_back();
        expectFire("checkStoredOnce", "one stored trace missing",
                   checkStoredOnce(stream.truth.traceIds, bad,
                                   stats.tracesStored - 1));
        bad = observed;
        bad.back() = bad.front();
        expectFire("checkStoredOnce", "one trace stored twice",
                   checkStoredOnce(stream.truth.traceIds, bad,
                                   stats.tracesStored));
    }

    // Recovery: the recovered state must fingerprint equal to the live
    // one; a recovered store missing one record must not.
    const uint64_t live = svc.servingFingerprint();
    {
        sleuth::online::RecoveryInfo info;
        sleuth::online::DurableServingState state =
            sleuth::online::recoverState(dcfg, {}, &info);
        auto fingerprint = [&] {
            return sleuth::online::servingStateFingerprint(
                state.store, state.detector, state.incidents,
                state.watermarkUs, state.tracesStored, state.lastRecordId);
        };
        expectPass("checkRecovery", checkRecovery(live, fingerprint(), info));
        sleuth::online::RecoveryInfo torn = info;
        torn.tornSegments = 1;
        expectFire("checkRecovery", "a torn segment after a clean stop",
                   checkRecovery(live, fingerprint(), torn));
        size_t victim = state.lastRecordId;
        if (state.store.contains(victim))
            state.store.evictById(victim);
        expectFire("checkRecovery", "one record dropped from the store",
                   checkRecovery(live, fingerprint(), info));
    }
    removeDir(workDir);

    // Incidents: one per phase, resolved, top-3 inside the plan.
    {
        std::vector<PhaseTruth> phases(2);
        phases[0] = {1'000'000, 3'000'000, {"svc-a"}};
        phases[1] = {10'000'000, 12'000'000, {"svc-b", "svc-c"}};
        std::vector<sleuth::online::Incident> incs(2);
        incs[0].id = 0;
        incs[0].state = sleuth::online::Incident::State::Resolved;
        incs[0].openedAtUs = 2'000'000;
        incs[0].rankedRootCauses = {{"svc-x", 9}, {"svc-a", 5}};
        incs[1].id = 1;
        incs[1].state = sleuth::online::Incident::State::Resolved;
        incs[1].openedAtUs = 11'000'000;
        incs[1].rankedRootCauses = {{"svc-c", 7}};
        expectPass("checkIncidents",
                   checkIncidents(incs, phases, 20'000'000));
        auto bad = incs;
        bad[1].rankedRootCauses = {{"svc-x", 7}, {"svc-y", 3}, {"svc-z", 1},
                                   {"svc-b", 1}};
        expectFire("checkIncidents", "a ranking outside the fault plan",
                   checkIncidents(bad, phases, 20'000'000));
        bad = incs;
        bad[1].state = sleuth::online::Incident::State::Analyzed;
        expectFire("checkIncidents", "an unresolved incident",
                   checkIncidents(bad, phases, 20'000'000));
        bad = incs;
        bad[1].openedAtUs = 2'500'000;
        bad[1].rankedRootCauses = {{"svc-a", 3}};
        expectFire("checkIncidents", "two incidents in one phase",
                   checkIncidents(bad, phases, 20'000'000));
        bad.pop_back();
        bad[0] = incs[0];
        expectFire("checkIncidents", "a phase without an incident",
                   checkIncidents(bad, phases, 20'000'000));
    }

    std::printf("%s: %d check(s) misbehaved\n",
                failures == 0 ? "PASS" : "FAIL", failures);
    return failures == 0 ? 0 : 1;
}
