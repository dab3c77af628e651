#include "checks.h"

#include <algorithm>
#include <unordered_map>

#include "cluster/hdbscan.h"
#include "cluster/svdd.h"
#include "common.h"
#include "core/counterfactual.h"

namespace sleuthbench {

using sleuth::core::PipelineResult;
using sleuth::core::RcaResult;
using sleuth::distance::WeightedSpanSet;

namespace {

std::string
verdictText(const RcaResult &r)
{
    std::string out;
    for (const std::string &s : r.services)
        out += s + ",";
    out += "|";
    for (const std::string &c : r.containers)
        out += c + ",";
    return out + "|" + r.error;
}

using WeightMap = std::unordered_map<uint64_t, double>;

WeightMap
toMap(const WeightedSpanSet &s)
{
    WeightMap m;
    for (const auto &[id, w] : s)
        m[id] += w;
    return m;
}

double
jaccardMaps(const WeightMap &ma, const WeightMap &mb)
{
    double inter = 0.0;
    double uni = 0.0;
    for (const auto &[id, wa] : ma) {
        auto it = mb.find(id);
        double wb = it == mb.end() ? 0.0 : it->second;
        inter += std::min(wa, wb);
        uni += std::max(wa, wb);
    }
    for (const auto &[id, wb] : mb)
        if (!ma.count(id))
            uni += wb;
    if (uni <= 0.0)
        return 0.0;
    return 1.0 - inter / uni;
}

} // namespace

double
referenceJaccard(const WeightedSpanSet &a, const WeightedSpanSet &b)
{
    return jaccardMaps(toMap(a), toMap(b));
}

std::string
checkMatrix(const std::vector<WeightedSpanSet> &sets,
            const sleuth::distance::DistanceMatrix &m)
{
    const size_t n = sets.size();
    if (m.size() != n)
        return "matrix size " + std::to_string(m.size()) + " != " +
               std::to_string(n) + " traces";
    if (m.packed().size() != (n < 2 ? 0 : n * (n - 1) / 2))
        return "packed matrix holds " + std::to_string(m.packed().size()) +
               " entries";
    std::vector<WeightMap> maps;
    maps.reserve(n);
    for (const WeightedSpanSet &set : sets)
        maps.push_back(toMap(set));
    for (size_t i = 0; i < n; ++i) {
        if (m.at(i, i) != 0.0)
            return "diagonal entry " + std::to_string(i) + " is not 0";
        for (size_t j = 0; j < i; ++j) {
            double d = m.at(i, j);
            if (d != m.at(j, i))
                return "matrix not symmetric at (" + std::to_string(i) +
                       "," + std::to_string(j) + ")";
            if (!(d >= 0.0 && d <= 1.0))
                return "distance outside [0,1] at (" +
                       std::to_string(i) + "," + std::to_string(j) + ")";
            if (d != jaccardMaps(maps[i], maps[j]))
                return "distance (" + std::to_string(i) + "," +
                       std::to_string(j) +
                       ") differs from the hash-map weighted Jaccard";
        }
    }
    return "";
}

std::string
checkDistanceEvaluations(size_t evaluations, size_t m)
{
    size_t want = m < 2 ? 0 : m * (m - 1) / 2;
    if (evaluations != want)
        return "distanceEvaluations " + std::to_string(evaluations) +
               " != m(m-1)/2 = " + std::to_string(want);
    return "";
}

AssembledAnalysis
assembleAnalysis(const std::vector<sleuth::trace::Trace> &traces,
                 const std::vector<int64_t> &slos,
                 const sleuth::core::SleuthGnn &model,
                 sleuth::core::FeatureEncoder &encoder,
                 const sleuth::core::NormalProfile &profile,
                 const sleuth::core::PipelineConfig &config,
                 bool incremental, StageTimes *times, SpanRecorder *rec,
                 size_t group)
{
    const size_t n = traces.size();
    AssembledAnalysis out;
    PipelineResult &res = out.result;
    res.perTrace.resize(n);
    res.clusterLabels.assign(n, -1);
    StageTimes local;
    StageTimes &st = times != nullptr ? *times : local;
    st.traces += n;
    auto stamp = [&](const char *component, const char *name,
                     Clock::time_point t0, double *acc) {
        Clock::time_point t1 = Clock::now();
        *acc += msBetween(t0, t1);
        if (rec != nullptr)
            rec->record(group, component, name, t0, t1);
    };

    Clock::time_point t0 = Clock::now();
    std::vector<sleuth::trace::TraceGraph> graphs;
    graphs.reserve(n);
    for (const sleuth::trace::Trace &t : traces)
        graphs.push_back(sleuth::trace::TraceGraph::build(t));
    stamp("trace", "TraceGraph::build", t0, &st.graphMs);

    t0 = Clock::now();
    out.sets.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.sets.push_back(sleuth::distance::encodeSpanSet(
            traces[i], graphs[i], config.distanceOpts));
    stamp("distance", "encodeSpanSet", t0, &st.encodeMs);

    t0 = Clock::now();
    out.matrix = sleuth::distance::DistanceMatrix::fromSpanSets(out.sets);
    stamp("distance", "DistanceMatrix::fromSpanSets", t0, &st.matrixMs);
    res.distanceEvaluations = n < 2 ? 0 : n * (n - 1) / 2;
    st.pairs += res.distanceEvaluations;

    t0 = Clock::now();
    sleuth::cluster::ClusterResult clusters =
        sleuth::cluster::hdbscan(out.matrix, config.hdbscan);
    stamp("cluster", "hdbscan", t0, &st.hdbscanMs);
    res.clusterLabels = clusters.labels;
    res.numClusters = clusters.numClusters;
    st.clusters += static_cast<size_t>(clusters.numClusters);
    for (int l : clusters.labels)
        if (l < 0)
            ++st.noise;

    t0 = Clock::now();
    std::vector<size_t> reps = sleuth::cluster::selectRepresentatives(
        clusters.labels, clusters.numClusters, out.matrix);
    stamp("cluster", "selectRepresentatives", t0,
          &st.representativesMs);

    sleuth::core::RcaParams params = config.rca;
    params.incrementalPropagation = incremental && params.incrementalPropagation;
    sleuth::core::CounterfactualRca rca(model, encoder, profile, params);
    auto candidates = [&](size_t i) {
        sleuth::trace::ExclusiveMetrics m =
            sleuth::trace::computeExclusive(traces[i], graphs[i]);
        return sleuth::core::rankCandidateServices(
                   traces[i], graphs[i], m, profile,
                   params.errorWeightUs)
            .size();
    };
    auto runRca = [&](size_t i) {
        Clock::time_point r0 = Clock::now();
        RcaResult v = rca.analyze(traces[i], slos[i]);
        stamp("core", "CounterfactualRca::analyze", r0, &st.rcaMs);
        ++res.rcaInvocations;
        ++st.rcaInvocations;
        if (times != nullptr)
            st.rcaCandidates += candidates(i);
        return v;
    };

    std::vector<bool> assigned(n, false);
    for (int c = 0; c < clusters.numClusters; ++c) {
        size_t rep = reps[static_cast<size_t>(c)];
        RcaResult verdict = runRca(rep);
        for (size_t i = 0; i < n; ++i) {
            if (clusters.labels[i] != c)
                continue;
            if (config.maxRepresentativeDistance > 0.0 && i != rep &&
                out.matrix.at(i, rep) > config.maxRepresentativeDistance)
                continue;
            res.perTrace[i] = verdict;
            assigned[i] = true;
        }
    }
    for (size_t i = 0; i < n; ++i)
        if (!assigned[i])
            res.perTrace[i] = runRca(i);
    return out;
}

std::string
compareAnalysis(const PipelineResult &got, const PipelineResult &want)
{
    if (got.perTrace.size() != want.perTrace.size())
        return "result covers " + std::to_string(got.perTrace.size()) +
               " traces, reference " +
               std::to_string(want.perTrace.size());
    if (got.numClusters != want.numClusters)
        return "cluster count " + std::to_string(got.numClusters) +
               " != reference " + std::to_string(want.numClusters);
    if (got.clusterLabels != want.clusterLabels)
        return "cluster labels differ from the reference clustering";
    if (got.rcaInvocations != want.rcaInvocations)
        return "RCA invocations " + std::to_string(got.rcaInvocations) +
               " != reference " + std::to_string(want.rcaInvocations);
    for (size_t i = 0; i < got.perTrace.size(); ++i)
        if (verdictText(got.perTrace[i]) != verdictText(want.perTrace[i]))
            return "verdict of trace " + std::to_string(i) +
                   " differs from the reference analysis";
    return "";
}

double
truthHitRate(const PipelineResult &result,
             const std::vector<std::set<std::string>> &truth,
             size_t *touched)
{
    size_t hits = 0;
    size_t count = 0;
    for (size_t i = 0; i < truth.size() && i < result.perTrace.size();
         ++i) {
        if (truth[i].empty())
            continue;
        ++count;
        const std::vector<std::string> &v = result.perTrace[i].services;
        if (!v.empty() && truth[i].count(v.front()))
            ++hits;
    }
    *touched = count;
    return count > 0 ? static_cast<double>(hits) /
                           static_cast<double>(count)
                     : 0.0;
}

std::string
checkTruthFloor(double rate, size_t touched, double floor)
{
    if (touched == 0)
        return "no fault-touched traces to score";
    if (rate < floor)
        return "top-ranked services hit the chaos ground truth on " +
               std::to_string(rate) + " of fault-touched traces, below " +
               "the floor " + std::to_string(floor);
    return "";
}

std::string
checkConservation(const StreamTruth &truth,
                  const sleuth::online::OnlineStats &stats,
                  size_t backlogSpans)
{
    const sleuth::collector::CollectorStats &a = stats.assembly;
    size_t drops = a.droppedOrphan + a.droppedDuplicate + a.droppedLate +
                   a.droppedMalformed + a.droppedBackpressure +
                   a.droppedRingFull + a.droppedShed;
    if (stats.spansIngested != truth.spansDelivered)
        return "service counted " + std::to_string(stats.spansIngested) +
               " spans ingested, generator delivered " +
               std::to_string(truth.spansDelivered);
    if (a.spansRejected != drops)
        return "rejected spans " + std::to_string(a.spansRejected) +
               " != sum of drop reasons " + std::to_string(drops);
    if (truth.spansDelivered != a.spansAccepted + drops + backlogSpans)
        return "span conservation broken: delivered " +
               std::to_string(truth.spansDelivered) + " != accepted " +
               std::to_string(a.spansAccepted) + " + dropped " +
               std::to_string(drops) + " + backlog " +
               std::to_string(backlogSpans);
    if (a.spansRejected != truth.duplicatesInjected)
        return "rejected " + std::to_string(a.spansRejected) +
               " spans, generator injected " +
               std::to_string(truth.duplicatesInjected) + " duplicates";
    if (backlogSpans != 0)
        return "backlog " + std::to_string(backlogSpans) +
               " spans after drainAll";
    return "";
}

std::string
checkStoredOnce(const std::vector<std::string> &generated,
                std::vector<std::string> observed, size_t tracesStored)
{
    if (tracesStored != generated.size())
        return "stored " + std::to_string(tracesStored) + " traces, " +
               "generated " + std::to_string(generated.size());
    std::sort(observed.begin(), observed.end());
    for (size_t i = 1; i < observed.size(); ++i)
        if (observed[i] == observed[i - 1])
            return "trace " + observed[i] + " stored twice";
    for (const std::string &id : observed)
        if (!std::binary_search(generated.begin(), generated.end(), id))
            return "stored trace " + id + " was never generated";
    if (observed.size() != generated.size())
        return "observed " + std::to_string(observed.size()) +
               " stored trace ids, generated " +
               std::to_string(generated.size());
    return "";
}

std::string
checkIncidents(const std::vector<sleuth::online::Incident> &incidents,
               const std::vector<PhaseTruth> &phases, int64_t streamEndUs)
{
    std::vector<size_t> perPhase(phases.size(), 0);
    for (const sleuth::online::Incident &inc : incidents) {
        if (inc.state != sleuth::online::Incident::State::Resolved)
            return "incident " + std::to_string(inc.id) +
                   " never resolved";
        size_t p = phases.size();
        for (size_t k = 0; k < phases.size(); ++k) {
            int64_t until = k + 1 < phases.size() ? phases[k + 1].startUs
                                                  : streamEndUs;
            if (inc.openedAtUs >= phases[k].startUs &&
                inc.openedAtUs < until)
                p = k;
        }
        if (p == phases.size())
            return "incident " + std::to_string(inc.id) +
                   " opened outside every fault phase";
        ++perPhase[p];
        bool hit = false;
        for (size_t r = 0; r < inc.rankedRootCauses.size() && r < 3; ++r)
            if (phases[p].services.count(inc.rankedRootCauses[r].first))
                hit = true;
        if (!hit)
            return "incident " + std::to_string(inc.id) +
                   ": no top-3 service belongs to fault phase " +
                   std::to_string(p) + "'s plan";
    }
    for (size_t k = 0; k < phases.size(); ++k)
        if (perPhase[k] != 1)
            return "fault phase " + std::to_string(k) + " opened " +
                   std::to_string(perPhase[k]) + " incidents";
    return "";
}

std::vector<sleuth::trace::Trace>
reconstructSnapshot(const sleuth::storage::TraceStore &store,
                    const sleuth::online::Incident &incident,
                    std::vector<int64_t> *slos)
{
    sleuth::storage::Query q;
    q.minStartUs = incident.windowStartUs;
    q.maxStartUs = incident.windowEndUs;
    std::vector<const sleuth::storage::Record *> recs;
    for (const sleuth::storage::Record *r : store.query(q))
        if (r->id <= incident.snapshotMaxRecordId && r->anomalous())
            recs.push_back(r);
    std::sort(recs.begin(), recs.end(),
              [](const sleuth::storage::Record *a,
                 const sleuth::storage::Record *b) {
                  if (a->startUs() != b->startUs())
                      return a->startUs() < b->startUs();
                  return a->traceId() < b->traceId();
              });
    std::vector<sleuth::trace::Trace> out;
    slos->clear();
    for (const sleuth::storage::Record *r : recs) {
        out.push_back(r->trace());
        slos->push_back(r->sloUs);
    }
    return out;
}

std::string
incidentsFingerprint(const std::vector<sleuth::online::Incident> &incs)
{
    std::string out;
    for (const sleuth::online::Incident &inc : incs) {
        out += std::to_string(inc.id) + ":" +
               sleuth::online::toString(inc.state) + ":" +
               std::to_string(inc.openedAtUs) + "-" +
               std::to_string(inc.resolvedAtUs) + ":" +
               std::to_string(inc.snapshotMaxRecordId) + "[";
        for (const std::string &e : inc.endpoints)
            out += e + ";";
        out += "]";
        for (const auto &[svc, votes] : inc.rankedRootCauses)
            out += svc + "=" + std::to_string(votes) + ";";
        out += "#" + std::to_string(inc.rca.numClusters) + "/" +
               std::to_string(inc.rca.rcaInvocations);
        for (size_t i = 0; i < inc.rca.perTrace.size(); ++i)
            out += "|" + std::to_string(inc.rca.clusterLabels[i]) + ":" +
                   verdictText(inc.rca.perTrace[i]);
        out += "\n";
    }
    return out;
}

std::string
checkRecovery(uint64_t liveFingerprint, uint64_t recoveredFingerprint,
              const sleuth::online::RecoveryInfo &info)
{
    if (!info.ok)
        return "recovery failed: " + info.error;
    if (!info.haveData)
        return "recovery found no data";
    if (info.tornSegments != 0 || info.discardedTailFrames != 0)
        return "recovery after a clean stop reported " +
               std::to_string(info.tornSegments) + " torn segments and " +
               std::to_string(info.discardedTailFrames) +
               " discarded frames";
    if (liveFingerprint != recoveredFingerprint)
        return "recovered serving state differs from the live state";
    return "";
}

} // namespace sleuthbench
