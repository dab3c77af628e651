#pragma once

// The benchmark's correctness checks. Each returns an empty string
// when the output passes and a description of the first violation
// otherwise. Every check compares against a computation made here,
// apart from the program, or against a property the method must have;
// none compares against a stored copy of earlier output. The
// self-test (selftest.cc) feeds each check corrupted outputs.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "distance/distance_matrix.h"
#include "online/durable_state.h"
#include "online/incident.h"
#include "online/service.h"
#include "storage/trace_store.h"

namespace sleuthbench {

class SpanRecorder;

// ----- storm analysis ---------------------------------------------

/** Weighted Jaccard distance over hash maps (paper Eq. 1). */
double referenceJaccard(const sleuth::distance::WeightedSpanSet &a,
                        const sleuth::distance::WeightedSpanSet &b);

/**
 * Every entry equals referenceJaccard exactly; the matrix is
 * symmetric, has a zero diagonal, and holds values in [0,1].
 */
std::string checkMatrix(
    const std::vector<sleuth::distance::WeightedSpanSet> &sets,
    const sleuth::distance::DistanceMatrix &m);

/** distanceEvaluations is m(m-1)/2. */
std::string checkDistanceEvaluations(size_t evaluations, size_t m);

/** Timings and counts of one assembled analysis (traced replay). */
struct StageTimes
{
    double graphMs = 0.0;
    double encodeMs = 0.0;
    double matrixMs = 0.0;
    double hdbscanMs = 0.0;
    double representativesMs = 0.0;
    double rcaMs = 0.0;
    size_t pairs = 0;
    size_t clusters = 0;
    size_t noise = 0;
    size_t rcaInvocations = 0;
    size_t rcaCandidates = 0;
    size_t traces = 0;
};

/**
 * A storm analysis assembled from the pipeline's parts: TraceGraph,
 * encodeSpanSet, DistanceMatrix::fromSpanSets, cluster::hdbscan,
 * selectRepresentatives and CounterfactualRca, with the pipeline's
 * far-member and noise fallbacks. With incremental=false this is the
 * reference analysis the pipeline's verdicts are checked against; with
 * the configured RCA parameters it is the traced per-stage replay.
 * Optional outputs: the span sets and matrix, stage timings, and spans
 * on a recorder (group = the storm's trace).
 */
struct AssembledAnalysis
{
    sleuth::core::PipelineResult result;
    std::vector<sleuth::distance::WeightedSpanSet> sets;
    sleuth::distance::DistanceMatrix matrix;
};

AssembledAnalysis assembleAnalysis(
    const std::vector<sleuth::trace::Trace> &traces,
    const std::vector<int64_t> &slos, const sleuth::core::SleuthGnn &model,
    sleuth::core::FeatureEncoder &encoder,
    const sleuth::core::NormalProfile &profile,
    const sleuth::core::PipelineConfig &config, bool incremental,
    StageTimes *times = nullptr, SpanRecorder *rec = nullptr,
    size_t group = 0);

/**
 * Cluster labels, cluster count, RCA invocation count and every
 * per-trace verdict (services, containers) agree.
 */
std::string compareAnalysis(const sleuth::core::PipelineResult &got,
                            const sleuth::core::PipelineResult &want);

/**
 * Share of fault-touched traces (non-empty truth) whose top-ranked
 * verdict service is in the chaos ground truth. *touched receives
 * their count.
 */
double truthHitRate(const sleuth::core::PipelineResult &result,
                    const std::vector<std::set<std::string>> &truth,
                    size_t *touched);

/** The hit rate is at least the floor over a non-empty sample. */
std::string checkTruthFloor(double rate, size_t touched, double floor);

// ----- serving ----------------------------------------------------

/** One fault phase of the generated stream. */
struct PhaseTruth
{
    int64_t startUs = 0;
    int64_t endUs = 0;
    /** Services hosting the phase's faulted containers, plus, for a
        network fault, the services calling the faulted one (the hop the
        fault delays or fails is recorded in the caller's client span). */
    std::set<std::string> services;
};

/** What the load generator delivered. */
struct StreamTruth
{
    size_t spansDelivered = 0;
    size_t duplicatesInjected = 0;
    /** Distinct trace ids generated (sorted). */
    std::vector<std::string> traceIds;
    std::vector<PhaseTruth> phases;
};

/**
 * Span conservation: delivered == accepted + every drop reason +
 * backlog, the rejected count equals the injected duplicates, and the
 * backlog is 0 after drainAll.
 */
std::string checkConservation(const StreamTruth &truth,
                              const sleuth::online::OnlineStats &stats,
                              size_t backlogSpans);

/**
 * Every generated trace id is stored exactly once: `observed` are the
 * trace ids read from the store as records appeared (each distinct and
 * generated), and tracesStored equals the generated count.
 */
std::string checkStoredOnce(const std::vector<std::string> &generated,
                            std::vector<std::string> observed,
                            size_t tracesStored);

/**
 * Each fault phase opens exactly one incident (opened between the
 * phase start and the next phase's start), no incident opens outside
 * a phase, every incident is resolved, and each incident's top-3
 * ranked services contain a service of its phase's fault plan.
 */
std::string
checkIncidents(const std::vector<sleuth::online::Incident> &incidents,
               const std::vector<PhaseTruth> &phases,
               int64_t streamEndUs);

/**
 * The incident's snapshot rebuilt from the store: anomalous records
 * whose start lies in the incident window and whose id is at most
 * snapshotMaxRecordId, in (root start, trace id) order.
 */
std::vector<sleuth::trace::Trace>
reconstructSnapshot(const sleuth::storage::TraceStore &store,
                    const sleuth::online::Incident &incident,
                    std::vector<int64_t> *slos);

/**
 * Fingerprint of the deterministic incident outcome: ids, lifecycle
 * times, endpoints, ranking, labels and per-trace verdicts.
 */
std::string
incidentsFingerprint(const std::vector<sleuth::online::Incident> &incs);

/** A restart recovered exactly the live state, cleanly. */
std::string checkRecovery(uint64_t liveFingerprint,
                          uint64_t recoveredFingerprint,
                          const sleuth::online::RecoveryInfo &info);

} // namespace sleuthbench
