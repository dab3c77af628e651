#pragma once

// The three workloads. Each generates its inputs from the seed before
// any timed call, measures whole rounds for the requested seconds,
// checks the program's outputs, and prints the result line. The
// traced run (--trace 1) reports the per-layer metrics instead.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/pipeline.h"
#include "online/service.h"
#include "trace/trace.h"

namespace sleuthbench {

/** storm-rca: distinct anomaly storms through SleuthPipeline::analyze. */
int runStormRca(const Args &args);

/** live-serve (durable=false) and durable-restart (durable=true). */
int runServe(const Args &args, bool durable);

/** A delivery of one span at an event time. */
struct Delivery
{
    int64_t atUs = 0;
    uint32_t trace = 0;
    uint32_t span = 0;
};

/**
 * A pregenerated span stream: arrival-shifted traces, their deliveries
 * in delivery order, and the poll schedule. Poll k is at
 * (k+1)*pollIntervalUs and covers deliveries [pollEnd[k-1], pollEnd[k]).
 */
struct Stream
{
    std::vector<sleuth::trace::Trace> traces;
    std::vector<Delivery> deliveries;
    std::vector<size_t> pollEnd;
    int64_t pollIntervalUs = 250'000;
    int64_t drainUs = 0;
    StreamTruth truth;
};

/**
 * Turn arrival-shifted traces into a collector-style delivery schedule:
 * each span is delivered at its end time plus uniform jitter, with
 * probability dupProb a second time (more jitter), in a deterministic
 * order (time, trace id, span id).
 */
Stream buildStream(std::vector<sleuth::trace::Trace> traces,
                   int64_t jitterUs, double dupProb, uint64_t seed,
                   int64_t pollIntervalUs);

/** The stream's span events in delivery order (one copy per pass). */
std::vector<sleuth::online::SpanEvent> materializeEvents(const Stream &s);

/** A restarted process's model, encoder and profile. */
struct Restarted
{
    sleuth::core::SleuthGnn model;
    sleuth::core::FeatureEncoder encoder;
    sleuth::core::NormalProfile profile;
};

/**
 * What a restarted process does before it can analyze: parse the saved
 * model, rebuild the normal profile from the normal corpus, and start
 * with a fresh encoder.
 */
std::unique_ptr<Restarted>
reloadModel(const std::string &modelText, size_t embedDim,
            const std::vector<sleuth::trace::Trace> &normal);

/** The online configuration sleuth_serviced runs by default. */
sleuth::online::OnlineConfig servingConfig();

/**
 * Traced per-layer replay of the serving path over a stream (see
 * serve.cc): standalone assembler, detector, store and WAL/snapshot
 * replays, plus single-threaded ingest timing. Appends the online.*,
 * storage.*, durable.* and serve.coverage metrics; loopMs is the
 * untraced ingest-and-poll wall time of one pass over the stream.
 */
void replayServingLayers(const Stream &stream,
                         const sleuth::core::SleuthGnn &model,
                         sleuth::core::FeatureEncoder &encoder,
                         const sleuth::core::NormalProfile &profile,
                         const sleuth::online::OnlineConfig &cfg,
                         const std::string &dataDir, double loopMs,
                         SpanRecorder *rec, std::vector<Metric> *out);

/** One storm handed to the analysis replay. */
struct StormInput
{
    std::vector<sleuth::trace::Trace> traces;
    std::vector<int64_t> slos;
};

/**
 * Traced per-stage replay of storm analysis (trace, distance, cluster
 * and core layers, cached and uncached analyze, analyze.coverage) over
 * a set of storms; appends the metrics.
 */
void replayAnalysisLayers(const std::vector<StormInput> &storms,
                          const sleuth::core::SleuthGnn &model,
                          sleuth::core::FeatureEncoder &encoder,
                          const sleuth::core::NormalProfile &profile,
                          const sleuth::core::PipelineConfig &config,
                          SpanRecorder *rec, std::vector<Metric> *out);

/** Means of the program's own obs histograms named in the README. */
void appendObsHistograms(std::vector<Metric> *out);

/** Write the recorder's spans under workDir; false on failure. */
bool writeTrace(const SpanRecorder &rec, const Args &args);

} // namespace sleuthbench
