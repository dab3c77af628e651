// Traced per-layer replays shared by the workloads, the stream
// builder, and the serving configuration.

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/pipeline_cache.h"
#include "durable/durable_log.h"
#include "durable/wal.h"
#include "obs/metrics.h"
#include "online/assembler.h"
#include "online/detector.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads.h"

namespace sleuthbench {

using sleuth::online::SpanEvent;

namespace {

const sleuth::trace::Span *
rootOf(const sleuth::trace::Trace &t)
{
    for (const sleuth::trace::Span &s : t.spans)
        if (s.parentSpanId.empty())
            return &s;
    return nullptr;
}

/** The service's canonical completed-batch order. */
void
sortCompleted(std::vector<sleuth::trace::Trace> *traces)
{
    std::sort(traces->begin(), traces->end(),
              [](const sleuth::trace::Trace &a,
                 const sleuth::trace::Trace &b) {
                  const sleuth::trace::Span *ra = rootOf(a);
                  const sleuth::trace::Span *rb = rootOf(b);
                  int64_t sa = ra ? ra->startUs : 0;
                  int64_t sb = rb ? rb->startUs : 0;
                  if (sa != sb)
                      return sa < sb;
                  return a.traceId < b.traceId;
              });
}

} // namespace

std::vector<SpanEvent>
materializeEvents(const Stream &stream)
{
    std::vector<SpanEvent> events;
    events.reserve(stream.deliveries.size());
    for (const Delivery &d : stream.deliveries) {
        const sleuth::trace::Trace &t = stream.traces[d.trace];
        events.push_back({t.traceId, t.spans[d.span]});
    }
    return events;
}

std::unique_ptr<Restarted>
reloadModel(const std::string &modelText, size_t embedDim,
            const std::vector<sleuth::trace::Trace> &normal)
{
    sleuth::util::Json doc = sleuth::util::Json::parse(modelText);
    auto r = std::unique_ptr<Restarted>(
        new Restarted{sleuth::core::SleuthGnn::fromJson(doc),
                      sleuth::core::FeatureEncoder(embedDim),
                      {}});
    for (const sleuth::trace::Trace &t : normal)
        r->profile.add(t);
    r->profile.finalize();
    return r;
}

sleuth::online::OnlineConfig
servingConfig()
{
    // sleuth_serviced's defaults (tools/sleuth_serviced.cc): 4 shards,
    // 64Ki-span rings, no shed budget, the daemon's assembler/detector
    // timing and --max-spans retention, incremental cache on, open
    // incidents not re-analyzed.
    sleuth::online::OnlineConfig cfg;
    cfg.retention.maxSpans = 400'000;
    cfg.assembler.latenessUs = 150'000;
    cfg.assembler.quietGapUs = 100'000;
    cfg.detector.bucketUs = 500'000;
    cfg.detector.windowBuckets = 8;
    return cfg;
}

Stream
buildStream(std::vector<sleuth::trace::Trace> traces, int64_t jitterUs,
            double dupProb, uint64_t seed, int64_t pollIntervalUs)
{
    Stream s;
    s.traces = std::move(traces);
    s.pollIntervalUs = pollIntervalUs;
    sleuth::util::Rng rng(seed ^ 0xde11u);
    int64_t last = 0;
    for (size_t t = 0; t < s.traces.size(); ++t) {
        const sleuth::trace::Trace &tr = s.traces[t];
        s.truth.traceIds.push_back(tr.traceId);
        for (size_t j = 0; j < tr.spans.size(); ++j) {
            const sleuth::trace::Span &span = tr.spans[j];
            last = std::max(last, span.endUs);
            // A span is reported when it finishes, plus network jitter.
            Delivery d;
            d.atUs = span.endUs + rng.uniformInt(0, jitterUs);
            d.trace = static_cast<uint32_t>(t);
            d.span = static_cast<uint32_t>(j);
            s.deliveries.push_back(d);
            if (dupProb > 0.0 && rng.bernoulli(dupProb)) {
                Delivery dup = d;
                dup.atUs += rng.uniformInt(0, jitterUs);
                s.deliveries.push_back(dup);
                ++s.truth.duplicatesInjected;
            }
        }
    }
    std::stable_sort(
        s.deliveries.begin(), s.deliveries.end(),
        [&](const Delivery &a, const Delivery &b) {
            if (a.atUs != b.atUs)
                return a.atUs < b.atUs;
            const sleuth::trace::Trace &ta = s.traces[a.trace];
            const sleuth::trace::Trace &tb = s.traces[b.trace];
            if (ta.traceId != tb.traceId)
                return ta.traceId < tb.traceId;
            return ta.spans[a.span].spanId < tb.spans[b.span].spanId;
        });
    s.truth.spansDelivered = s.deliveries.size();
    std::sort(s.truth.traceIds.begin(), s.truth.traceIds.end());
    size_t cursor = 0;
    int64_t next = pollIntervalUs;
    while (cursor < s.deliveries.size()) {
        while (cursor < s.deliveries.size() &&
               s.deliveries[cursor].atUs < next)
            ++cursor;
        s.pollEnd.push_back(cursor);
        next += pollIntervalUs;
    }
    s.drainUs = last + jitterUs + pollIntervalUs;
    return s;
}

void
replayAnalysisLayers(const std::vector<StormInput> &storms,
                     const sleuth::core::SleuthGnn &model,
                     sleuth::core::FeatureEncoder &encoder,
                     const sleuth::core::NormalProfile &profile,
                     const sleuth::core::PipelineConfig &config,
                     SpanRecorder *rec, std::vector<Metric> *out)
{
    sleuth::core::SleuthPipeline pipeline(model, encoder, profile, config);
    // The service keeps one cache for all of its incident analyses.
    sleuth::core::PipelineCache cache(
        sleuth::online::OnlineConfig{}.cacheConfig);
    StageTimes st;
    double uncachedMs = 0.0;
    double cachedMs = 0.0;
    for (size_t k = 0; k < storms.size(); ++k) {
        const StormInput &s = storms[k];
        size_t group = rec->newGroup("replay storm " + std::to_string(k));
        Clock::time_point t0 = Clock::now();
        pipeline.analyze(s.traces, s.slos);
        Clock::time_point t1 = Clock::now();
        uncachedMs += msBetween(t0, t1);
        rec->record(group, "core", "SleuthPipeline::analyze", t0, t1);
        t0 = Clock::now();
        pipeline.analyze(s.traces, s.slos, nullptr, &cache);
        t1 = Clock::now();
        cachedMs += msBetween(t0, t1);
        rec->record(group, "core", "SleuthPipeline::analyze(cache)", t0,
                    t1);
        assembleAnalysis(s.traces, s.slos, model, encoder, profile,
                         config, true, &st, rec, group);
    }
    double n = static_cast<double>(std::max<size_t>(1, storms.size()));
    double inv = static_cast<double>(std::max<size_t>(1, st.rcaInvocations));
    double stages = st.graphMs + st.encodeMs + st.matrixMs + st.hdbscanMs +
                    st.representativesMs + st.rcaMs;
    sleuth::core::PipelineCache::Stats cs = cache.stats();
    double hits = static_cast<double>(cs.encodingHits + cs.distanceHits +
                                      cs.verdictHits);
    double lookups = hits + static_cast<double>(cs.encodingMisses +
                                                cs.distanceMisses +
                                                cs.verdictMisses);
    out->push_back({"trace.graph_build_ms", st.graphMs / n, "ms"});
    out->push_back({"distance.encode_ms", st.encodeMs / n, "ms"});
    out->push_back({"distance.matrix_ms", st.matrixMs / n, "ms"});
    out->push_back(
        {"distance.pairs", static_cast<double>(st.pairs) / n, "count"});
    out->push_back({"cluster.hdbscan_ms", st.hdbscanMs / n, "ms"});
    out->push_back(
        {"cluster.representatives_ms", st.representativesMs / n, "ms"});
    out->push_back({"cluster.clusters",
                    static_cast<double>(st.clusters) / n, "count"});
    out->push_back({"cluster.noise_traces",
                    static_cast<double>(st.noise) / n, "count"});
    out->push_back({"core.rca_ms", st.rcaMs / n, "ms"});
    out->push_back({"core.rca_invocations",
                    static_cast<double>(st.rcaInvocations) / n, "count"});
    out->push_back({"core.rca_candidates",
                    static_cast<double>(st.rcaCandidates) / inv, "count"});
    out->push_back({"core.traces_per_rca",
                    static_cast<double>(st.traces) / inv, "ratio"});
    out->push_back({"analyze.coverage",
                    uncachedMs > 0.0 ? stages / uncachedMs : 0.0, "ratio"});
    out->push_back({"core.incident_analyze_ms", uncachedMs / n, "ms"});
    out->push_back(
        {"core.incident_analyze_cached_ms", cachedMs / n, "ms"});
    out->push_back({"core.cache_hits", hits, "count"});
    out->push_back({"core.cache_lookups", lookups, "count"});
}

void
replayServingLayers(const Stream &stream,
                    const sleuth::core::SleuthGnn &model,
                    sleuth::core::FeatureEncoder &encoder,
                    const sleuth::core::NormalProfile &profile,
                    const sleuth::online::OnlineConfig &cfg,
                    const std::string &dataDir, double loopMs,
                    SpanRecorder *rec, std::vector<Metric> *out)
{
    const size_t polls = stream.pollEnd.size();
    auto pollAt = [&](size_t k) {
        return static_cast<int64_t>(k + 1) * stream.pollIntervalUs;
    };

    // (1) Ingest timed per poll batch on one thread, through a fresh
    // service; the service's own incident RCA time is read back.
    double ingestMs = 0.0;
    double incidentRcaMs = 0.0;
    {
        std::vector<SpanEvent> events = materializeEvents(stream);
        sleuth::online::OnlineService svc(model, encoder, profile, cfg);
        size_t begin = 0;
        for (size_t k = 0; k < polls; ++k) {
            size_t group = rec->newGroup("replay poll " + std::to_string(k));
            Clock::time_point t0 = Clock::now();
            for (size_t i = begin; i < stream.pollEnd[k]; ++i)
                svc.ingest(std::move(events[i]));
            Clock::time_point t1 = Clock::now();
            ingestMs += msBetween(t0, t1);
            rec->record(group, "online", "OnlineService::ingest", t0, t1);
            begin = stream.pollEnd[k];
            t0 = Clock::now();
            svc.poll(pollAt(k));
            rec->record(group, "online", "OnlineService::poll", t0,
                        Clock::now());
        }
        svc.drainAll(stream.drainUs);
        for (const sleuth::online::Incident &inc : svc.incidents())
            incidentRcaMs += inc.rcaMillis;
    }

    // (2) Standalone assembler, store and detector fed the same
    // delivery batches, in the service's order of operations.
    double assembleMs = 0.0;
    double insertMs = 0.0;
    double detectMs = 0.0;
    double queryMs = 0.0;
    size_t pendingPeak = 0;
    size_t rejected = 0;
    double bytesPerSpan = 0.0;
    {
        std::vector<SpanEvent> events = materializeEvents(stream);
        sleuth::online::SpanAssembler assembler(cfg.assembler);
        sleuth::storage::TraceStore store(cfg.retention);
        sleuth::online::StormDetector detector(cfg.detector);
        bool open = false;
        auto absorb = [&](std::vector<sleuth::trace::Trace> done) {
            sortCompleted(&done);
            for (sleuth::trace::Trace &t : done) {
                const sleuth::trace::Span *root = rootOf(t);
                sleuth::online::Observation obs;
                obs.endpoint = root->service + "/" + root->name;
                auto it = cfg.endpoints.find(obs.endpoint);
                int64_t slo = it == cfg.endpoints.end() ? 0 : it->second.sloUs;
                int flow =
                    it == cfg.endpoints.end() ? -1 : it->second.flowIndex;
                obs.startUs = root->startUs;
                obs.durationUs = root->durationUs();
                obs.error = root->hasError();
                obs.anomalous =
                    obs.error || (slo > 0 && obs.durationUs > slo);
                Clock::time_point t0 = Clock::now();
                store.insert(std::move(t), slo, flow);
                Clock::time_point t1 = Clock::now();
                detector.observe(obs);
                Clock::time_point t2 = Clock::now();
                insertMs += msBetween(t0, t1);
                detectMs += msBetween(t1, t2);
            }
        };
        auto evaluate = [&](int64_t wm) {
            Clock::time_point t0 = Clock::now();
            std::vector<sleuth::online::StormTransition> tr =
                detector.advance(wm);
            detectMs += msSince(t0);
            bool onset = false;
            for (const auto &x : tr)
                onset |= x.kind == sleuth::online::StormTransition::Kind::Onset;
            if (onset && !open) {
                open = true;
                int64_t b = cfg.detector.bucketUs;
                int64_t hi = wm / b - (wm % b < 0 ? 1 : 0);
                int64_t lo =
                    hi - static_cast<int64_t>(cfg.detector.windowBuckets) + 1;
                sleuth::storage::Query q;
                q.minStartUs = lo * b;
                q.maxStartUs = (hi + 1) * b;
                Clock::time_point q0 = Clock::now();
                std::vector<const sleuth::storage::Record *> window =
                    store.query(q);
                queryMs += msSince(q0);
                (void)window;
            }
            if (open) {
                Clock::time_point s0 = Clock::now();
                bool storming = !detector.stormingEndpoints().empty();
                detectMs += msSince(s0);
                open = storming;
            }
        };
        size_t begin = 0;
        for (size_t k = 0; k < polls; ++k) {
            Clock::time_point t0 = Clock::now();
            for (size_t i = begin; i < stream.pollEnd[k]; ++i)
                assembler.add(events[i]);
            pendingPeak = std::max(pendingPeak, assembler.pendingSpans());
            std::vector<sleuth::trace::Trace> done =
                assembler.drain(pollAt(k));
            assembleMs += msSince(t0);
            begin = stream.pollEnd[k];
            absorb(std::move(done));
            evaluate(pollAt(k) - cfg.assembler.latenessUs);
        }
        Clock::time_point t0 = Clock::now();
        std::vector<sleuth::trace::Trace> done =
            assembler.drain(stream.drainUs);
        std::vector<sleuth::trace::Trace> rest = assembler.flush();
        assembleMs += msSince(t0);
        done.insert(done.end(), std::make_move_iterator(rest.begin()),
                    std::make_move_iterator(rest.end()));
        absorb(std::move(done));
        evaluate(stream.drainUs - cfg.assembler.latenessUs);
        rejected = assembler.stats().spansRejected;
        if (store.totalSpans() > 0)
            bytesPerSpan = static_cast<double>(store.memoryBytes()) /
                           static_cast<double>(store.totalSpans());
    }

    // (3) Durable layer: the same stream through a durable service with
    // the serving defaults, then the log's frames scanned, re-appended
    // through a WalWriter under the same fsync policy, recovered, and
    // snapshotted.
    const std::string dir = dataDir + "/replay-wal";
    const std::string redir = dataDir + "/replay-reappend";
    double scanMs = 0.0;
    double appendMs = 0.0;
    double syncMs = 0.0;
    double snapshotMs = 0.0;
    double walBytes = 0.0;
    double snapshotBytes = 0.0;
    double framesReplayed = 0.0;
    double pollsReplayed = 0.0;
    if (freshDir(dir) && freshDir(redir)) {
        sleuth::durable::DurableConfig dcfg;
        dcfg.dir = dir;
        dcfg.fsyncPolicy = sleuth::durable::FsyncPolicy::Group;
        dcfg.snapshotEveryPolls = 64;
        {
            std::vector<SpanEvent> events = materializeEvents(stream);
            sleuth::online::OnlineService svc(model, encoder, profile, cfg);
            svc.enableDurability(dcfg);
            size_t begin = 0;
            for (size_t k = 0; k < polls; ++k) {
                for (size_t i = begin; i < stream.pollEnd[k]; ++i)
                    svc.ingest(std::move(events[i]));
                begin = stream.pollEnd[k];
                svc.poll(pollAt(k));
            }
            svc.drainAll(stream.drainUs);
        }
        std::vector<sleuth::durable::WalFrame> frames;
        size_t group = rec->newGroup("replay durable");
        for (const auto &[index, path] : sleuth::durable::listSegments(dir)) {
            (void)index;
            Clock::time_point t0 = Clock::now();
            sleuth::durable::SegmentScan scan =
                sleuth::durable::scanSegment(path);
            Clock::time_point t1 = Clock::now();
            scanMs += msBetween(t0, t1);
            rec->record(group, "durable", "scanSegment", t0, t1);
            for (sleuth::durable::WalFrame &f : scan.frames)
                frames.push_back(std::move(f));
        }
        {
            sleuth::durable::WalWriter writer(
                redir, sleuth::durable::FsyncPolicy::Group);
            std::string err;
            if (writer.openSegment(1, 0, &err)) {
                for (const sleuth::durable::WalFrame &f : frames) {
                    Clock::time_point t0 = Clock::now();
                    writer.append(f.kind, f.payload);
                    appendMs += msSince(t0);
                    if (f.kind == sleuth::durable::RecordKind::PollMarker) {
                        Clock::time_point s0 = Clock::now();
                        writer.sync();
                        syncMs += msSince(s0);
                    }
                }
                walBytes = static_cast<double>(writer.segmentBytes());
            }
        }
        sleuth::online::OnlineService recovered(model, encoder, profile,
                                                cfg);
        Clock::time_point r0 = Clock::now();
        sleuth::online::RecoveryInfo info =
            recovered.enableDurability(dcfg);
        rec->record(group, "online", "OnlineService::enableDurability", r0,
                    Clock::now());
        framesReplayed = static_cast<double>(info.framesReplayed);
        pollsReplayed = static_cast<double>(info.pollsReplayed);
        Clock::time_point s0 = Clock::now();
        recovered.snapshotNow();
        Clock::time_point s1 = Clock::now();
        snapshotMs = msBetween(s0, s1);
        rec->record(group, "online", "OnlineService::snapshotNow", s0, s1);
        auto snaps = sleuth::durable::listSnapshots(dir);
        if (!snaps.empty()) {
            std::error_code ec;
            snapshotBytes = static_cast<double>(
                std::filesystem::file_size(snaps.back().second, ec));
        }
    }
    removeDir(dir);
    removeDir(redir);

    double delivered = static_cast<double>(stream.deliveries.size());
    double serveMs = ingestMs + assembleMs + detectMs + insertMs + queryMs +
                     incidentRcaMs;
    out->push_back({"online.ingest_ns_per_span",
                    delivered > 0.0 ? ingestMs * 1e6 / delivered : 0.0,
                    "ns"});
    out->push_back({"online.poll_batch_spans",
                    delivered / static_cast<double>(std::max<size_t>(1, polls)),
                    "count"});
    out->push_back({"online.assemble_ms", assembleMs, "ms"});
    out->push_back({"online.pending_spans_peak",
                    static_cast<double>(pendingPeak), "count"});
    out->push_back(
        {"online.spans_rejected", static_cast<double>(rejected), "count"});
    out->push_back({"online.detect_ms", detectMs, "ms"});
    out->push_back({"storage.insert_ms", insertMs, "ms"});
    out->push_back({"storage.bytes_per_span", bytesPerSpan, "bytes"});
    out->push_back({"storage.window_query_ms", queryMs, "ms"});
    out->push_back({"online.incident_rca_ms", incidentRcaMs, "ms"});
    out->push_back({"serve.coverage", loopMs > 0.0 ? serveMs / loopMs : 0.0,
                    "ratio"});
    out->push_back({"durable.wal_bytes", walBytes, "bytes"});
    out->push_back({"durable.wal_append_ms", appendMs, "ms"});
    out->push_back({"durable.sync_ms", syncMs, "ms"});
    out->push_back({"durable.snapshot_ms", snapshotMs, "ms"});
    out->push_back({"durable.snapshot_bytes", snapshotBytes, "bytes"});
    out->push_back({"durable.scan_ms", scanMs, "ms"});
    out->push_back({"durable.frames_replayed", framesReplayed, "count"});
    out->push_back({"durable.polls_replayed", pollsReplayed, "count"});
}

void
appendObsHistograms(std::vector<Metric> *out)
{
    auto mean = [](sleuth::obs::Histogram &h) {
        sleuth::obs::HistogramSnapshot s = h.snapshot();
        return s.count > 0 ? s.sum / static_cast<double>(s.count) : 0.0;
    };
    for (const char *stage : {"encode", "distance", "cluster", "rca"})
        out->push_back(
            {std::string("obs.pipeline_stage_") + stage + "_ms",
             mean(sleuth::obs::histogram(
                 "sleuth_pipeline_stage_ms",
                 "Wall-clock milliseconds per pipeline stage per batch",
                 {{"stage", stage}})),
             "ms"});
    out->push_back({"obs.wal_append_ms",
                    mean(sleuth::obs::histogram(
                        "sleuth_wal_append_ms",
                        "WAL frame append latency (ms)")),
                    "ms"});
    out->push_back({"obs.wal_fsync_ms",
                    mean(sleuth::obs::histogram("sleuth_wal_fsync_ms",
                                                "WAL fsync latency (ms)")),
                    "ms"});
    out->push_back({"obs.snapshot_write_ms",
                    mean(sleuth::obs::histogram(
                        "sleuth_snapshot_write_ms",
                        "Snapshot write latency (ms)")),
                    "ms"});
}

bool
writeTrace(const SpanRecorder &rec, const Args &args)
{
    std::string dir = args.workDir + "/traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string path = dir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".json";
    bool ok = rec.write(path);
    std::fprintf(stderr, "trace: %zu spans -> %s\n", rec.size(),
                 path.c_str());
    return ok;
}

} // namespace sleuthbench
