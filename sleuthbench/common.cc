#include "common.h"

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "trace/trace_json.h"

namespace sleuthbench {

double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

void
parallelFor(size_t n, size_t threads,
            const std::function<void(size_t, size_t)> &fn)
{
    std::atomic<size_t> next{0};
    auto work = [&](size_t worker) {
        for (size_t i = next++; i < n; i = next++)
            fn(i, worker);
    };
    std::vector<std::thread> pool;
    for (size_t w = 1; w < threads; ++w)
        pool.emplace_back(work, w);
    work(0);
    for (std::thread &t : pool)
        t.join();
}

bool
parseArgs(int argc, char **argv, Args *out)
{
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", key.c_str());
            return false;
        }
        std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            out->workload = val;
        } else if (key == "--seed") {
            out->seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            out->seconds = std::strtod(val.c_str(), &end);
            if (!(out->seconds > 0.0)) {
                std::fprintf(stderr, "--seconds must be positive\n");
                return false;
            }
        } else if (key == "--trace") {
            out->trace = val == "1";
            if (val != "0" && val != "1") {
                std::fprintf(stderr, "--trace takes 0 or 1\n");
                return false;
            }
        } else if (key == "--work-dir") {
            out->workDir = val;
        } else {
            std::fprintf(stderr, "unknown argument %s\n", key.c_str());
            return false;
        }
        if (end != nullptr && *end != '\0') {
            std::fprintf(stderr, "bad number for %s: %s\n", key.c_str(),
                         val.c_str());
            return false;
        }
    }
    if (out->workload.empty()) {
        std::fprintf(stderr, "--workload is required\n");
        return false;
    }
    return true;
}

bool
anotherRound(size_t round, size_t minRounds, Clock::time_point t0,
             double seconds)
{
    if (round < minRounds)
        return true;
    double elapsed = msSince(t0);
    return elapsed + elapsed / static_cast<double>(round) <=
           seconds * 1000.0;
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double rank = q * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

double
fastest(const std::vector<double> &xs)
{
    return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

std::vector<double>
fastestRepeats(const std::vector<std::vector<double>> &repeats)
{
    std::vector<double> out;
    for (const std::vector<double> &xs : repeats)
        if (!xs.empty())
            out.push_back(fastest(xs));
    return out;
}

double
HeapSampler::currentMb()
{
    struct mallinfo2 mi = ::mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

void
HeapSampler::sample()
{
    peak_ = std::max(peak_, currentMb());
}

void
HeapSampler::resetBaseline()
{
    baseline_ = currentMb();
    peak_ = baseline_;
}

size_t
SpanRecorder::newGroup(const std::string &label)
{
    if (!enabled_)
        return 0;
    groups_.push_back(label);
    return groups_.size() - 1;
}

void
SpanRecorder::record(size_t group, const std::string &component,
                     const std::string &name, Clock::time_point start,
                     Clock::time_point end)
{
    if (!enabled_)
        return;
    Rec r;
    r.group = group;
    r.component = component;
    r.name = name;
    r.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    start - epoch_)
                    .count();
    r.endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
            .count();
    spans_.push_back(std::move(r));
}

std::vector<sleuth::trace::Trace>
SpanRecorder::traces() const
{
    // One trace per group; its spans hang off a root covering the
    // group's extent, so every trace parses as a TraceGraph.
    std::vector<sleuth::trace::Trace> out(groups_.size());
    std::vector<int64_t> lo(groups_.size(), INT64_MAX);
    std::vector<int64_t> hi(groups_.size(), INT64_MIN);
    for (const Rec &r : spans_) {
        lo[r.group] = std::min(lo[r.group], r.startNs);
        hi[r.group] = std::max(hi[r.group], r.endNs);
    }
    for (size_t g = 0; g < groups_.size(); ++g) {
        out[g].traceId = "bench-" + std::to_string(g);
        if (lo[g] > hi[g])
            continue;
        sleuth::trace::Span root;
        root.spanId = "g" + std::to_string(g);
        root.service = "sleuthbench";
        root.name = groups_[g];
        root.startUs = lo[g] / 1000;
        root.endUs = (hi[g] + 999) / 1000;
        root.container = root.pod = root.node = "bench";
        out[g].spans.push_back(root);
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Rec &r = spans_[i];
        sleuth::trace::Span s;
        s.spanId = "s" + std::to_string(i);
        s.parentSpanId = "g" + std::to_string(r.group);
        s.service = r.component;
        s.name = r.name;
        s.kind = sleuth::trace::SpanKind::Local;
        s.startUs = r.startNs / 1000;
        s.endUs = std::max(s.startUs, r.endNs / 1000);
        s.container = s.pod = s.node = "bench";
        out[r.group].spans.push_back(std::move(s));
    }
    return out;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << sleuth::trace::toJson(traces()).dump() << "\n";
    return static_cast<bool>(f);
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::fflush(stdout);
    for (const Metric &m : metrics)
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
            correct = false;
        }
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char val[64];
        std::snprintf(val, sizeof val, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + val + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

bool
freshDir(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    std::filesystem::create_directories(path, ec);
    if (ec || !std::filesystem::is_directory(path))
        return false;
    int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    bool synced = ::syncfs(fd) == 0;
    ::close(fd);
    return synced;
}

void
removeDir(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace sleuthbench
