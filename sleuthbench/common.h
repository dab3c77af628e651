#pragma once

// Shared pieces of the benchmark: command-line arguments, timing,
// percentiles, resident-memory sampling, the in-memory span recorder
// of the traced run, and the one-line JSON result.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace sleuthbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since t0. */
double msSince(Clock::time_point t0);

/** Milliseconds between two instants. */
double msBetween(Clock::time_point a, Clock::time_point b);

/**
 * Run fn(i, worker) for i in [0, n) on `threads` threads (dynamic
 * scheduling; joins before returning). For input generation and
 * checks only: each index must write only its own outputs.
 */
void parallelFor(size_t n, size_t threads,
                 const std::function<void(size_t, size_t)> &fn);

/**
 * Whether to start round `round` (counted from 0): always for the
 * first minRounds, then while one more round of the mean length so far
 * still ends within `seconds` of t0.
 */
bool anotherRound(size_t round, size_t minRounds, Clock::time_point t0,
                  double seconds);

/** Parsed command line. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for trace output and data directories (in the
        checkout: the benchmark never writes outside it). */
    std::string workDir = ".bench_build";
};

/** Parse argv; returns false (with a message on stderr) on error. */
bool parseArgs(int argc, char **argv, Args *out);

/**
 * Linear-interpolated quantile (q in [0,1]) of a sample; 0 for an
 * empty sample.
 */
double quantile(std::vector<double> xs, double q);

/** Median of a sample. */
double median(std::vector<double> xs);

/** Smallest value of a sample; 0 for an empty sample. */
double fastest(const std::vector<double> &xs);

/**
 * For each operation, the fastest of its repeats (repeats[i] holds the
 * wall times of operation i over the run's rounds); operations never
 * timed are left out. Every repeat runs the same code on the same
 * input, so the fastest is the one least slowed by other tenants of the
 * host, whose slow phases last tens of seconds and would otherwise move
 * whole runs.
 */
std::vector<double>
fastestRepeats(const std::vector<std::vector<double>> &repeats);

/**
 * Heap-in-use sampler (glibc mallinfo2: bytes in allocated chunks plus
 * mmapped chunks). Unlike the resident set it does not move with how
 * much freed memory the allocator keeps, so it measures the program's
 * own memory and reads the same on every run of the same inputs.
 */
class HeapSampler
{
  public:
    /** Current heap in use in MiB. */
    static double currentMb();

    /** Record a sample into the running peak. */
    void sample();

    /** Reset the baseline (and the peak) to the current heap in use. */
    void resetBaseline();

    /** Peak heap in use since the baseline, minus the baseline. */
    double peakAboveBaselineMb() const { return peak_ - baseline_; }

  private:
    double baseline_ = 0.0;
    double peak_ = 0.0;
};

/**
 * Spans of the traced run, kept in memory and written once at the end
 * in the program's own trace JSON form (so `sleuth analyze` and
 * `sleuth infer` read it). Each span has a component (the span's
 * service), a call name and start/end; spans of one storm or one poll
 * share a group, which becomes one trace whose root span covers them
 * and is their parent.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a new group (trace) and return its id. */
    size_t newGroup(const std::string &label);

    /** Record one finished call, a child of its group's root span. */
    void record(size_t group, const std::string &component,
                const std::string &name, Clock::time_point start,
                Clock::time_point end);

    /** Spans recorded so far. */
    size_t size() const { return spans_.size(); }

    /** Build the recorded spans as traces (one per group). */
    std::vector<sleuth::trace::Trace> traces() const;

    /** Write traces() as trace JSON; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Rec
    {
        size_t group = 0;
        std::string component;
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
    };

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<std::string> groups_;
    std::vector<Rec> spans_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Print the result as the last line of standard output:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. A metric
 * that is not a finite number marks the result incorrect.
 */
void printResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric> &metrics);

/**
 * Create a fresh, empty directory (removing any previous content) and
 * flush its filesystem, so that writeback of what was removed does not
 * land in the caller's first fsyncs.
 */
bool freshDir(const std::string &path);

/** Remove a directory tree, ignoring errors. */
void removeDir(const std::string &path);

} // namespace sleuthbench
