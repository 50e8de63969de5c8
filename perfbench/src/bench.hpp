#pragma once

// Shared pieces of the layered benchmark: the clock, raw-sample
// percentiles, the result line, and the in-memory span tracer the
// traced run records around calls into each layer.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/pass.hpp"
#include "fg/values.hpp"
#include "hw/accelerator.hpp"
#include "runtime/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank percentile of raw samples (@p p in [0, 1]). */
double percentile(std::vector<double> samples, double p);

/** Median of raw samples (0 for an empty set). */
inline double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** What one workload run measured and whether its outputs checked. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Metric name -> (value, unit), in the order they were set. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    void set(const std::string &name, double value,
             const std::string &unit);
    /** Fail the run: the oracle found a wrong output. */
    void fail(const std::string &why);
    void note(const std::string &line) { notes.push_back(line); }
    /** Note a timing distribution with its sample count. */
    void noteSamples(const std::string &name,
                     const std::vector<double> &ms);

    /** The final stdout line: {"correct","attempted","failed","metrics"}. */
    std::string resultLine() const;
};

/**
 * One traced call: name, start, end, the span that caused it and the
 * request it belongs to. Kept in memory, written out at exit.
 */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;

    double us() const { return (endNs - startNs) / 1e3; }
};

class Tracer
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    std::int32_t open(const char *name, std::uint64_t request);
    void close(std::int32_t index);
    /** Re-label a span once its outcome is known (hit vs miss). */
    void rename(std::int32_t index, const char *name)
    {
        spans_[index].name = name;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the time covered by direct children, per span. */
    std::vector<double> selfUs() const;

    /** Chrome trace-event JSON (loads in Perfetto / about:tracing). */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span; a null tracer records nothing. */
class Scoped
{
  public:
    Scoped(Tracer *tracer, const char *name, std::uint64_t request)
        : tracer_(tracer),
          index_(tracer ? tracer->open(name, request) : -1)
    {
    }
    ~Scoped()
    {
        if (tracer_)
            tracer_->close(index_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    std::int32_t index() const { return index_; }

  private:
    Tracer *tracer_;
    std::int32_t index_;
};

/**
 * Engine options every workload uses: fp64 pinned, so an
 * ORIANNA_PRECISION in the environment cannot change what is measured.
 */
orianna::runtime::EngineOptions pinnedEngineOptions();

/** Span durations (us) grouped by span name. */
std::map<std::string, std::vector<double>>
durationsByName(const Tracer &tracer);

/** Self times (us) grouped by span name. */
std::map<std::string, std::vector<double>>
selfByName(const Tracer &tracer);

/** Median of the samples filed under @p name (0 when none). */
double medianOf(const std::map<std::string, std::vector<double>> &by_name,
                const char *name);

/**
 * The parts-sum check of the traced run. Every request is one root
 * span; its layers are the spans below it. Returns the share of the
 * requests' total time that no layer span covers (the roots' own self
 * time); the check passes when it is at most kUnattributedBound.
 */
double unattributedShare(const Tracer &tracer);

constexpr double kUnattributedBound = 0.05;

/**
 * Set every per-layer metric to 0 (its unit fixed here), so each
 * workload reports the full set; a layer a workload never calls
 * stays 0.
 */
void zeroLayerMetrics(Report &report);

/** Compile-side per-layer metrics from an engine's compile log. */
struct CompileTally
{
    std::size_t programs = 0;
    double instructions = 0;
    std::map<std::string, std::vector<double>> passUs;
    std::map<std::string, double> removed;

    void add(const std::vector<orianna::comp::PassStats> &passes,
             std::size_t instructions_after);
    /** compiler.instructions and compiler.pass.* metrics. */
    void report(Report &report) const;
};

/** Device-side per-layer metrics of simulated frames. */
struct DeviceTally
{
    std::uint64_t frames = 0;
    std::uint64_t cycles = 0;
    std::array<std::uint64_t, orianna::hw::kUnitKindCount> unitBusy{};
    std::array<std::uint64_t, 3> phaseBusy{};

    void add(const orianna::hw::SimResult &frame);
    /** hw.util.* and hw.phase.* metrics under @p config. */
    void report(Report &report,
                const orianna::hw::AcceleratorConfig &config) const;
};

/** Total dispatched matrix-kernel calls since process start. */
std::uint64_t kernelCalls();

/** Max translation distance between the poses of @p a and @p b. */
double maxPoseGap(const orianna::fg::Values &a,
                  const orianna::fg::Values &b);

/** Deterministic 32-bit seed derived from a run seed and a stream. */
unsigned deriveSeed(std::uint64_t seed, std::uint64_t stream);

/** What every workload gets from the command line. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans ("" = not written). */
    std::string spansPath;
};

Report runServeWarm(const RunArgs &args);
Report runServeCold(const RunArgs &args);
Report runSlamGarage(const RunArgs &args);

} // namespace perfbench
