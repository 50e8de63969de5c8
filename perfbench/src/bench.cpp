#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "matrix/simd.hpp"
#include "runtime/json.hpp"

namespace perfbench {

namespace json = orianna::runtime::json;

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(p * static_cast<double>(samples.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(samples.size())));
    return samples[index - 1];
}

double
peakRssMb()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    for (auto &entry : metrics)
        if (entry.first == name) {
            entry.second = {value, unit};
            return;
        }
    metrics.push_back({name, {value, unit}});
}

void
Report::fail(const std::string &why)
{
    correct = false;
    notes.push_back("ORACLE FAILED: " + why);
}

void
Report::noteSamples(const std::string &name, const std::vector<double> &ms)
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-14s n=%zu p50=%.4f p90=%.4f p99=%.4f max=%.4f ms",
                  name.c_str(), ms.size(), percentile(ms, 0.5),
                  percentile(ms, 0.9), percentile(ms, 0.99),
                  percentile(ms, 1.0));
    notes.push_back(line);
}

std::string
Report::resultLine() const
{
    char number[64];
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        double value = metric.first;
        if (!std::isfinite(value))
            value = -1.0; // Never emit NaN/Inf; checked as non-finite.
        std::snprintf(number, sizeof(number), "%.17g", value);
        out += (first ? "" : ", ") + json::quote(name) +
               ": {\"value\": " + number +
               ", \"unit\": " + json::quote(metric.second) + "}";
        first = false;
    }
    return out + "}}";
}

std::int32_t
Tracer::open(const char *name, std::uint64_t request)
{
    Span span;
    span.name = name;
    span.request = request;
    span.parent = stack_.empty() ? -1 : stack_.back();
    const auto index = static_cast<std::int32_t>(spans_.size());
    stack_.push_back(index);
    span.startNs = nowNs();
    spans_.push_back(span);
    return index;
}

void
Tracer::close(std::int32_t index)
{
    spans_[index].endNs = nowNs();
    stack_.pop_back();
}

std::vector<double>
Tracer::selfUs() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].us();
    for (const Span &span : spans_)
        if (span.parent >= 0)
            self[span.parent] -= span.us();
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    const std::int64_t origin = spans_.empty() ? 0 : spans_[0].startNs;
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::snprintf(line, sizeof(line),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%zu,\"parent\":%d,\"request\":%llu}}",
                      i ? "," : "", span.name,
                      (span.startNs - origin) / 1e3, span.us(), i,
                      span.parent,
                      static_cast<unsigned long long>(span.request));
        out << line;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

std::map<std::string, std::vector<double>>
durationsByName(const Tracer &tracer)
{
    std::map<std::string, std::vector<double>> out;
    for (const Span &span : tracer.spans())
        out[span.name].push_back(span.us());
    return out;
}

std::map<std::string, std::vector<double>>
selfByName(const Tracer &tracer)
{
    std::map<std::string, std::vector<double>> out;
    const std::vector<double> self = tracer.selfUs();
    for (std::size_t i = 0; i < self.size(); ++i)
        out[tracer.spans()[i].name].push_back(self[i]);
    return out;
}

double
medianOf(const std::map<std::string, std::vector<double>> &by_name,
         const char *name)
{
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : median(it->second);
}

orianna::runtime::EngineOptions
pinnedEngineOptions()
{
    orianna::runtime::EngineOptions options;
    options.precision = orianna::comp::Precision::Fp64;
    return options;
}

double
unattributedShare(const Tracer &tracer)
{
    const std::vector<Span> &spans = tracer.spans();
    const std::vector<double> self = tracer.selfUs();
    double total = 0.0, unattributed = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent < 0) {
            total += spans[i].us();
            unattributed += self[i];
        }
    return total > 0 ? unattributed / total : 0.0;
}

void
zeroLayerMetrics(Report &report)
{
    static constexpr struct
    {
        const char *name;
        const char *unit;
    } kLayers[] = {
        {"runtime.context.run_us", "us"},
        {"runtime.context.ns_per_instr", "ns"},
        {"runtime.context.build_us", "us"},
        {"runtime.session.step_us", "us"},
        {"runtime.session.open_us", "us"},
        {"runtime.engine.program_hit_us", "us"},
        {"runtime.engine.program_miss_us", "us"},
        {"runtime.engine.fingerprint_us", "us"},
        {"runtime.protocol.step_us", "us"},
        {"runtime.protocol.values_us", "us"},
        {"runtime.protocol.step_overhead_us", "us"},
        {"fg.objective_us", "us"},
        {"fg.ordering_us", "us"},
        {"compiler.codegen_us", "us"},
        {"compiler.pass.dedup_us", "us"},
        {"compiler.pass.dce_us", "us"},
        {"compiler.pass.cse_us", "us"},
        {"compiler.pass.fuse_us", "us"},
        {"compiler.instructions", "count"},
        {"compiler.pass.dedup.removed", "count"},
        {"compiler.pass.dce.removed", "count"},
        {"compiler.pass.cse.removed", "count"},
        {"compiler.pass.fuse.removed", "count"},
        {"hw.util.matmul", "share"},
        {"hw.util.transpose", "share"},
        {"hw.util.qr", "share"},
        {"hw.util.backsub", "share"},
        {"hw.util.vector", "share"},
        {"hw.util.special", "share"},
        {"hw.util.buffer", "share"},
        {"hw.util.dma", "share"},
        {"hw.phase.construction_share", "share"},
        {"hw.phase.decomposition_share", "share"},
        {"hw.phase.backsub_share", "share"},
        {"runtime.engine.cache_hit_rate", "share"},
        {"runtime.engine.compiles", "count"},
        {"runtime.engine.cached_programs", "count"},
        {"fg.smoother_self_us", "us"},
        {"fg.suffix_solve.accel_us", "us"},
        {"fg.suffix_solve.batch_us", "us"},
        {"fg.suffix_solve.cpu_us", "us"},
        {"fg.reeliminated_vars", "count"},
        {"fg.relinearized_frames", "count"},
        {"runtime.smoother.accel_frames", "count"},
        {"runtime.smoother.batch_frames", "count"},
        {"runtime.smoother.cpu_frames", "count"},
        {"runtime.smoother.session_reuse_rate", "share"},
        {"runtime.smoother.update_compiles", "count"},
        {"matrix.kernel_calls_per_frame", "count"},
        {"runtime.health.fallbacks", "count"},
        {"runtime.health.failures", "count"},
        {"apps.build_ms", "ms"},
        {"fg.optimize_ms", "ms"},
        {"max_gap_m", "m"},
        {"trace.overhead_ms", "ms"},
        {"trace.unattributed_share", "share"},
    };
    for (const auto &layer : kLayers)
        report.set(layer.name, 0.0, layer.unit);
}

void
CompileTally::add(const std::vector<orianna::comp::PassStats> &passes,
                  std::size_t instructions_after)
{
    ++programs;
    instructions += static_cast<double>(instructions_after);
    for (const orianna::comp::PassStats &pass : passes) {
        passUs[pass.pass].push_back(static_cast<double>(pass.wallUs));
        removed[pass.pass] +=
            static_cast<double>(pass.before) - static_cast<double>(pass.after);
    }
}

void
CompileTally::report(Report &report) const
{
    if (programs == 0)
        return;
    report.set("compiler.instructions", instructions / programs, "count");
    for (const char *pass : {"dedup", "dce", "cse", "fuse"}) {
        auto us = passUs.find(pass);
        if (us == passUs.end())
            continue;
        report.set(std::string("compiler.pass.") + pass + "_us",
                   median(us->second), "us");
        report.set(std::string("compiler.pass.") + pass + ".removed",
                   removed.at(pass) / static_cast<double>(us->second.size()),
                   "count");
    }
}

void
DeviceTally::add(const orianna::hw::SimResult &frame)
{
    ++frames;
    cycles += frame.cycles;
    for (std::size_t k = 0; k < unitBusy.size(); ++k)
        unitBusy[k] += frame.unitBusyCycles[k];
    for (std::size_t p = 0; p < phaseBusy.size(); ++p)
        phaseBusy[p] += frame.phaseBusyCycles[p];
}

void
DeviceTally::report(Report &report,
                    const orianna::hw::AcceleratorConfig &config) const
{
    static constexpr const char *kUnits[] = {
        "matmul", "transpose", "qr", "backsub",
        "vector", "special",   "buffer", "dma"};
    static constexpr const char *kPhases[] = {
        "construction", "decomposition", "backsub"};
    for (std::size_t k = 0; k < unitBusy.size(); ++k) {
        const double capacity =
            static_cast<double>(cycles) * config.units[k];
        report.set(std::string("hw.util.") + kUnits[k],
                   capacity > 0 ? unitBusy[k] / capacity : 0.0,
                   "share");
    }
    std::uint64_t phase_total = 0;
    for (std::uint64_t busy : phaseBusy)
        phase_total += busy;
    for (std::size_t p = 0; p < phaseBusy.size(); ++p)
        report.set(std::string("hw.phase.") + kPhases[p] + "_share",
                   phase_total ? static_cast<double>(phaseBusy[p]) /
                                     static_cast<double>(phase_total)
                               : 0.0,
                   "share");
}

std::uint64_t
kernelCalls()
{
    namespace k = orianna::mat::kernels;
    std::uint64_t total = 0;
    for (std::size_t op = 0; op < k::kKernelOpCount; ++op)
        total += k::kernelCallCount(static_cast<k::KernelOp>(op));
    return total;
}

double
maxPoseGap(const orianna::fg::Values &a, const orianna::fg::Values &b)
{
    double worst = 0.0;
    for (orianna::fg::Key key : a.keys())
        if (a.isPose(key) && b.isPose(key))
            worst = std::max(worst,
                             (a.pose(key).t() - b.pose(key).t()).norm());
    return worst;
}

unsigned
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 over (seed, stream): distinct streams of one run seed
    // and equal streams of distinct run seeds never collide in practice.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<unsigned>(z & 0x7fffffffu) | 1u;
}

} // namespace perfbench
