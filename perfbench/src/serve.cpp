// The serve-warm and serve-cold workloads: closed-loop robot clients
// speaking the line-delimited JSON protocol to runtime::ProtocolServer
// over one shared runtime::Engine.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "apps/benchmark_apps.hpp"
#include "bench.hpp"
#include "fg/optimizer.hpp"
#include "fg/ordering.hpp"
#include "runtime/serving_protocol.hpp"

namespace perfbench {

namespace {

using namespace orianna;

/** One pre-built (app, algorithm, seed) graph a client submits. */
struct Mission
{
    std::string app;
    std::string algorithm;
    unsigned seed = 0;
    runtime::SubmittedGraph graph;
    std::string submitLine;
};

struct ServeShape
{
    bool cold = false;
    std::size_t clients = 1;
    std::size_t steps = 8; //!< step requests per session (frames:1).
};

/**
 * Missions for the given app seeds, ordered seed-major then app then
 * algorithm, so consecutive sessions cycle over all 12 pairs.
 */
std::vector<Mission>
buildMissions(const std::vector<unsigned> &seeds, std::size_t threads)
{
    const std::vector<apps::AppKind> kinds = apps::allApps();
    std::vector<std::vector<Mission>> built(seeds.size() * kinds.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (std::size_t job = next++; job < built.size(); job = next++) {
            const unsigned seed = seeds[job / kinds.size()];
            const apps::AppKind kind = kinds[job % kinds.size()];
            const apps::BenchmarkApp app = apps::buildApp(kind, seed);
            for (std::size_t a = 0; a < app.app.size(); ++a) {
                const core::Algorithm &algorithm = app.app.algorithm(a);
                Mission mission;
                mission.app = apps::appName(kind);
                mission.algorithm = algorithm.name;
                mission.seed = seed;
                mission.graph.graph = algorithm.graph;
                mission.graph.initial = algorithm.values;
                mission.graph.stepScale = algorithm.stepScale;
                mission.submitLine =
                    "{\"op\":\"submit\",\"app\":\"" + mission.app +
                    "\",\"algorithm\":\"" + mission.algorithm +
                    "\",\"seed\":" + std::to_string(seed) + "}";
                built[job].push_back(std::move(mission));
            }
        }
    };
    {
        std::vector<std::jthread> pool;
        for (std::size_t t = 1; t < threads; ++t)
            pool.emplace_back(worker);
        worker();
    }

    std::vector<Mission> missions;
    for (std::vector<Mission> &group : built)
        for (Mission &mission : group)
            missions.push_back(std::move(mission));
    return missions;
}

/** Factories serving pre-built missions, keyed (app, algorithm, seed). */
void
registerMissions(runtime::ProtocolServer &server,
                 const std::vector<Mission> &missions)
{
    using Index = std::map<std::pair<std::string, unsigned>,
                           const runtime::SubmittedGraph *>;
    std::map<std::string, std::shared_ptr<Index>> by_app;
    for (const Mission &mission : missions) {
        auto &index = by_app[mission.app];
        if (!index)
            index = std::make_shared<Index>();
        (*index)[{mission.algorithm, mission.seed}] = &mission.graph;
    }
    for (const auto &[app, index] : by_app)
        server.registerApp(
            app, [index](const std::string &algorithm, unsigned seed) {
                auto it = index->find({algorithm, seed});
                if (it == index->end())
                    throw std::invalid_argument("no such mission");
                return *it->second;
            });
}

/** The "values" object exactly as the protocol prints it. */
std::string
formatValues(const fg::Values &values)
{
    auto vector = [](std::string &out, const mat::Vector &v) {
        out += "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            out += (i ? "," : "") + runtime::json::numberToJson(v[i]);
        out += "]";
    };
    std::string out = "{";
    bool first = true;
    for (fg::Key key : values.keys()) {
        out += (first ? "\"" : ",\"") + std::to_string(key) + "\":";
        first = false;
        if (values.isPose(key)) {
            out += "{\"phi\":";
            vector(out, values.pose(key).phi());
            out += ",\"t\":";
            vector(out, values.pose(key).t());
            out += "}";
        } else {
            vector(out, values.vector(key));
        }
    }
    return out + "}";
}

/** The values object of a values response ("" when absent). */
std::string
valuesPayload(const std::string &response)
{
    const std::size_t at = response.find("\"values\":");
    if (at == std::string::npos || response.size() < at + 10)
        return "";
    return response.substr(at + 9, response.size() - at - 10);
}

bool
isOk(const std::string &response)
{
    return response.rfind("{\"ok\":true", 0) == 0;
}

std::uint64_t
numberField(const std::string &response, const char *field)
{
    const std::string key = std::string("\"") + field + "\":";
    const std::size_t at = response.find(key);
    return at == std::string::npos
               ? 0
               : std::strtoull(response.c_str() + at + key.size(),
                               nullptr, 10);
}

/** What one closed-loop client saw. */
struct ClientLog
{
    std::vector<double> submitMs;
    std::vector<double> stepMs;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    std::uint64_t sessions = 0;
    /** Per mission index: values payload and per-frame cycles. */
    std::map<std::size_t, std::string> values;
    std::map<std::size_t, std::vector<std::uint64_t>> cycles;
    /** Oracle findings made while serving (the run fails on any). */
    std::vector<std::string> problems;

    /** Keep the first outcome of a mission; repeats must equal it. */
    void
    record(std::size_t index, std::string payload,
           std::vector<std::uint64_t> frame_cycles,
           const std::string &what)
    {
        auto it = values.find(index);
        if (it == values.end()) {
            values.emplace(index, std::move(payload));
            cycles.emplace(index, std::move(frame_cycles));
        } else if (it->second != payload || cycles[index] != frame_cycles) {
            problems.push_back("a repeat of " + what +
                               " served different values or cycles");
        }
    }
};

/**
 * Serving state of one closed-loop client. For serve-cold the pool of
 * never-seen missions is replayed against a fresh Engine each time it
 * runs out, so every submit still misses the program cache.
 */
struct ServeTarget
{
    runtime::Engine *engine = nullptr;
    std::unique_ptr<runtime::Engine> owned;
    std::unique_ptr<runtime::ProtocolServer> server;

    /** Counters summed over this target's engines, replaced ones too. */
    struct Totals
    {
        std::size_t cacheHits = 0;
        std::uint64_t fallbacks = 0;
        std::uint64_t failures = 0;
        std::size_t peakCached = 0; //!< Largest program cache seen.
    };
    Totals retired;

    Totals
    totals() const
    {
        Totals t = retired;
        if (engine) {
            t.cacheHits += engine->stats().cacheHits;
            t.fallbacks += engine->health().fallbacks.load();
            t.failures += engine->health().failures.load();
            t.peakCached = std::max(t.peakCached, engine->cachedPrograms());
        }
        return t;
    }

    void
    open(runtime::Engine &shared, const std::vector<Mission> &missions)
    {
        engine = &shared;
        server = std::make_unique<runtime::ProtocolServer>(shared);
        registerMissions(*server, missions);
    }

    void
    openFresh(const std::vector<Mission> &missions)
    {
        retired = totals();
        server.reset();
        owned.reset();
        owned = std::make_unique<runtime::Engine>(
            hw::AcceleratorConfig::minimal(true), pinnedEngineOptions());
        open(*owned, missions);
    }
};

Clock::time_point
after(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

/**
 * One closed-loop client: sessions k = first, first + stride, ...
 * until @p deadline, each submit -> steps x step -> values -> close,
 * every request sent only after the previous reply arrived.
 */
void
runClient(ServeTarget &target, const std::vector<Mission> &missions,
          const ServeShape &shape, std::size_t first, std::size_t stride,
          Clock::time_point deadline, ClientLog &log)
try {
    for (std::size_t k = first; Clock::now() < deadline; k += stride) {
        const std::size_t index = k % missions.size();
        if (shape.cold && k > 0 && index == 0)
            target.openFresh(missions);
        runtime::ProtocolServer &server = *target.server;
        const Mission &mission = missions[index];
        ++log.sessions;

        std::int64_t t0 = nowNs();
        std::string response = server.handle(mission.submitLine);
        log.submitMs.push_back((nowNs() - t0) / 1e6);
        ++log.requests;
        if (!isOk(response)) {
            ++log.failed;
            continue;
        }
        const std::string id =
            std::to_string(numberField(response, "session"));
        const std::string step =
            "{\"op\":\"step\",\"session\":" + id + ",\"frames\":1}";
        std::vector<std::uint64_t> cycles;
        for (std::size_t s = 0; s < shape.steps; ++s) {
            t0 = nowNs();
            response = server.handle(step);
            log.stepMs.push_back((nowNs() - t0) / 1e6);
            ++log.requests;
            if (!isOk(response))
                ++log.failed;
            cycles.push_back(numberField(response, "cycles"));
        }
        response =
            server.handle("{\"op\":\"values\",\"session\":" + id + "}");
        ++log.requests;
        if (!isOk(response))
            ++log.failed;
        log.record(index, valuesPayload(response), std::move(cycles),
                   mission.submitLine);
        response =
            server.handle("{\"op\":\"close\",\"session\":" + id + "}");
        ++log.requests;
        if (!isOk(response))
            ++log.failed;
    }
} catch (const std::exception &error) {
    // Runs on a client thread: record the failure, never terminate.
    ++log.failed;
    log.problems.push_back(std::string("client stopped: ") + error.what());
}

/** Everything set-up produces; rebuilt from scratch per repetition. */
struct ServeSetup
{
    std::vector<Mission> missions;
    std::unique_ptr<runtime::Engine> engine;
    double buildMs = 0.0;
};

/** App seeds per serve-cold pool: 12 never-seen missions each. */
constexpr std::size_t kColdSeeds = 30;

ServeSetup
setUp(const RunArgs &args, const ServeShape &shape)
{
    ServeSetup setup;
    const std::int64_t t0 = nowNs();
    std::vector<unsigned> seeds;
    for (std::size_t s = 0; s < (shape.cold ? kColdSeeds : 3); ++s)
        seeds.push_back(deriveSeed(args.seed, s));
    // The warm set is 12 app builds, made on one thread; the cold pool
    // is ten times larger and spread over up to 4.
    setup.missions = buildMissions(
        seeds, shape.cold ? std::max(1u, std::min(4u, std::thread::
                                                           hardware_concurrency()))
                          : 1);
    if (shape.cold) {
        // Some graphs do not depend on the mission seed; a second copy
        // would hit the cache, so only the first is kept.
        std::set<std::uint64_t> seen;
        std::vector<Mission> distinct;
        for (Mission &mission : setup.missions)
            if (seen.insert(runtime::graphFingerprint(
                                mission.graph.graph, mission.graph.initial))
                    .second)
                distinct.push_back(std::move(mission));
        setup.missions = std::move(distinct);
    }
    setup.buildMs = (nowNs() - t0) / 1e6;
    if (shape.cold) // Cold clients bring their own fresh engines.
        return setup;
    setup.engine = std::make_unique<runtime::Engine>(
        hw::AcceleratorConfig::minimal(true), pinnedEngineOptions());
    for (const Mission &mission : setup.missions)
        setup.engine->program(mission.graph.graph, mission.graph.initial, 0,
                              mission.app);
    return setup;
}

/** Missions whose sessions define the deterministic device mix. */
constexpr std::size_t kMixMissions = 36;

/**
 * The oracle: each distinct mission's values, stepped the same number
 * of frames through a direct Session on a fresh single-client Engine,
 * must equal the served values byte for byte. Also measures, for the
 * device-mix missions, how far the served estimate is from the
 * fg::optimize fixed point.
 */
struct Oracle
{
    std::size_t checked = 0;
    std::size_t wrong = 0;
    double gapM = 0.0;
    double optimizeMs = 0.0;
};

Oracle
checkAgainstReference(const std::vector<Mission> &missions,
                      const std::map<std::size_t, std::string> &served,
                      std::size_t steps, Report &report)
{
    Oracle oracle;
    runtime::Engine fresh(hw::AcceleratorConfig::minimal(true),
                          pinnedEngineOptions());
    for (const auto &[index, payload] : served) {
        const Mission &mission = missions[index];
        runtime::Session session = fresh.session(
            mission.graph.graph, mission.graph.initial,
            mission.graph.stepScale, 0, mission.app);
        for (std::size_t s = 0; s < steps; ++s)
            session.step();
        ++oracle.checked;
        if (formatValues(session.values()) != payload &&
            oracle.wrong++ == 0)
            report.fail("values of " + mission.submitLine +
                        " differ from the direct-Session reference");
        if (index < kMixMissions) {
            const std::int64_t t0 = nowNs();
            const fg::OptimizeResult fixed = fg::optimize(
                mission.graph.graph, mission.graph.initial);
            oracle.optimizeMs += (nowNs() - t0) / 1e6;
            oracle.gapM = std::max(oracle.gapM,
                                   maxPoseGap(session.values(), fixed.values));
        }
    }
    char line[200];
    std::snprintf(line, sizeof(line),
                  "oracle: %zu distinct sessions against a fresh engine, "
                  "%zu wrong; max gap of the first %zu to fg::optimize "
                  "%.6g m",
                  oracle.checked, oracle.wrong, kMixMissions, oracle.gapM);
    report.note(line);
    return oracle;
}

/**
 * The traced pass: the same request sequence issued as direct calls
 * to the public functions ProtocolServer::handle is built from, one
 * span per call, the request's root span named after its op. Probes
 * that are no part of a request (graphFingerprint, an ExecutionContext
 * built and run beside the session's, ordering and codegen) are timed
 * beside the span tree.
 */
struct TracedServe
{
    Tracer tracer;
    std::vector<double> fingerprintUs, contextBuildUs, contextRunUs,
        nsPerInstr, orderingUs, codegenUs, stepOverheadUs, stepMs;
    DeviceTally device;
    CompileTally compiles;
    std::uint64_t stepKernelCalls = 0;
    std::uint64_t hits = 0, misses = 0;
    std::map<std::size_t, std::string> values;
};

void
runTraced(ServeTarget &target, const std::vector<Mission> &missions,
          const ServeShape &shape, Clock::time_point deadline,
          TracedServe &out)
{
    Tracer &tracer = out.tracer;
    std::uint64_t request = 0;
    std::set<std::size_t> probed;
    for (std::size_t k = 0; Clock::now() < deadline; ++k) {
        const std::size_t index = k % missions.size();
        if (shape.cold && k > 0 && index == 0)
            target.openFresh(missions);
        runtime::Engine &engine = *target.engine;
        const Mission &mission = missions[index];
        const std::string id = std::to_string(k + 1);

        std::optional<runtime::Session> session;
        fg::FactorGraph graph;
        bool miss = false;
        {
            Scoped root(&tracer, "runtime.protocol.submit", ++request);
            std::string app;
            {
                Scoped span(&tracer, "runtime.protocol.parse", request);
                app = runtime::json::parse(mission.submitLine)
                          ->field("app")
                          ->text;
            }
            runtime::SubmittedGraph submitted;
            {
                Scoped span(&tracer, "apps.mission", request);
                submitted = mission.graph;
            }
            std::shared_ptr<const comp::Program> program;
            {
                const std::size_t compiles = engine.stats().compiles;
                Scoped span(&tracer, "runtime.engine.program", request);
                program = engine.program(submitted.graph,
                                         submitted.initial, 0, app);
                miss = engine.stats().compiles != compiles;
                ++(miss ? out.misses : out.hits);
                tracer.rename(span.index(),
                              miss ? "runtime.engine.program_miss"
                                   : "runtime.engine.program_hit");
            }
            {
                Scoped span(&tracer, "runtime.session.open", request);
                session.emplace(engine.openSession(
                    program, std::move(submitted.initial), nullptr,
                    submitted.stepScale));
            }
            graph = std::move(submitted.graph);
            // Responses are formatted as handle() formats them, then
            // dropped; the submit's fingerprint field is the probe below.
            Scoped span(&tracer, "runtime.protocol.respond", request);
            (void)("{\"ok\":true,\"op\":\"submit\",\"session\":" + id +
                   ",\"app\":" + runtime::json::quote(app) + "}");
        }
        if (miss) {
            const runtime::Engine::CompileRecord record =
                engine.compileLog().back();
            out.compiles.add(record.passes, record.instructions);
        }

        // Probes beside the tree, once per distinct mission.
        std::int64_t t0 = nowNs();
        (void)runtime::graphFingerprint(graph, mission.graph.initial);
        out.fingerprintUs.push_back((nowNs() - t0) / 1e3);
        if (probed.insert(index).second) {
            t0 = nowNs();
            comp::CompileOptions options;
            options.name = mission.app;
            options.ordering = fg::ordering::minDegree(graph);
            out.orderingUs.push_back((nowNs() - t0) / 1e3);
            t0 = nowNs();
            (void)comp::compileGraph(graph, mission.graph.initial, options);
            out.codegenUs.push_back((nowNs() - t0) / 1e3);
        }
        t0 = nowNs();
        runtime::ExecutionContext probe(
            std::vector<const comp::Program *>{&session->program()});
        out.contextBuildUs.push_back((nowNs() - t0) / 1e3);

        const std::string step =
            "{\"op\":\"step\",\"session\":" + id + ",\"frames\":1}";
        for (std::size_t s = 0; s < shape.steps; ++s) {
            std::int32_t root_index = -1, step_index = -1;
            {
                Scoped root(&tracer, "runtime.protocol.step", ++request);
                root_index = root.index();
                {
                    Scoped span(&tracer, "runtime.protocol.parse", request);
                    (void)runtime::json::parse(step)->field("session");
                }
                hw::SimResult frame;
                {
                    const std::uint64_t calls = kernelCalls();
                    Scoped span(&tracer, "runtime.session.step", request);
                    step_index = span.index();
                    frame = session->step();
                    out.stepKernelCalls += kernelCalls() - calls;
                }
                double objective = 0.0;
                {
                    Scoped span(&tracer, "fg.objective", request);
                    objective = graph.totalError(session->values());
                }
                {
                    Scoped span(&tracer, "runtime.protocol.respond",
                                request);
                    (void)("{\"ok\":true,\"op\":\"step\",\"session\":" +
                           id + ",\"frames\":1,\"total_frames\":" +
                           std::to_string(session->frames()) +
                           ",\"cycles\":" +
                           std::to_string(frame.cycles) +
                           ",\"objective\":" +
                           runtime::json::numberToJson(objective) + "}");
                }
                out.device.add(frame);
            }
            const double root_us = tracer.spans()[root_index].us();
            out.stepMs.push_back(root_us / 1e3);
            out.stepOverheadUs.push_back(
                root_us - tracer.spans()[step_index].us());

            probe.bindValues(0, &session->values());
            t0 = nowNs();
            (void)probe.run(engine.config());
            const double run_ns = static_cast<double>(nowNs() - t0);
            out.contextRunUs.push_back(run_ns / 1e3);
            out.nsPerInstr.push_back(
                run_ns / static_cast<double>(probe.instructionCount()));
        }

        std::string payload;
        {
            Scoped root(&tracer, "runtime.protocol.values", ++request);
            {
                Scoped span(&tracer, "runtime.protocol.parse", request);
                (void)runtime::json::parse(
                    "{\"op\":\"values\",\"session\":" + id + "}");
            }
            Scoped span(&tracer, "runtime.protocol.respond", request);
            payload = formatValues(session->values());
        }
        out.values.emplace(index, std::move(payload));
        {
            Scoped root(&tracer, "runtime.protocol.close", ++request);
            {
                Scoped span(&tracer, "runtime.protocol.parse", request);
                (void)runtime::json::parse(
                    "{\"op\":\"close\",\"session\":" + id + "}");
            }
            Scoped span(&tracer, "runtime.session.close", request);
            session.reset();
        }
    }
}

void
reportTraced(const TracedServe &traced, const ServeTarget &target,
             double untraced_p50_ms, Report &report)
{
    const ServeTarget::Totals totals = target.totals();
    const auto spans = durationsByName(traced.tracer);
    report.set("runtime.context.run_us", median(traced.contextRunUs), "us");
    report.set("runtime.context.ns_per_instr", median(traced.nsPerInstr),
               "ns");
    report.set("runtime.context.build_us", median(traced.contextBuildUs),
               "us");
    report.set("runtime.session.step_us",
               medianOf(spans, "runtime.session.step"), "us");
    report.set("runtime.session.open_us",
               medianOf(spans, "runtime.session.open"), "us");
    report.set("runtime.engine.program_hit_us",
               medianOf(spans, "runtime.engine.program_hit"), "us");
    report.set("runtime.engine.program_miss_us",
               medianOf(spans, "runtime.engine.program_miss"), "us");
    report.set("runtime.engine.fingerprint_us",
               median(traced.fingerprintUs), "us");
    report.set("runtime.protocol.step_us",
               medianOf(spans, "runtime.protocol.step"), "us");
    report.set("runtime.protocol.values_us",
               medianOf(spans, "runtime.protocol.values"), "us");
    report.set("runtime.protocol.step_overhead_us",
               median(traced.stepOverheadUs), "us");
    report.set("fg.objective_us", medianOf(spans, "fg.objective"), "us");
    report.set("fg.ordering_us", median(traced.orderingUs), "us");
    report.set("compiler.codegen_us", median(traced.codegenUs), "us");
    traced.compiles.report(report);
    traced.device.report(report, target.engine->config());
    const double lookups = static_cast<double>(traced.hits + traced.misses);
    report.set("runtime.engine.cache_hit_rate",
               lookups > 0 ? traced.hits / lookups : 0.0, "share");
    report.set("runtime.engine.compiles", static_cast<double>(traced.misses),
               "count");
    report.set("runtime.engine.cached_programs",
               static_cast<double>(totals.peakCached), "count");
    report.set("matrix.kernel_calls_per_frame",
               traced.device.frames
                   ? static_cast<double>(traced.stepKernelCalls) /
                         traced.device.frames
                   : 0.0,
               "count");
    report.set("runtime.health.fallbacks",
               static_cast<double>(totals.fallbacks), "count");
    report.set("runtime.health.failures",
               static_cast<double>(totals.failures), "count");
    report.set("trace.overhead_ms",
               percentile(traced.stepMs, 0.5) - untraced_p50_ms, "ms");
    const double unattributed = unattributedShare(traced.tracer);
    report.set("trace.unattributed_share", unattributed, "share");
    if (unattributed > kUnattributedBound)
        report.fail("traced requests: layer spans leave " +
                    std::to_string(unattributed) +
                    " of the time unattributed (bound " +
                    std::to_string(kUnattributedBound) + ")");
}

Report
runServe(const RunArgs &args, const ServeShape &shape)
{
    Report report;
    if (args.trace)
        zeroLayerMetrics(report);

    // Set-up, repeated; the last repetition's state is measured.
    constexpr int kSetups = 5;
    std::vector<double> setup_s, build_ms;
    ServeSetup setup;
    for (int rep = 0; rep < kSetups; ++rep) {
        setup = ServeSetup(); // Free the last repetition's state first.
        const std::int64_t t0 = nowNs();
        setup = setUp(args, shape);
        setup_s.push_back((nowNs() - t0) / 1e9);
        build_ms.push_back(setup.buildMs);
    }
    const std::vector<Mission> &missions = setup.missions;

    // Timed phase: closed-loop clients over the shared engine. The
    // traced run measures one client for half the time untraced, then
    // the same sequence traced for the other half.
    const std::size_t clients = args.trace ? 1 : shape.clients;
    report.note(std::string("workload ") + args.workload + ": " +
                std::to_string(clients) + " closed-loop client(s), " +
                std::to_string(missions.size()) +
                " missions, submit -> " + std::to_string(shape.steps) +
                " x step -> values -> close" +
                (shape.cold ? "; every submit a never-seen graph, the "
                              "pool replayed on a fresh engine"
                            : ""));
    std::vector<ServeTarget> targets(clients);
    for (ServeTarget &target : targets)
        if (shape.cold)
            target.openFresh(missions);
        else
            target.open(*setup.engine, missions);
    std::vector<ClientLog> logs(clients);
    const std::int64_t start = nowNs();
    const Clock::time_point deadline =
        after(args.trace ? args.seconds / 2 : args.seconds);
    {
        std::vector<std::jthread> threads;
        for (std::size_t c = 1; c < clients; ++c)
            threads.emplace_back([&, c]() {
                runClient(targets[c], missions, shape, c, clients,
                          deadline, logs[c]);
            });
        runClient(targets[0], missions, shape, 0, clients, deadline,
                  logs[0]);
    }
    const double elapsed = (nowNs() - start) / 1e9;
    const double peak_rss_mb = peakRssMb();

    // Merge the clients' logs.
    std::vector<double> submit_ms, step_ms;
    ClientLog merged;
    for (ClientLog &log : logs) {
        submit_ms.insert(submit_ms.end(), log.submitMs.begin(),
                         log.submitMs.end());
        step_ms.insert(step_ms.end(), log.stepMs.begin(), log.stepMs.end());
        report.attempted += log.requests;
        report.failed += log.failed;
        merged.sessions += log.sessions;
        for (auto &[index, payload] : log.values)
            merged.record(index, payload, log.cycles[index],
                          missions[index].submitLine);
        merged.problems.insert(merged.problems.end(), log.problems.begin(),
                               log.problems.end());
    }
    if (!merged.problems.empty())
        report.fail(merged.problems.front());
    for (const ServeTarget &target : targets)
        if (shape.cold && target.totals().cacheHits != 0)
            report.fail("a cold submit hit the program cache");
    targets.clear();

    // Deterministic device mix: the first kMixMissions missions.
    std::uint64_t mix_cycles = 0, mix_frames = 0;
    for (std::size_t i = 0; i < std::min(kMixMissions, missions.size());
         ++i) {
        auto it = merged.cycles.find(i);
        if (it == merged.cycles.end()) {
            report.fail("the timed phase ended before mission " +
                        std::to_string(i) + " of the device mix ran");
            break;
        }
        for (std::uint64_t c : it->second)
            mix_cycles += c;
        mix_frames += it->second.size();
    }

    report.noteSamples("submit", submit_ms);
    report.noteSamples("step", step_ms);
    report.note("sessions " + std::to_string(merged.sessions) + " in " +
                std::to_string(elapsed) + " s");

    const double frame_p50 = percentile(step_ms, 0.5);
    if (!args.trace) {
        checkAgainstReference(missions, merged.values, shape.steps, report);
        report.set("setup_s", median(setup_s), "s");
        report.set("frame_p50_ms", frame_p50, "ms");
        report.set("frame_p90_ms", percentile(step_ms, 0.9), "ms");
        report.set("frame_p99_ms", percentile(step_ms, 0.99), "ms");
        report.set("frames_per_s", step_ms.size() / elapsed, "1/s");
        report.set("submit_p50_ms", percentile(submit_ms, 0.5), "ms");
        report.set("submit_p99_ms", percentile(submit_ms, 0.99), "ms");
        report.set("sessions_per_s", merged.sessions / elapsed, "1/s");
        report.set("device_cycles_per_frame",
                   mix_frames ? static_cast<double>(mix_cycles) / mix_frames
                              : 0.0,
                   "cycles");
        report.set("peak_rss_mb", peak_rss_mb, "MB");
        return report;
    }

    // Traced pass over the same sequence; cold starts on a fresh engine.
    ServeTarget traced_target;
    if (shape.cold)
        traced_target.openFresh(missions);
    else
        traced_target.open(*setup.engine, missions);
    TracedServe traced;
    runTraced(traced_target, missions, shape, after(args.seconds / 2),
              traced);
    if (!shape.cold) // Warm compiles all ran in set-up.
        for (const runtime::Engine::CompileRecord &record :
             setup.engine->compileLog())
            traced.compiles.add(record.passes, record.instructions);
    report.attempted += static_cast<std::uint64_t>(std::count_if(
        traced.tracer.spans().begin(), traced.tracer.spans().end(),
        [](const Span &span) { return span.parent < 0; }));
    for (const auto &[index, payload] : traced.values) {
        auto it = merged.values.find(index);
        if (it != merged.values.end() && it->second != payload)
            report.fail("traced values of " + missions[index].submitLine +
                        " differ from the untraced ones");
    }
    std::map<std::size_t, std::string> all = merged.values;
    all.insert(traced.values.begin(), traced.values.end());
    const Oracle oracle =
        checkAgainstReference(missions, all, shape.steps, report);
    reportTraced(traced, traced_target, frame_p50, report);
    report.set("apps.build_ms", median(build_ms), "ms");
    report.set("fg.optimize_ms", oracle.optimizeMs, "ms");
    report.set("max_gap_m", oracle.gapM, "m");
    if (!args.spansPath.empty() && !traced.tracer.write(args.spansPath))
        report.note("could not write spans to " + args.spansPath);
    return report;
}

} // namespace

Report
runServeWarm(const RunArgs &args)
{
    ServeShape shape;
    shape.clients =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    shape.steps = 8;
    return runServe(args, shape);
}

Report
runServeCold(const RunArgs &args)
{
    ServeShape shape;
    shape.cold = true;
    shape.clients = 1;
    shape.steps = 2;
    return runServe(args, shape);
}

} // namespace perfbench
