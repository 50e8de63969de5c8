// Thin API-compatibility wrappers over the orianna::runtime layer.
//
// The scoreboard that used to live here as one monolithic simulate()
// is now runtime::ExecutionContext, which drives the OoO / in-order
// issue policies of runtime/scheduler.hpp. These entry points
// build a context per call so existing one-shot callers keep working
// unchanged; frame loops should hold a context (or a
// runtime::Session) and reuse it.

#include "hw/accelerator.hpp"

#include "runtime/engine.hpp"
#include "runtime/execution_context.hpp"

namespace orianna::hw {

SimResult
simulate(const std::vector<WorkItem> &work,
         const AcceleratorConfig &config)
{
    runtime::ExecutionContext context(work);
    return context.run(config);
}

IteratedResult
simulateIterated(const comp::Program &program, const fg::Values &initial,
                 std::size_t iterations, const AcceleratorConfig &config,
                 double step_scale)
{
    runtime::Session session(program, initial, config, step_scale);
    session.iterate(iterations);
    return {session.values(), session.totals()};
}

} // namespace orianna::hw
