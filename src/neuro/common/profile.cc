#include "neuro/common/profile.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "neuro/common/config.h"
#include "neuro/common/mutex.h"
#include "neuro/telemetry/export.h"
#include "neuro/telemetry/telemetry.h"

namespace neuro {

namespace {

/** One registered shutdown step (see addObservabilityExitHook). */
struct ExitHook
{
    int priority = 0;
    std::size_t seq = 0; ///< registration order, for stable ties.
    std::function<void()> fn;
};

/** Registered hooks behind one lock, like telemetry's GlobalTelemetry. */
struct ExitHookState
{
    Mutex mutex;
    std::vector<ExitHook> hooks NEURO_GUARDED_BY(mutex);
};

ExitHookState &
exitHookState()
{
    // Leaked so late registrations during exit never touch a
    // destroyed vector.
    static ExitHookState *state = new ExitHookState();
    return *state;
}

/** Run every registered hook in priority order (registered once). */
void
observabilityAtExit()
{
    ExitHookState &state = exitHookState();
    std::vector<ExitHook> hooks;
    {
        MutexGuard lock(state.mutex);
        hooks = state.hooks;
    }
    std::stable_sort(hooks.begin(), hooks.end(),
                     [](const ExitHook &a, const ExitHook &b) {
                         return a.priority < b.priority;
                     });
    for (const ExitHook &hook : hooks)
        hook.fn();
}

void
registerAtExitOnce()
{
    static bool registered = false;
    if (registered)
        return;
    registered = true;
    // Built-in shutdown steps. The telemetry flush registers itself at
    // priority 10 when NEURO_METRICS / --metrics is active, so the
    // full sequence is: metrics flush, stats dump, trace finalizer.
    addObservabilityExitHook(20, [] {
        if (Profiler::enabled())
            // The process is exiting: logging may already be torn
            // down, and stderr is the documented sink for
            // NEURO_STATS_DUMP.
            // neurolint: allow(R3)
            telemetry::writeStats(Profiler::instance().snapshot(), std::cerr);
    });
    addObservabilityExitHook(30, [] { Tracer::instance().stop(); });
    std::atexit(observabilityAtExit);
}

/**
 * Environment bootstrap: parseEnv() maps NEURO_TRACE /
 * NEURO_STATS_DUMP / NEURO_METRICS(_PERIOD_MS) onto the config keys
 * initObservability() reads, so every bench and example can record
 * without code changes. The CLI applies its own flags on top.
 */
struct EnvObservabilityInit
{
    EnvObservabilityInit()
    {
        // Static-init, single-threaded; nothing here races setenv.
        Config env;
        env.parseEnv();
        initObservability(env);
    }
};

EnvObservabilityInit g_envObservabilityInit;

} // namespace

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

void
Profiler::setEnabled(bool on)
{
    active_.store(on, std::memory_order_relaxed);
}

telemetry::MetricsSnapshot
Profiler::snapshot() const
{
    return telemetry::MetricRegistry::instance().snapshot();
}

void
Profiler::reset()
{
    telemetry::MetricRegistry::instance().resetValues();
}

telemetry::LatencyHistogram &
ScopeSite::histogram()
{
    // Racing first uses resolve the same series; acquire/release
    // publishes the histogram built under the registry lock.
    telemetry::LatencyHistogram *h =
        histogram_.load(std::memory_order_acquire);
    if (h == nullptr) {
        h = telemetry::MetricRegistry::instance()
                .histogram(std::string("scope/") + name_)
                .get();
        histogram_.store(h, std::memory_order_release);
    }
    return *h;
}

void
obsCount(const char *name, uint64_t delta)
{
    if (!obsEnabled())
        return;
    const auto counter = telemetry::MetricRegistry::instance().counter(name);
    counter->inc(delta);
    if (Tracer::enabled())
        Tracer::instance().counter(name,
                                   static_cast<double>(counter->value()));
}

void
obsSample(const char *name, double v)
{
    if (Profiler::enabled())
        telemetry::MetricRegistry::instance().histogram(name)->record(v);
    if (Tracer::enabled())
        Tracer::instance().counter(name, v);
}

void
obsGauge(const char *name, double v)
{
    if (Profiler::enabled())
        telemetry::MetricRegistry::instance().gauge(name)->set(v);
    if (Tracer::enabled())
        Tracer::instance().counter(name, v);
}

void
initObservability(const Config &cfg)
{
    const std::string trace = cfg.getString("trace", "");
    const bool dump = cfg.getBool("stats_dump", false);
    bool any = false;
    if (!trace.empty())
        any = Tracer::instance().start(trace) || any;
    if (dump || any) {
        Profiler::instance().setEnabled(true);
        any = true;
    }
    const std::string metrics = cfg.getString("metrics", "");
    if (!metrics.empty()) {
        telemetry::TelemetryConfig tcfg;
        tcfg.path = metrics;
        const int64_t ms = cfg.getInt("metrics_period_ms", 100);
        if (ms >= 1)
            tcfg.periodMillis = ms;
        telemetry::startGlobalTelemetry(tcfg);
    }
    if (any)
        registerAtExitOnce();
}

void
addObservabilityExitHook(int priority, std::function<void()> hook)
{
    registerAtExitOnce();
    ExitHookState &state = exitHookState();
    MutexGuard lock(state.mutex);
    state.hooks.push_back(
        {priority, state.hooks.size(), std::move(hook)});
}

} // namespace neuro
