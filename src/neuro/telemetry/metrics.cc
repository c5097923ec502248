#include "neuro/telemetry/metrics.h"

#include "neuro/common/logging.h"

namespace neuro {
namespace telemetry {

namespace {

/** @return the (name, model) entry of a sorted snapshot vector. */
template <typename V>
const V *
findSeries(const std::vector<V> &values, const std::string &name,
           const std::string &model)
{
    for (const V &v : values) {
        if (v.name == name && v.model == model)
            return &v;
    }
    return nullptr;
}

/** @return true if @p map holds any series of @p name. */
template <typename Map>
bool
hasName(const Map &map, const std::string &name)
{
    const auto it = map.lower_bound({name, std::string()});
    return it != map.end() && it->first.first == name;
}

} // namespace

uint64_t
MetricsSnapshot::counter(const std::string &name,
                         const std::string &model) const
{
    const CounterValue *c = findSeries(counters, name, model);
    return c ? c->value : 0;
}

double
MetricsSnapshot::gauge(const std::string &name,
                       const std::string &model) const
{
    const GaugeValue *g = findSeries(gauges, name, model);
    return g ? g->value : 0.0;
}

LatencyHistogram::Summary
MetricsSnapshot::histogram(const std::string &name,
                           const std::string &model) const
{
    const HistogramValue *h = findSeries(histograms, name, model);
    return h ? h->summary : LatencyHistogram::Summary{};
}

std::string
seriesKey(const std::string &name, const std::string &model)
{
    return model.empty() ? name : name + "{model=" + model + "}";
}

MetricRegistry &
MetricRegistry::instance()
{
    // Leaked on purpose: the registry must outlive every exit hook and
    // any worker thread still publishing during shutdown. A static
    // pointer keeps it reachable, so LeakSanitizer stays quiet.
    static MetricRegistry *registry = new MetricRegistry();
    return *registry;
}

void
MetricRegistry::assertKindFree(const std::string &name,
                               const char *kind) const
{
    // mutex_ is held by the caller (enforced by NEURO_REQUIRES).
    const int kinds = static_cast<int>(hasName(counters_, name)) +
                      static_cast<int>(hasName(gauges_, name)) +
                      static_cast<int>(hasName(histograms_, name));
    NEURO_ASSERT(kinds == 0,
                 "metric '%s' already registered as a different kind "
                 "(requested %s)",
                 name.c_str(), kind);
}

template <typename T>
std::shared_ptr<T>
MetricRegistry::findOrCreate(SeriesMap<T> &map, const char *kind,
                             const std::string &name,
                             const std::string &model)
{
    Key key{name, model};
    auto it = map.find(key);
    if (it != map.end())
        return it->second;
    if (!hasName(map, name))
        assertKindFree(name, kind);
    auto metric = std::make_shared<T>();
    map.emplace(std::move(key), metric);
    return metric;
}

std::shared_ptr<Counter>
MetricRegistry::counter(const std::string &name, const std::string &model)
{
    MutexGuard lock(mutex_);
    return findOrCreate(counters_, "counter", name, model);
}

std::shared_ptr<Gauge>
MetricRegistry::gauge(const std::string &name, const std::string &model)
{
    MutexGuard lock(mutex_);
    return findOrCreate(gauges_, "gauge", name, model);
}

std::shared_ptr<LatencyHistogram>
MetricRegistry::histogram(const std::string &name,
                          const std::string &model)
{
    MutexGuard lock(mutex_);
    return findOrCreate(histograms_, "histogram", name, model);
}

MetricsSnapshot
MetricRegistry::snapshot() const
{
    MetricsSnapshot snap;
    MutexGuard lock(mutex_);
    snap.counters.reserve(counters_.size());
    for (const auto &[key, metric] : counters_)
        snap.counters.push_back({key.first, key.second, metric->value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto &[key, metric] : gauges_)
        snap.gauges.push_back({key.first, key.second, metric->value()});
    snap.histograms.reserve(histograms_.size());
    for (const auto &[key, metric] : histograms_)
        snap.histograms.push_back(
            {key.first, key.second, metric->summary()});
    return snap;
}

void
MetricRegistry::resetValues()
{
    MutexGuard lock(mutex_);
    for (auto &[key, metric] : counters_)
        metric->reset();
    for (auto &[key, metric] : gauges_)
        metric->reset();
    for (auto &[key, metric] : histograms_)
        metric->reset();
}

std::size_t
MetricRegistry::size() const
{
    MutexGuard lock(mutex_);
    return counters_.size() + gauges_.size() + histograms_.size();
}

} // namespace telemetry
} // namespace neuro
