/**
 * @file
 * Exporters serializing a MetricsSnapshot (and the Sampler's timeline
 * ring) into the formats the telemetry layer speaks
 * (docs/observability.md):
 *
 * - Prometheus text exposition: counters and gauges as plain series,
 *   histograms as summaries (`{quantile="0.5|0.95|0.99"}` plus `_sum`
 *   and `_count`); dotted metric names are sanitized to underscores,
 *   a model label prints as `{model="..."}`, and each family gets one
 *   `# TYPE` line.
 * - JSON: one object with "counters" / "gauges" / "histograms" maps
 *   keyed by seriesKey() — a snapshot a load harness can consume
 *   without a Prometheus parser.
 * - CSV timeline: one row per sampler tick, one column per series
 *   (histograms contribute `.count/.p50_us/.p95_us/.p99_us` columns),
 *   following the repo's `bench_*.csv` conventions (header row, %.6g
 *   values).
 * - Stats dump: the human-readable end-of-run listing behind
 *   NEURO_STATS_DUMP / `neurocmp stats` — one line per series, the
 *   value at column 40.
 *
 * All outputs are deterministic for a quiescent registry: series are
 * name-sorted and every number is formatted with one fixed rule (%.6g
 * floats), independent of the stream's state, so golden-file tests
 * and CI diffs never flake on formatting.
 */

#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "neuro/telemetry/metrics.h"
#include "neuro/telemetry/sampler.h"

namespace neuro {
namespace telemetry {

/** @return @p name with every non-[a-zA-Z0-9_:] byte replaced by '_'
 *  (Prometheus metric-name alphabet). */
std::string prometheusName(const std::string &name);

/** Write @p snap in Prometheus text exposition format. */
void writePrometheus(const MetricsSnapshot &snap, std::ostream &os);

/** Write @p snap as a JSON object. */
void writeJson(const MetricsSnapshot &snap, std::ostream &os);

/**
 * Write @p snap as the stats dump: a `---------- stats ----------`
 * banner, then counters, gauges and histograms, each sorted by name,
 * one `<series key padded to 40 columns><value>` line per series.
 * Histogram lines read `n=<count> total=<sum> mean=<sum/n> p50=<p50>
 * p99=<p99> max=<max>` in the histogram's unit (µs for the profiler's
 * `scope/<name>` timings).
 */
void writeStats(const MetricsSnapshot &snap, std::ostream &os);

/**
 * Write the sampler timeline as CSV: header `time_s,<metric>,...`
 * with columns the sorted union of every metric seen across @p rows
 * (a metric registered mid-run is empty in earlier rows).
 */
void writeTimelineCsv(const std::vector<Sampler::Row> &rows,
                      std::ostream &os);

} // namespace telemetry
} // namespace neuro
