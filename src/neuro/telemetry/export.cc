#include "neuro/telemetry/export.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <set>

namespace neuro {
namespace telemetry {

namespace {

/** Fixed %.6g float formatting, independent of any std::ostream state
 *  the caller left behind, so every telemetry artifact is byte-stable
 *  for golden tests and run-to-run diffs. */
std::string
formatValue(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
formatCount(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Minimal JSON string escaping; metric names are dotted identifiers,
 *  but quote anything that would break the document anyway. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

/** Prometheus label-value escaping: backslash, quote, newline. */
std::string
labelEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '\\' || c == '"' || c == '\n')
            out.push_back('\\');
        out.push_back(c == '\n' ? 'n' : c);
    }
    return out;
}

/**
 * Label set of one Prometheus sample: `{model="m",<extra>}`, just
 * `{<extra>}` for the unlabeled series, or nothing when both are
 * empty.
 */
std::string
promLabels(const std::string &model, const std::string &extra = "")
{
    std::string labels;
    if (!model.empty())
        labels = "model=\"" + labelEscape(model) + "\"";
    if (!extra.empty())
        labels += (labels.empty() ? "" : ",") + extra;
    return labels.empty() ? labels : "{" + labels + "}";
}

/** Emit `# TYPE` once per metric family: snapshots keep every series
 *  of one name adjacent, so a change of name starts a new family. */
void
typeLine(std::ostream &os, const std::string &name, const char *type,
         std::string &lastFamily)
{
    if (name == lastFamily)
        return;
    lastFamily = name;
    os << "# TYPE " << name << " " << type << "\n";
}

/** Left-pad @p key to the stats dump's 40-column value alignment. */
std::string
padKey(const std::string &key)
{
    std::string out = key;
    if (out.size() < 40)
        out.append(40 - out.size(), ' ');
    return out;
}

/** One `"<title>": {...}` member of the JSON export: a map from series
 *  key to whatever @p writeValue prints, then @p trailer. */
template <typename V, typename Fn>
void
jsonSection(std::ostream &os, const char *title,
            const std::vector<V> &values, Fn &&writeValue,
            const char *trailer)
{
    os << "  \"" << title << "\": {";
    for (std::size_t i = 0; i < values.size(); ++i) {
        os << (i == 0 ? "\n" : ",\n") << "    \""
           << jsonEscape(seriesKey(values[i].name, values[i].model))
           << "\": ";
        writeValue(values[i]);
    }
    os << (values.empty() ? "}" : "\n  }") << trailer;
}

} // namespace

std::string
prometheusName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok)
            c = '_';
    }
    return out;
}

void
writePrometheus(const MetricsSnapshot &snap, std::ostream &os)
{
    std::string family;
    for (const auto &c : snap.counters) {
        const std::string name = prometheusName(c.name);
        typeLine(os, name, "counter", family);
        os << name << promLabels(c.model) << " " << formatCount(c.value)
           << "\n";
    }
    for (const auto &g : snap.gauges) {
        const std::string name = prometheusName(g.name);
        typeLine(os, name, "gauge", family);
        os << name << promLabels(g.model) << " " << formatValue(g.value)
           << "\n";
    }
    for (const auto &h : snap.histograms) {
        const std::string name = prometheusName(h.name);
        typeLine(os, name, "summary", family);
        os << name << promLabels(h.model, "quantile=\"0.5\"") << " "
           << formatValue(h.summary.p50Us) << "\n";
        os << name << promLabels(h.model, "quantile=\"0.95\"") << " "
           << formatValue(h.summary.p95Us) << "\n";
        os << name << promLabels(h.model, "quantile=\"0.99\"") << " "
           << formatValue(h.summary.p99Us) << "\n";
        os << name << "_sum" << promLabels(h.model) << " "
           << formatValue(h.summary.sumUs) << "\n";
        os << name << "_count" << promLabels(h.model) << " "
           << formatCount(h.summary.count) << "\n";
    }
}

void
writeJson(const MetricsSnapshot &snap, std::ostream &os)
{
    os << "{\n";
    jsonSection(
        os, "counters", snap.counters,
        [&](const auto &c) { os << formatCount(c.value); }, ",\n");
    jsonSection(
        os, "gauges", snap.gauges,
        [&](const auto &g) { os << formatValue(g.value); }, ",\n");
    jsonSection(
        os, "histograms", snap.histograms,
        [&](const auto &h) {
            os << "{\"count\": " << formatCount(h.summary.count)
               << ", \"p50_us\": " << formatValue(h.summary.p50Us)
               << ", \"p95_us\": " << formatValue(h.summary.p95Us)
               << ", \"p99_us\": " << formatValue(h.summary.p99Us)
               << ", \"max_us\": " << formatValue(h.summary.maxUs)
               << ", \"sum_us\": " << formatValue(h.summary.sumUs)
               << "}";
        },
        "\n");
    os << "}\n";
}

void
writeTimelineCsv(const std::vector<Sampler::Row> &rows,
                 std::ostream &os)
{
    // One cell map per row; the header is the sorted union of their
    // keys, so a metric registered mid-run gets empty cells before its
    // first appearance.
    std::vector<std::map<std::string, std::string>> cells(rows.size());
    std::set<std::string> columns;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const MetricsSnapshot &snap = rows[r].snapshot;
        std::map<std::string, std::string> &row = cells[r];
        for (const auto &c : snap.counters)
            row[seriesKey(c.name, c.model)] = formatCount(c.value);
        for (const auto &g : snap.gauges)
            row[seriesKey(g.name, g.model)] = formatValue(g.value);
        for (const auto &h : snap.histograms) {
            const std::string key = seriesKey(h.name, h.model);
            row[key + ".count"] = formatCount(h.summary.count);
            row[key + ".p50_us"] = formatValue(h.summary.p50Us);
            row[key + ".p95_us"] = formatValue(h.summary.p95Us);
            row[key + ".p99_us"] = formatValue(h.summary.p99Us);
        }
        for (const auto &[column, cell] : row)
            columns.insert(column);
    }
    os << "time_s";
    for (const auto &column : columns)
        os << "," << column;
    os << "\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        os << formatValue(rows[r].timeS);
        for (const auto &column : columns) {
            const auto it = cells[r].find(column);
            os << "," << (it != cells[r].end() ? it->second : "");
        }
        os << "\n";
    }
}

void
writeStats(const MetricsSnapshot &snap, std::ostream &os)
{
    os << "---------- stats ----------\n";
    for (const auto &c : snap.counters)
        os << padKey(seriesKey(c.name, c.model)) << formatCount(c.value)
           << "\n";
    for (const auto &g : snap.gauges)
        os << padKey(seriesKey(g.name, g.model)) << formatValue(g.value)
           << "\n";
    for (const auto &h : snap.histograms) {
        const LatencyHistogram::Summary &s = h.summary;
        const double mean =
            s.count ? s.sumUs / static_cast<double>(s.count) : 0.0;
        os << padKey(seriesKey(h.name, h.model))
           << "n=" << formatCount(s.count)
           << " total=" << formatValue(s.sumUs)
           << " mean=" << formatValue(mean)
           << " p50=" << formatValue(s.p50Us)
           << " p99=" << formatValue(s.p99Us)
           << " max=" << formatValue(s.maxUs) << "\n";
    }
    os << "---------------------------\n";
}

} // namespace telemetry
} // namespace neuro
