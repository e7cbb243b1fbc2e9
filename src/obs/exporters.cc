#include "obs/exporters.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>

#include "util/string_util.h"

namespace cloudybench::obs {

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

}  // namespace

util::Status WriteStringFile(const std::string& path,
                             const std::string& content) {
  // Templated per-cell artifact paths routinely point into directories that
  // do not exist yet ("timelines/{sut}/..."); create them.
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::InvalidArgument("cannot open for writing: " + path);
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  if (!out) return util::Status::Internal("short write: " + path);
  return util::Status::OK();
}

namespace {

std::string ChromeTraceJsonImpl(const TraceRecorder& recorder,
                                const Timeline* timeline) {
  std::string out;
  out.reserve(128 + recorder.span_count() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"cloudybench\"}}";
  for (const auto& [track, name] : recorder.track_names()) {
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    AppendInt(&out, static_cast<int64_t>(track));
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    out += util::JsonEscape(name);
    out += "\"}}";
  }
  for (const Span& span : recorder.spans()) {
    if (span.end_us < 0) continue;  // open span: not representable as "X"
    out += ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":";
    AppendInt(&out, static_cast<int64_t>(span.track));
    out += ",\"ts\":";
    AppendInt(&out, span.begin_us);
    out += ",\"dur\":";
    AppendInt(&out, span.end_us - span.begin_us);
    out += ",\"cat\":\"";
    out += LayerName(span.layer);
    out += "\",\"name\":\"";
    out += util::JsonEscape(span.name);
    out += "\"";
    if (span.label >= 0) {
      out += ",\"args\":{\"label\":";
      AppendInt(&out, span.label);
      out += ",\"committed\":";
      out += span.committed ? "true" : "false";
      out += "}";
    }
    out += "}";
  }
  if (timeline != nullptr) {
    // Journal overlay: global instant events render as vertical markers
    // across every lane in Perfetto.
    for (const TimelineEvent& event : timeline->events()) {
      out += ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":";
      AppendInt(&out, event.t_us);
      out += ",\"s\":\"g\",\"cat\":\"timeline\",\"name\":\"";
      out += util::JsonEscape(event.kind);
      out += "\",\"args\":{\"scope\":\"";
      out += util::JsonEscape(event.scope);
      out += "\",\"detail\":\"";
      out += util::JsonEscape(event.detail);
      out += "\",\"value\":";
      AppendDouble(&out, event.value);
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace

std::string ChromeTraceJson(const TraceRecorder& recorder) {
  return ChromeTraceJsonImpl(recorder, nullptr);
}

std::string ChromeTraceJson(const TraceRecorder& recorder,
                            const Timeline& timeline) {
  return ChromeTraceJsonImpl(recorder, &timeline);
}

util::Status WriteChromeTraceFile(const TraceRecorder& recorder,
                                  const std::string& path) {
  return WriteStringFile(path, ChromeTraceJson(recorder));
}

std::string MetricsJsonl(const MetricRegistry& registry) {
  std::string out;
  for (const auto& [name, counter] : registry.counters()) {
    out += "{\"name\":\"";
    out += util::JsonEscape(name);
    out += "\",\"type\":\"counter\",\"value\":";
    AppendInt(&out, counter.value());
    out += "}\n";
  }
  for (const auto& [name, value] : registry.GaugeValues()) {
    out += "{\"name\":\"";
    out += util::JsonEscape(name);
    out += "\",\"type\":\"gauge\",\"value\":";
    AppendDouble(&out, value);
    out += "}\n";
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    out += "{\"name\":\"";
    out += util::JsonEscape(name);
    out += "\",\"type\":\"histogram\",\"count\":";
    AppendInt(&out, histogram->count());
    out += ",\"mean_us\":";
    AppendDouble(&out, histogram->mean());
    out += ",\"p50_us\":";
    AppendDouble(&out, histogram->p50());
    out += ",\"p95_us\":";
    AppendDouble(&out, histogram->p95());
    out += ",\"p99_us\":";
    AppendDouble(&out, histogram->p99());
    out += ",\"max_us\":";
    AppendDouble(&out, histogram->max());
    out += "}\n";
  }
  for (const auto& [name, series] : registry.series()) {
    out += "{\"name\":\"";
    out += util::JsonEscape(name);
    out += "\",\"type\":\"series\",\"points\":[";
    bool first = true;
    for (const auto& point : series->points()) {
      if (!first) out += ",";
      first = false;
      out += "[";
      AppendDouble(&out, point.time_s);
      out += ",";
      AppendDouble(&out, point.value);
      out += "]";
    }
    out += "]}\n";
  }
  return out;
}

util::Status WriteMetricsJsonlFile(const MetricRegistry& registry,
                                   const std::string& path) {
  return WriteStringFile(path, MetricsJsonl(registry));
}

namespace {

/// Streams the timeline as one merged sequence ordered by (t_us, samples
/// before events, metric name / journal emission order). Samples live in
/// per-metric vectors, each already time-sorted; this is a k-way merge with
/// the name-ordered metric map providing the deterministic tie-break.
void ForEachTimelineRow(
    const Timeline& timeline,
    const std::function<void(const std::string&, const Timeline::SamplePoint&)>&
        on_sample,
    const std::function<void(const TimelineEvent&)>& on_event) {
  struct Cursor {
    const std::string* name;
    const std::vector<Timeline::SamplePoint>* points;
    size_t next = 0;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(timeline.samples().size());
  for (const auto& [name, points] : timeline.samples()) {
    if (!points.empty()) cursors.push_back(Cursor{&name, &points, 0});
  }
  const std::vector<TimelineEvent>& events = timeline.events();
  size_t next_event = 0;
  for (;;) {
    Cursor* best = nullptr;
    for (Cursor& cursor : cursors) {
      if (cursor.next >= cursor.points->size()) continue;
      if (best == nullptr || (*cursor.points)[cursor.next].t_us <
                                 (*best->points)[best->next].t_us) {
        best = &cursor;
      }
    }
    bool have_event = next_event < events.size();
    if (best == nullptr && !have_event) break;
    if (best != nullptr &&
        (!have_event ||
         (*best->points)[best->next].t_us <= events[next_event].t_us)) {
      on_sample(*best->name, (*best->points)[best->next]);
      ++best->next;
    } else {
      on_event(events[next_event]);
      ++next_event;
    }
  }
}

/// CSV fields are unquoted; the emitters never use commas, but a free-form
/// detail string might — degrade it to ';' rather than corrupt the row.
void AppendCsvField(std::string* out, const std::string& field) {
  for (char c : field) {
    *out += (c == ',' || c == '\n') ? ';' : c;
  }
}

}  // namespace

std::string TimelineCsv(const Timeline& timeline) {
  std::string out = "t_us,record,name,kind,value,detail\n";
  out.reserve(out.size() +
              (timeline.sample_count() + timeline.event_count()) * 48);
  ForEachTimelineRow(
      timeline,
      [&out](const std::string& name, const Timeline::SamplePoint& point) {
        AppendInt(&out, point.t_us);
        out += ",sample,";
        AppendCsvField(&out, name);
        out += ",,";
        AppendDouble(&out, point.value);
        out += ",\n";
      },
      [&out](const TimelineEvent& event) {
        AppendInt(&out, event.t_us);
        out += ",event,";
        AppendCsvField(&out, event.scope);
        out += ",";
        AppendCsvField(&out, event.kind);
        out += ",";
        AppendDouble(&out, event.value);
        out += ",";
        AppendCsvField(&out, event.detail);
        out += "\n";
      });
  return out;
}

std::string TimelineJsonl(const Timeline& timeline) {
  std::string out;
  out.reserve((timeline.sample_count() + timeline.event_count()) * 64);
  // Delta encoding for samples: a metric's row is emitted only when its
  // value differs from the last row emitted for that metric (the first
  // sample always lands). Cumulative counters and converged gauges sampled
  // every 500ms sim-time are mostly flat, so this shrinks the JSONL without
  // losing information — a reader reconstructs the dense series by holding
  // each metric's last value. The CSV stays dense (plotting tools want
  // aligned rows), and since sample order and values are deterministic, the
  // delta-encoded bytes stay --jobs-independent too.
  std::map<std::string, double, std::less<>> last_emitted;
  ForEachTimelineRow(
      timeline,
      [&out, &last_emitted](const std::string& name,
                            const Timeline::SamplePoint& point) {
        auto it = last_emitted.find(name);
        if (it != last_emitted.end() && it->second == point.value) return;
        if (it == last_emitted.end()) {
          last_emitted.emplace(name, point.value);
        } else {
          it->second = point.value;
        }
        out += "{\"t_us\":";
        AppendInt(&out, point.t_us);
        out += ",\"record\":\"sample\",\"name\":\"";
        out += util::JsonEscape(name);
        out += "\",\"value\":";
        AppendDouble(&out, point.value);
        out += "}\n";
      },
      [&out](const TimelineEvent& event) {
        out += "{\"t_us\":";
        AppendInt(&out, event.t_us);
        out += ",\"record\":\"event\",\"scope\":\"";
        out += util::JsonEscape(event.scope);
        out += "\",\"kind\":\"";
        out += util::JsonEscape(event.kind);
        out += "\",\"detail\":\"";
        out += util::JsonEscape(event.detail);
        out += "\",\"value\":";
        AppendDouble(&out, event.value);
        out += "}\n";
      });
  return out;
}

util::Status WriteTimelineCsvFile(const Timeline& timeline,
                                  const std::string& path) {
  return WriteStringFile(path, TimelineCsv(timeline));
}

util::Status WriteTimelineJsonlFile(const Timeline& timeline,
                                    const std::string& path) {
  return WriteStringFile(path, TimelineJsonl(timeline));
}

std::string OracleVerdictsJsonl(const std::vector<OracleVerdictRow>& rows) {
  std::string out;
  for (const OracleVerdictRow& row : rows) {
    out += "{\"case\":\"";
    out += util::JsonEscape(row.case_id);
    out += "\",\"sut\":\"";
    out += util::JsonEscape(row.sut);
    out += "\",\"seed\":";
    AppendInt(&out, static_cast<int64_t>(row.seed));
    out += ",\"plan\":\"";
    out += util::JsonEscape(row.plan);
    out += "\",\"oracle\":\"";
    out += util::JsonEscape(row.oracle);
    out += "\",\"pass\":";
    out += row.pass ? "true" : "false";
    out += ",\"detail\":\"";
    out += util::JsonEscape(row.detail);
    out += "\"}\n";
  }
  return out;
}

util::Status WriteOracleVerdictsJsonlFile(
    const std::vector<OracleVerdictRow>& rows, const std::string& path) {
  return WriteStringFile(path, OracleVerdictsJsonl(rows));
}

}  // namespace cloudybench::obs
