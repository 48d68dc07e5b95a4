#include "telemetry/report.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/json_parse.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace rooftune::telemetry {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error(
      util::format("telemetry sidecar line %zu: %s", line_no, what.c_str()));
}

double number_or(const util::JsonValue& doc, const char* key, double fallback) {
  return doc.has(key) ? doc.at(key).as_number() : fallback;
}

SpanRecord parse_span(const util::JsonValue& doc) {
  SpanRecord r;
  r.epoch = doc.at("epoch").as_u64();
  r.config_ordinal = doc.at("ord").as_u64();
  r.invocation = doc.at("inv").as_u64();
  r.span.freq_begin_mhz = number_or(doc, "freq_begin_mhz", 0.0);
  r.span.freq_end_mhz = number_or(doc, "freq_end_mhz", 0.0);
  r.span.freq_mean_mhz = number_or(doc, "freq_mean_mhz", 0.0);
  r.span.temp_c = number_or(doc, "temp_c", 0.0);
  r.span.pkg_joules = number_or(doc, "pkg_j", 0.0);
  r.span.dram_joules = number_or(doc, "dram_j", 0.0);
  r.span.valid = true;
  if (doc.has("flops")) r.flops = doc.at("flops").as_number();
  r.kernel_s = number_or(doc, "kernel_s", 0.0);
  r.wall_s = number_or(doc, "wall_s", 0.0);
  return r;
}

HostSample parse_host(const util::JsonValue& doc) {
  HostSample s;
  s.offset_s = number_or(doc, "off_s", 0.0);
  if (doc.has("freq_mean_mhz")) {
    s.freq_min_mhz = number_or(doc, "freq_min_mhz", 0.0);
    s.freq_max_mhz = number_or(doc, "freq_max_mhz", 0.0);
    s.freq_mean_mhz = doc.at("freq_mean_mhz").as_number();
    s.freq_valid = true;
  }
  if (doc.has("temp_c")) {
    s.temp_c = doc.at("temp_c").as_number();
    s.temp_valid = true;
  }
  if (doc.has("pkg_j")) {
    s.pkg_j = doc.at("pkg_j").as_number();
    s.dram_j = number_or(doc, "dram_j", 0.0);
    s.energy_valid = true;
  }
  return s;
}

}  // namespace

SidecarData read_sidecar(const std::string& text) {
  SidecarData data;
  util::JsonDocument parsed;
  const std::string_view all(text);
  std::size_t line_no = 0;
  bool saw_header = false;
  for (std::size_t begin = 0; begin < all.size();) {
    const std::size_t newline = all.find('\n', begin);
    const std::size_t end = newline == std::string_view::npos ? all.size() : newline;
    const std::string_view line = all.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\n\v\f\r") == std::string_view::npos) continue;
    // One catch adds the line number to every failure on this line: parse
    // errors, accessor errors (missing field, wrong type) and bad tags.
    try {
      parsed.parse(line);
      const util::JsonValue doc = parsed.root();
      if (!doc.has("t")) throw std::runtime_error("missing record tag \"t\"");
      const std::string tag = doc.at("t").as_string();
      if (line_no == 1 || !saw_header) {
        if (tag != "telemetry") {
          throw std::runtime_error("expected {\"t\":\"telemetry\"} header, got \"" +
                                   tag + "\"");
        }
        saw_header = true;
      } else if (tag == "span") {
        data.spans.push_back(parse_span(doc));
      } else if (tag == "host") {
        data.host.push_back(parse_host(doc));
      } else if (tag == "sampler") {
        SamplerStats stats;
        stats.samples = doc.at("samples").as_u64();
        stats.dropped = doc.at("dropped").as_u64();
        stats.period_s = number_or(doc, "period_s", 0.0);
        data.sampler = stats;
      } else {
        throw std::runtime_error("unknown record tag \"" + tag + "\"");
      }
    } catch (const std::out_of_range& e) {
      fail(line_no, std::string("missing field: ") + e.what());
    } catch (const std::exception& e) {
      fail(line_no, e.what());
    }
  }
  if (!saw_header) throw std::runtime_error("telemetry sidecar: empty input");
  return data;
}

SidecarData read_sidecar_file(const std::string& path) {
  const auto text = util::read_text_file(path);
  if (!text) {
    throw std::runtime_error("telemetry sidecar: cannot read " + path);
  }
  return read_sidecar(*text);
}

StabilityReport analyze_stability(const SidecarData& data,
                                  double drift_threshold) {
  StabilityReport report;
  report.drift_threshold = drift_threshold;
  if (data.spans.empty()) return report;

  for (const SpanRecord& r : data.spans) {
    report.sustained_max_mhz =
        std::max(report.sustained_max_mhz, r.span.freq_begin_mhz);
  }
  const double throttle_line =
      report.sustained_max_mhz * (1.0 - drift_threshold);

  std::map<std::uint64_t, std::vector<const SpanRecord*>> by_config;
  for (const SpanRecord& r : data.spans) {
    by_config[r.config_ordinal].push_back(&r);
  }

  for (const auto& [ordinal, spans] : by_config) {
    ConfigStability c;
    c.config_ordinal = ordinal;
    c.spans = spans.size();
    double sum = 0.0;
    for (const SpanRecord* r : spans) {
      sum += r->span.freq_mean_mhz;
      c.pkg_joules += r->span.pkg_joules;
      if (r->flops.has_value()) c.gflop += *r->flops / 1e9;
      if (report.sustained_max_mhz > 0.0 &&
          r->span.freq_end_mhz < throttle_line) {
        ++c.throttle_events;
      }
      if (report.sustained_max_mhz > 0.0 && r->span.freq_end_mhz > 0.0) {
        report.worst_drift = std::max(
            report.worst_drift,
            1.0 - r->span.freq_end_mhz / report.sustained_max_mhz);
      }
    }
    c.freq_mean_mhz = sum / static_cast<double>(spans.size());
    if (spans.size() >= 2 && c.freq_mean_mhz > 0.0) {
      double ss = 0.0;
      for (const SpanRecord* r : spans) {
        const double d = r->span.freq_mean_mhz - c.freq_mean_mhz;
        ss += d * d;
      }
      c.freq_cv = std::sqrt(ss / static_cast<double>(spans.size() - 1)) /
                  c.freq_mean_mhz;
    }
    if (c.pkg_joules > 0.0 && c.gflop > 0.0) {
      c.joules_per_gflop = c.pkg_joules / c.gflop;
      c.gflops_per_watt = c.gflop / c.pkg_joules;
    }
    report.throttle_events += c.throttle_events;
    report.configs.push_back(c);
  }
  return report;
}

std::string render_stability_report(const StabilityReport& report) {
  if (report.empty()) return "";
  std::ostringstream out;
  out << "Machine stability (sustained max "
      << util::format("%.0f", report.sustained_max_mhz) << " MHz, throttle line "
      << util::format("%.0f", (1.0 - report.drift_threshold) * 100.0)
      << " % of max)\n";
  util::TextTable table;
  table.columns({"Config", "Spans", "Mean MHz", "Freq CV", "Throttle",
                 "J/GFLOP", "GFLOP/s/W"},
                {util::Align::Right, util::Align::Right, util::Align::Right,
                 util::Align::Right, util::Align::Right, util::Align::Right,
                 util::Align::Right});
  for (const ConfigStability& c : report.configs) {
    table.add_row({std::to_string(c.config_ordinal), std::to_string(c.spans),
                   util::format("%.0f", c.freq_mean_mhz),
                   util::format("%.2f%%", c.freq_cv * 100.0),
                   std::to_string(c.throttle_events),
                   c.joules_per_gflop > 0.0
                       ? util::format("%.3f", c.joules_per_gflop)
                       : "-",
                   c.gflops_per_watt > 0.0
                       ? util::format("%.3f", c.gflops_per_watt)
                       : "-"});
  }
  out << table.render();
  out << "Throttle events: " << report.throttle_events << " (worst drift "
      << util::format("%.1f", report.worst_drift * 100.0) << " % below max)\n";
  return out.str();
}

RunQuality assess_run_quality(const EnvironmentFingerprint& env,
                              const StabilityReport* stability,
                              double drift_threshold) {
  RunQuality quality;
  if (env.governor != "performance" && env.governor != "unknown") {
    quality.warnings.push_back(
        "cpufreq governor is \"" + env.governor +
        "\" — measurements ride the DVFS ramp; set the performance governor");
  }
  if (env.turbo == "on") {
    quality.warnings.push_back(
        "turbo is enabled — clock opportunism inflates short-kernel rates; "
        "disable turbo for comparable runs");
  }
  if (stability != nullptr && !stability->empty()) {
    if (stability->worst_drift > drift_threshold) {
      quality.warnings.push_back(util::format(
          "frequency drifted %.1f %% below the sustained maximum "
          "(threshold %.0f %%) — thermal throttling during the run",
          stability->worst_drift * 100.0, drift_threshold * 100.0));
    }
  }
  return quality;
}

std::string render_run_quality(const RunQuality& quality) {
  if (quality.ok()) return "run quality: ok\n";
  std::string out;
  for (const std::string& warning : quality.warnings) {
    out += "run quality: WARN " + warning + "\n";
  }
  return out;
}

}  // namespace rooftune::telemetry
