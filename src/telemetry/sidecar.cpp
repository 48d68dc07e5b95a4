#include "telemetry/sidecar.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace rooftune::telemetry {

TelemetrySidecar::TelemetrySidecar(std::string path) : path_(std::move(path)) {}

void TelemetrySidecar::record_span(const core::TraceEvent& event) {
  if (event.kind != core::TraceEvent::Kind::Invocation) return;
  if (!event.telemetry.has_value() || !event.telemetry->valid) return;
  const std::scoped_lock lock(mutex_);
  SpanRecord record;
  record.epoch = event.epoch;
  record.config_ordinal = event.config_ordinal;
  record.invocation = event.invocation;
  record.span = *event.telemetry;
  record.flops = event.flops;
  record.kernel_s = event.kernel_s;
  record.wall_s = event.wall_s;
  record.seq = seq_++;
  spans_.push_back(record);
}

void TelemetrySidecar::add_host_sample(const HostSample& sample) {
  const std::scoped_lock lock(mutex_);
  host_.push_back(sample);
}

void TelemetrySidecar::set_sampler_stats(const SamplerStats& stats) {
  const std::scoped_lock lock(mutex_);
  stats_ = stats;
}

std::size_t TelemetrySidecar::span_count() const {
  const std::scoped_lock lock(mutex_);
  return spans_.size();
}

std::string TelemetrySidecar::str() const {
  std::vector<SpanRecord> spans;
  std::vector<HostSample> host;
  std::optional<SamplerStats> stats;
  {
    const std::scoped_lock lock(mutex_);
    spans = spans_;
    host = host_;
    stats = stats_;
  }
  // Same logical order as the journal merge (rank is constant for spans),
  // seq as the tie-break — never serialized.
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              const auto key = [](const SpanRecord& r) {
                return std::make_tuple(r.epoch, r.config_ordinal, r.invocation,
                                       r.seq);
              };
              return key(a) < key(b);
            });

  util::JsonWriter w;
  w.begin_object();
  w.key("t").value("telemetry");
  w.key("v").value(1);
  w.end_object();
  w.line_break();

  for (const SpanRecord& r : spans) {
    w.begin_object();
    w.key("t").value("span");
    w.key("epoch").value(r.epoch);
    w.key("ord").value(r.config_ordinal);
    w.key("inv").value(r.invocation);
    w.key("freq_begin_mhz").value(r.span.freq_begin_mhz);
    w.key("freq_end_mhz").value(r.span.freq_end_mhz);
    w.key("freq_mean_mhz").value(r.span.freq_mean_mhz);
    w.key("temp_c").value(r.span.temp_c);
    w.key("pkg_j").value(r.span.pkg_joules);
    w.key("dram_j").value(r.span.dram_joules);
    if (r.flops.has_value()) w.key("flops").value(*r.flops);
    w.key("kernel_s").value(r.kernel_s);
    w.key("wall_s").value(r.wall_s);
    w.end_object();
    w.line_break();
  }

  for (const HostSample& s : host) {
    w.begin_object();
    w.key("t").value("host");
    w.key("off_s").value(s.offset_s);
    if (s.freq_valid) {
      w.key("freq_min_mhz").value(s.freq_min_mhz);
      w.key("freq_max_mhz").value(s.freq_max_mhz);
      w.key("freq_mean_mhz").value(s.freq_mean_mhz);
    }
    if (s.temp_valid) w.key("temp_c").value(s.temp_c);
    if (s.energy_valid) {
      w.key("pkg_j").value(s.pkg_j);
      w.key("dram_j").value(s.dram_j);
    }
    w.end_object();
    w.line_break();
  }

  if (stats.has_value()) {
    w.begin_object();
    w.key("t").value("sampler");
    w.key("samples").value(stats->samples);
    w.key("dropped").value(stats->dropped);
    w.key("period_s").value(stats->period_s);
    w.end_object();
    w.line_break();
  }
  return std::move(w).str();
}

void TelemetrySidecar::flush() const {
  if (path_.empty()) return;
  if (!util::write_text_file(path_, str())) {
    throw std::runtime_error("telemetry: write to '" + path_ + "' failed");
  }
}

}  // namespace rooftune::telemetry
