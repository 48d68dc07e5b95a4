#include "roofline/advisor.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/strings.hpp"

namespace rooftune::roofline {

namespace {

std::size_t default_memory_index(const RooflineModel& model) {
  for (std::size_t i = 0; i < model.memory().size(); ++i) {
    if (model.memory()[i].name.find("DRAM") != std::string::npos) return i;
  }
  return 0;
}

}  // namespace

KernelAssessment assess(const RooflineModel& model, util::Intensity intensity,
                        std::size_t compute_index, std::size_t memory_index) {
  if (model.compute().empty() || model.memory().empty()) {
    throw std::invalid_argument("assess: model has no ceilings");
  }
  if (memory_index == static_cast<std::size_t>(-1)) {
    memory_index = default_memory_index(model);
  }
  KernelAssessment a;
  a.intensity = intensity;
  a.attainable = model.attainable(intensity, compute_index, memory_index);
  a.memory_bound = model.memory_bound(intensity, compute_index, memory_index);
  a.ridge = model.ridge_point(compute_index, memory_index);
  const double peak = model.compute()[compute_index].value.value;
  a.compute_fraction = peak > 0.0 ? a.attainable.value / peak : 0.0;
  return a;
}

std::vector<RankedMachine> rank_machines(const std::vector<RooflineModel>& models,
                                         util::Intensity intensity) {
  std::vector<RankedMachine> ranking;
  ranking.reserve(models.size());
  for (const auto& model : models) {
    if (model.compute().empty() || model.memory().empty()) continue;
    const std::size_t ci = model.compute().size() - 1;  // full system
    // DRAM ceiling matching the last (largest) socket configuration: pick
    // the last DRAM-named ceiling, else the last memory ceiling.
    std::size_t mi = model.memory().size() - 1;
    for (std::size_t i = model.memory().size(); i-- > 0;) {
      if (model.memory()[i].name.find("DRAM") != std::string::npos) {
        mi = i;
        break;
      }
    }
    RankedMachine r;
    r.machine = model.machine_name;
    r.attainable = model.attainable(intensity, ci, mi);
    r.memory_bound = model.memory_bound(intensity, ci, mi);
    ranking.push_back(r);
  }
  std::sort(ranking.begin(), ranking.end(), [](const auto& a, const auto& b) {
    return a.attainable.value > b.attainable.value;
  });
  return ranking;
}

std::string to_json(const RooflineModel& model) {
  util::JsonWriter w;
  w.begin_object();
  w.key("machine").value(model.machine_name);
  w.key("compute_ceilings").begin_array();
  for (const auto& c : model.compute()) {
    w.begin_object();
    w.key("name").value(c.name);
    w.key("gflops").value(c.value.value);
    if (c.theoretical.value > 0.0) {
      w.key("theoretical_gflops").value(c.theoretical.value);
      w.key("utilization").value(*c.utilization());
    }
    w.key("best_config").value(c.best_config.to_string());
    w.key("tuning_time_seconds").value(c.tuning_time.value);
    w.end_object();
  }
  w.end_array();
  w.key("memory_ceilings").begin_array();
  for (const auto& m : model.memory()) {
    w.begin_object();
    w.key("name").value(m.name);
    w.key("gbps").value(m.value.value);
    if (m.theoretical.value > 0.0) {
      w.key("theoretical_gbps").value(m.theoretical.value);
      w.key("utilization").value(*m.utilization());
    }
    w.key("best_config").value(m.best_config.to_string());
    w.end_object();
  }
  w.end_array();
  if (model.energy().has_value()) {
    const EnergyCeiling& e = *model.energy();
    w.key("energy_ceiling").begin_object();
    w.key("name").value(e.name);
    w.key("tdp_w").value(e.tdp_w);
    w.key("gflops_per_watt").value(e.gflops_per_watt);
    if (e.theoretical_gflops_per_watt > 0.0) {
      w.key("theoretical_gflops_per_watt").value(e.theoretical_gflops_per_watt);
      w.key("utilization").value(*e.utilization());
    }
    w.end_object();
  }
  w.end_object();
  return std::move(w).str();
}

namespace {

/// "n=1000,m=4096,k=128" -> Configuration (inverse of Configuration::to_string).
core::Configuration config_from_string(const std::string& text) {
  std::vector<core::Parameter> params;
  if (!text.empty()) {
    for (const auto& part : util::split(text, ',')) {
      const auto eq = part.find('=');
      std::int64_t value = 0;
      const char* last = part.data() + part.size();
      const auto [end, ec] =
          eq == std::string::npos
              ? std::from_chars_result{nullptr, std::errc::invalid_argument}
              : std::from_chars(part.data() + eq + 1, last, value);
      if (ec != std::errc() || end != last) {
        throw std::invalid_argument("model_from_json: bad config '" + text + "'");
      }
      params.push_back({part.substr(0, eq), value});
    }
  }
  return core::Configuration(std::move(params));
}

}  // namespace

RooflineModel model_from_json(const std::string& json) {
  util::JsonDocument parsed;
  util::parse_located<std::invalid_argument>(parsed, json, "model_from_json: malformed JSON");
  const util::JsonValue doc = parsed.root();
  RooflineModel model;
  model.machine_name = doc.at("machine").as_string();

  for (const auto& entry : doc.at("compute_ceilings").as_array()) {
    ComputeCeiling c;
    c.name = entry.at("name").as_string();
    c.value = util::GFlops{entry.at("gflops").as_number()};
    if (entry.has("theoretical_gflops")) {
      c.theoretical = util::GFlops{entry.at("theoretical_gflops").as_number()};
    }
    c.best_config = config_from_string(entry.at("best_config").as_string());
    if (entry.has("tuning_time_seconds")) {
      c.tuning_time = util::Seconds{entry.at("tuning_time_seconds").as_number()};
    }
    model.add_compute(std::move(c));
  }
  for (const auto& entry : doc.at("memory_ceilings").as_array()) {
    MemoryCeiling m;
    m.name = entry.at("name").as_string();
    m.value = util::GBps{entry.at("gbps").as_number()};
    if (entry.has("theoretical_gbps")) {
      m.theoretical = util::GBps{entry.at("theoretical_gbps").as_number()};
    }
    m.best_config = config_from_string(entry.at("best_config").as_string());
    model.add_memory(std::move(m));
  }
  if (doc.has("energy_ceiling")) {
    const util::JsonValue entry = doc.at("energy_ceiling");
    EnergyCeiling e;
    e.name = entry.at("name").as_string();
    e.tdp_w = entry.at("tdp_w").as_number();
    e.gflops_per_watt = entry.at("gflops_per_watt").as_number();
    if (entry.has("theoretical_gflops_per_watt")) {
      e.theoretical_gflops_per_watt =
          entry.at("theoretical_gflops_per_watt").as_number();
    }
    model.set_energy(std::move(e));
  }
  return model;
}

}  // namespace rooftune::roofline
