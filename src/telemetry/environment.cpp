#include "telemetry/environment.hpp"

#include <dirent.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace rooftune::telemetry {

namespace {

constexpr const char* kUnknown = "unknown";

/// First line of a sysfs/procfs file, trimmed; nullopt-style "" on failure.
std::string read_line(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::string line;
  std::getline(in, line);
  return util::trim(line);
}

std::int64_t read_int(const std::string& path) {
  const std::string text = read_line(path);
  if (text.empty()) return 0;
  try {
    return std::stoll(text);
  } catch (const std::exception&) {
    return 0;
  }
}

/// Count directory entries matching a prefix followed by a digit
/// (cpu0..cpuN, node0..nodeN).
int count_numbered(const std::string& dir, const std::string& prefix) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  int n = 0;
  while (const dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
        std::isdigit(static_cast<unsigned char>(name[prefix.size()])) != 0) {
      ++n;
    }
  }
  closedir(d);
  return n;
}

/// "member1-member2,member5" sibling lists: count the listed logical CPUs.
int count_cpu_list(const std::string& list) {
  if (list.empty()) return 0;
  int n = 0;
  std::istringstream in(list);
  std::string range;
  while (std::getline(in, range, ',')) {
    const auto dash = range.find('-');
    if (dash == std::string::npos) {
      ++n;
    } else {
      try {
        n += std::stoi(range.substr(dash + 1)) - std::stoi(range.substr(0, dash)) + 1;
      } catch (const std::exception&) {
        ++n;
      }
    }
  }
  return n;
}

/// /proc/cpuinfo key lookup ("model name", "vendor_id", ...), first CPU only.
std::string cpuinfo_field(const std::string& want) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (util::trim(line.substr(0, colon)) == want) {
      return util::trim(line.substr(colon + 1));
    }
  }
  return "";
}

/// The selected THP mode is the bracketed token: "always [madvise] never".
std::string thp_selection() {
  const std::string line =
      read_line("/sys/kernel/mm/transparent_hugepage/enabled");
  const auto open = line.find('[');
  const auto close = line.find(']');
  if (open == std::string::npos || close == std::string::npos || close <= open) {
    return kUnknown;
  }
  return line.substr(open + 1, close - open - 1);
}

std::string turbo_state() {
  // intel_pstate inverts the sense: no_turbo=1 means turbo disabled.
  const std::string no_turbo =
      read_line("/sys/devices/system/cpu/intel_pstate/no_turbo");
  if (no_turbo == "0") return "on";
  if (no_turbo == "1") return "off";
  const std::string boost = read_line("/sys/devices/system/cpu/cpufreq/boost");
  if (boost == "1") return "on";
  if (boost == "0") return "off";
  return kUnknown;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return kUnknown;
#endif
}

std::string build_id() {
#if defined(ROOFTUNE_BUILD_TYPE)
  std::string build = ROOFTUNE_BUILD_TYPE;
#else
  std::string build = kUnknown;
#endif
#if defined(ROOFTUNE_CXX_FLAGS)
  const std::string flags = util::trim(ROOFTUNE_CXX_FLAGS);
  if (!flags.empty()) build += " [" + flags + "]";
#endif
  return build;
}

std::uint64_t hash_string(std::uint64_t h, const std::string& s) {
  h = util::hash_seed(h, s.size());
  for (const char c : s) h = util::hash_seed(h, static_cast<unsigned char>(c));
  return h;
}

std::string string_or_unknown(const util::JsonValue& object, const char* key) {
  return object.has(key) ? object.at(key).as_string() : std::string(kUnknown);
}

int int_or_zero(const util::JsonValue& object, const char* key) {
  return object.has(key) ? object.at(key).as_i32() : 0;
}

std::int64_t int64_or_zero(const util::JsonValue& object, const char* key) {
  return object.has(key) ? object.at(key).as_int() : 0;
}

}  // namespace

EnvironmentFingerprint EnvironmentFingerprint::capture() {
  EnvironmentFingerprint env;

  const std::string model = cpuinfo_field("model name");
  env.cpu_model = model.empty() ? kUnknown : model;
  const std::string vendor = cpuinfo_field("vendor_id");
  const std::string family = cpuinfo_field("cpu family");
  const std::string cpu_model_no = cpuinfo_field("model");
  const std::string stepping = cpuinfo_field("stepping");
  if (!vendor.empty() && !family.empty()) {
    env.uarch = vendor + " " + family + "/" + cpu_model_no + "/" + stepping;
  } else {
    env.uarch = kUnknown;
  }

  env.logical_cpus = count_numbered("/sys/devices/system/cpu", "cpu");
  env.smt = count_cpu_list(read_line(
      "/sys/devices/system/cpu/cpu0/topology/thread_siblings_list"));
  if (env.smt <= 0) env.smt = env.logical_cpus > 0 ? 1 : 0;
  env.physical_cores = env.smt > 0 ? env.logical_cpus / env.smt : 0;
  env.numa_nodes = count_numbered("/sys/devices/system/node", "node");
  if (env.numa_nodes == 0 && env.logical_cpus > 0) env.numa_nodes = 1;

  const std::string cpufreq = "/sys/devices/system/cpu/cpu0/cpufreq/";
  const std::string governor = read_line(cpufreq + "scaling_governor");
  env.governor = governor.empty() ? kUnknown : governor;
  env.freq_min_khz = read_int(cpufreq + "scaling_min_freq");
  env.freq_max_khz = read_int(cpufreq + "scaling_max_freq");
  env.turbo = turbo_state();
  env.thp = thp_selection();
  const std::string aslr = read_line("/proc/sys/kernel/randomize_va_space");
  env.aslr = aslr.empty() ? kUnknown : aslr;
  env.compiler = compiler_id();
  env.build = build_id();
  return env;
}

std::uint64_t EnvironmentFingerprint::stable_hash() const {
  std::uint64_t h = 0xF17E5D0CBEEF2026ull;
  h = hash_string(h, cpu_model);
  h = hash_string(h, uarch);
  h = util::hash_seed(h, static_cast<std::uint64_t>(logical_cpus),
                      static_cast<std::uint64_t>(physical_cores),
                      static_cast<std::uint64_t>(smt),
                      static_cast<std::uint64_t>(numa_nodes));
  h = hash_string(h, governor);
  h = util::hash_seed(h, static_cast<std::uint64_t>(freq_min_khz),
                      static_cast<std::uint64_t>(freq_max_khz));
  h = hash_string(h, turbo);
  h = hash_string(h, thp);
  h = hash_string(h, aslr);
  h = hash_string(h, compiler);
  h = hash_string(h, build);
  return h;
}

void EnvironmentFingerprint::write_fields(util::JsonWriter& w) const {
  w.key("cpu").value(cpu_model);
  w.key("uarch").value(uarch);
  w.key("logical_cpus").value(logical_cpus);
  w.key("cores").value(physical_cores);
  w.key("smt").value(smt);
  w.key("numa").value(numa_nodes);
  w.key("governor").value(governor);
  w.key("freq_min_khz").value(static_cast<long long>(freq_min_khz));
  w.key("freq_max_khz").value(static_cast<long long>(freq_max_khz));
  w.key("turbo").value(turbo);
  w.key("thp").value(thp);
  w.key("aslr").value(aslr);
  w.key("compiler").value(compiler);
  w.key("build").value(build);
}

void EnvironmentFingerprint::write_provenance(util::JsonWriter& w) const {
  w.begin_object();
  w.key("t").value("provenance");
  w.key("v").value(1);
  write_fields(w);
  w.key("env").value(util::format(
      "%016llx", static_cast<unsigned long long>(stable_hash())));
  w.end_object();
}

EnvironmentFingerprint EnvironmentFingerprint::read_fields(
    const util::JsonValue& object) {
  (void)object.as_object();  // refuses a non-object, naming its offset
  EnvironmentFingerprint env;
  env.cpu_model = string_or_unknown(object, "cpu");
  env.uarch = string_or_unknown(object, "uarch");
  env.logical_cpus = int_or_zero(object, "logical_cpus");
  env.physical_cores = int_or_zero(object, "cores");
  env.smt = int_or_zero(object, "smt");
  env.numa_nodes = int_or_zero(object, "numa");
  env.governor = string_or_unknown(object, "governor");
  env.freq_min_khz = int64_or_zero(object, "freq_min_khz");
  env.freq_max_khz = int64_or_zero(object, "freq_max_khz");
  env.turbo = string_or_unknown(object, "turbo");
  env.thp = string_or_unknown(object, "thp");
  env.aslr = string_or_unknown(object, "aslr");
  env.compiler = string_or_unknown(object, "compiler");
  env.build = string_or_unknown(object, "build");
  return env;
}

EnvironmentFingerprint parse_provenance(const util::JsonValue& doc) {
  if (!doc.has("t") || doc.at("t").as_string() != "provenance") {
    throw std::runtime_error("parse_provenance: not a provenance record");
  }
  return EnvironmentFingerprint::read_fields(doc);
}

}  // namespace rooftune::telemetry
