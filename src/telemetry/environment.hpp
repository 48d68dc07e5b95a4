#pragma once
// Machine-environment fingerprint: the provenance record at the head of
// every trace journal.
//
// The paper's methodology (§V) assumes measurements taken on a *stable*
// machine — a governor switch, a turbo toggle, or an SMT change between two
// runs silently invalidates any comparison between them.  The fingerprint
// captures exactly the knobs that change measurement semantics (CPU model,
// topology, cpufreq policy, turbo, THP, ASLR, compiler/build flags), is
// serialized as the first line of every journal, and its stable hash gates
// TuningSession checkpoint resume: a checkpoint recorded under a different
// environment is refused, the same policy as a journal-path mismatch.
//
// Every field degrades to "unknown" (strings) or 0 (numbers) where the
// backing sysfs/procfs file is absent — capture never fails and never
// requires privileges.  No wall-clock timestamps or hostnames: the record
// participates in the journal's bit-identity guarantee on a fixed machine.

#include <cstdint>
#include <string>

namespace rooftune::util {
class JsonWriter;
class JsonValue;
}  // namespace rooftune::util

namespace rooftune::telemetry {

struct EnvironmentFingerprint {
  std::string cpu_model;    ///< /proc/cpuinfo "model name"
  std::string uarch;        ///< vendor + family/model/stepping triple
  int logical_cpus = 0;     ///< online logical CPUs
  int physical_cores = 0;   ///< logical_cpus / smt
  int smt = 0;              ///< threads per core (1 = SMT off)
  int numa_nodes = 0;       ///< /sys/devices/system/node count
  std::string governor;     ///< cpu0 cpufreq scaling_governor
  std::int64_t freq_min_khz = 0;  ///< cpu0 scaling_min_freq
  std::int64_t freq_max_khz = 0;  ///< cpu0 scaling_max_freq
  std::string turbo;        ///< "on" | "off" | "unknown"
  std::string thp;          ///< transparent_hugepage/enabled selection
  std::string aslr;         ///< randomize_va_space value as string
  std::string compiler;     ///< compiler id + __VERSION__
  std::string build;        ///< CMake build type + CXX flags

  /// Read the current environment.  Never throws; unavailable facts come
  /// back as "unknown" / 0.
  [[nodiscard]] static EnvironmentFingerprint capture();

  /// Order-independent stable hash over every field; identical inputs hash
  /// identically across runs and processes (no ASLR-dependent state).  This
  /// is the value recorded in TuningSession checkpoints.
  [[nodiscard]] std::uint64_t stable_hash() const;

  /// Append every field above, cpu through build, as keys of the object
  /// `w` is writing (the export's "environment" object).
  void write_fields(util::JsonWriter& w) const;

  /// The inverse of write_fields over a parsed object: the export's
  /// "environment" object and the journal's provenance record.  Lenient
  /// like capture(): a missing key reads as "unknown" (strings) or 0
  /// (numbers), and other keys are ignored.  A key of the wrong type, or a
  /// value that is not an object, throws std::runtime_error naming the
  /// value's byte offset, which the artifact readers turn into a line and
  /// column.
  [[nodiscard]] static EnvironmentFingerprint read_fields(
      const util::JsonValue& object);

  /// Append the full provenance journal record as one top-level object:
  ///   {"t":"provenance","v":1,...,"env":"<16-hex stable_hash>"}
  void write_provenance(util::JsonWriter& w) const;

  friend bool operator==(const EnvironmentFingerprint&,
                         const EnvironmentFingerprint&) = default;
};

/// Parse a provenance record produced by write_provenance() (its fields
/// through EnvironmentFingerprint::read_fields).  Throws std::runtime_error
/// when the document is not a provenance record.
[[nodiscard]] EnvironmentFingerprint parse_provenance(
    const util::JsonValue& doc);

}  // namespace rooftune::telemetry
