#include "core/session.hpp"

#include <charconv>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string_view>

#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/log.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace rooftune::core {

namespace {

/// Format tag and version of the header line.  Checkpoints written before
/// the invocation log (one JSON object per file) carry neither.
constexpr std::string_view kFormat = "rooftune-checkpoint";
constexpr std::uint64_t kVersion = 2;

std::string hex64(std::uint64_t v) {
  return util::format("%016llx", static_cast<unsigned long long>(v));
}

// JSON numbers round-trip through %.12g and lose low bits, so doubles are
// stored as the hex image of their IEEE-754 bits: a replayed invocation is
// bit-identical to the measured one.
std::string double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return hex64(bits);
}

double bits_double(std::string_view hex) {
  std::uint64_t bits = 0;
  const auto [end, ec] = std::from_chars(hex.data(), hex.data() + hex.size(), bits, 16);
  if (hex.empty() || ec != std::errc() || end != hex.data() + hex.size()) {
    throw std::runtime_error("'" + std::string(hex) + "' is not a hex double image");
  }
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void optional_bits(util::JsonWriter& w, const char* key, std::optional<double> v) {
  if (v.has_value()) {
    w.key(key).value(double_bits(*v));
  } else {
    w.key(key).null();
  }
}

std::optional<double> optional_double(const util::JsonValue& v) {
  if (v.is_null()) return std::nullopt;
  return bits_double(v.as_string());
}

/// One log line: the invocation's key, then every field of InvocationResult
/// the schedulers, reports and exports read.
std::string record_line(std::uint64_t ordinal, std::uint64_t invocation,
                        const InvocationResult& inv) {
  util::JsonWriter w;
  w.begin_object();
  w.key("ord").value(ordinal);
  w.key("inv").value(invocation);
  w.key("count").value(inv.moments.count());
  w.key("mean_bits").value(double_bits(inv.moments.mean()));
  w.key("ssd_bits").value(double_bits(inv.moments.sum_squared_deviations()));
  w.key("iterations").value(inv.iterations);
  w.key("stop").value(to_string(inv.stop_reason));
  w.key("rising").value(inv.trend_rising);
  w.key("kernel_bits").value(double_bits(inv.kernel_time.value));
  w.key("wall_bits").value(double_bits(inv.wall_time.value));
  w.key("setup_bits").value(double_bits(inv.setup_time.value));
  if (inv.bottleneck.has_value()) {
    // Counter-prune evidence: the racing calibration scan reads the
    // measured OI, the prune rules the bound in the run's metric.
    w.key("counter").begin_object();
    w.key("class").value(to_string(inv.bottleneck->cls));
    w.key("gflops_bits").value(double_bits(inv.bottleneck->bound_gflops));
    optional_bits(w, "bound_bits", inv.counter_bound);
    optional_bits(w, "oi_bits", inv.bottleneck->oi);
    w.key("widened").value(inv.bottleneck->widened);
    w.end_object();
  }
  w.end_object();
  w.line_break();
  return std::move(w).str();
}

InvocationLog::Record parse_record(const util::JsonValue& doc) {
  InvocationLog::Record record;
  record.ordinal = doc.at("ord").as_u64();
  record.invocation = doc.at("inv").as_u64();
  InvocationResult& inv = record.result;
  inv.iterations = doc.at("iterations").as_u64();
  const std::uint64_t count = doc.at("count").as_u64();
  if (count == 0 || count > inv.iterations) {
    throw std::runtime_error("sample count " + std::to_string(count) +
                             " does not fit " + std::to_string(inv.iterations) +
                             " iterations");
  }
  inv.moments = stats::OnlineMoments::from_raw(count,
                                               bits_double(doc.at("mean_bits").as_string()),
                                               bits_double(doc.at("ssd_bits").as_string()));
  const std::string_view stop = doc.at("stop").as_string();
  const auto reason = stop_reason_from_string(stop);
  if (!reason.has_value()) {
    throw std::runtime_error("unknown stop reason '" + std::string(stop) + "'");
  }
  inv.stop_reason = *reason;
  inv.trend_rising = doc.at("rising").as_bool();
  inv.kernel_time = util::Seconds{bits_double(doc.at("kernel_bits").as_string())};
  inv.wall_time = util::Seconds{bits_double(doc.at("wall_bits").as_string())};
  inv.setup_time = util::Seconds{bits_double(doc.at("setup_bits").as_string())};
  if (doc.has("counter")) {
    const util::JsonValue counter = doc.at("counter");
    const std::string_view name = counter.at("class").as_string();
    const auto cls = bottleneck_class_from_string(name);
    if (!cls.has_value()) {
      throw std::runtime_error("unknown bottleneck class '" + std::string(name) + "'");
    }
    BottleneckVerdict verdict;
    verdict.cls = *cls;
    verdict.bound_gflops = bits_double(counter.at("gflops_bits").as_string());
    verdict.oi = optional_double(counter.at("oi_bits"));
    verdict.widened = counter.at("widened").as_bool();
    inv.bottleneck = verdict;
    inv.counter_bound = optional_double(counter.at("bound_bits"));
  }
  return record;
}

std::string where(const std::string& path, std::size_t line) {
  return "TuningSession: checkpoint '" + path + "' line " + std::to_string(line) + ": ";
}

/// Run `read` for line `line`, prefixing any error with the checkpoint and
/// line.  Malformed JSON stays std::invalid_argument.
template <class Read>
void at_line(const std::string& path, std::size_t line, Read&& read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(where(path, line) + e.what());
  } catch (const std::exception& e) {
    throw std::runtime_error(where(path, line) + e.what());
  }
}

/// Forwards to the run's journal only once the log is live, so the
/// replayed prefix re-emits nothing.
class LiveOnlySink final : public TraceSink {
 public:
  LiveOnlySink(TraceSink* inner, const InvocationLog& log) : inner_(inner), log_(log) {}
  void emit(const TraceEvent& event) override {
    if (log_.live()) inner_->emit(event);
  }
  void kernel_phase_begin() override { inner_->kernel_phase_begin(); }
  void kernel_phase_end() override { inner_->kernel_phase_end(); }
  [[nodiscard]] std::optional<CounterSample> kernel_phase_counters() const override {
    return inner_->kernel_phase_counters();
  }

 private:
  TraceSink* inner_;
  const InvocationLog& log_;
};

}  // namespace

InvocationLog::InvocationLog(std::string path, const std::string& header,
                             std::vector<Record> records, std::size_t keep_bytes)
    : path_(std::move(path)), records_(std::move(records)) {
  if (keep_bytes == 0) {
    if (!util::write_text_file(path_, header)) {
      throw std::runtime_error("TuningSession: cannot write " + path_);
    }
  } else {
    std::filesystem::resize_file(path_, keep_bytes);  // drop a torn last line
  }
  out_.open(path_, std::ios::app);
  if (!out_) throw std::runtime_error("TuningSession: cannot write " + path_);
  live_ = records_.empty();
}

std::optional<InvocationResult> InvocationLog::replay(const TraceContext& ctx,
                                                      std::uint64_t invocation,
                                                      TraceSink* trace) {
  if (next_ < records_.size()) {
    Record& record = records_[next_++];
    if (record.ordinal != ctx.config_ordinal || record.invocation != invocation) {
      throw std::runtime_error(
          where(path_, record.line) + "records configuration " +
          std::to_string(record.ordinal) + " invocation " +
          std::to_string(record.invocation) + " but the run asks for configuration " +
          std::to_string(ctx.config_ordinal) + " invocation " + std::to_string(invocation));
    }
    if (invocation == 0) ++restored_;
    return std::move(record.result);
  }
  if (!live_) {
    live_ = true;
    util::log_info() << "TuningSession: replayed " << records_.size()
                     << " invocations of " << restored_ << " configurations from "
                     << path_;
    if (trace != nullptr) {
      TraceEvent event;
      event.kind = TraceEvent::Kind::Resume;
      event.epoch = ctx.epoch;
      event.config_ordinal = ctx.config_ordinal;
      event.invocation = invocation;
      event.rank = 0;
      event.restored_configs = restored_;
      trace->emit(event);
    }
  }
  return std::nullopt;
}

void InvocationLog::append(std::uint64_t ordinal, std::uint64_t invocation,
                           const InvocationResult& result) {
  const std::string line = record_line(ordinal, invocation, result);
  const util::ProfileSpan span(util::ProfileCategory::Checkpoint, line.size());
  out_ << line;
  out_.flush();
  if (!out_) throw std::runtime_error("TuningSession: cannot append to " + path_);
}

void InvocationLog::expect_drained() const {
  if (next_ < records_.size()) {
    throw std::runtime_error(where(path_, records_[next_].line) +
                             "the run ended before this record");
  }
}

TuningSession::TuningSession(SearchSpace space, TunerOptions options,
                             std::string checkpoint_path)
    : space_(std::move(space)), options_(options), path_(std::move(checkpoint_path)) {
  if (path_.empty()) throw std::invalid_argument("TuningSession: empty checkpoint path");
}

std::uint64_t TuningSession::fingerprint() const {
  std::uint64_t h = 0xF17E9B12ull;
  const SpaceView view(space_, options_.order, options_.random_seed);
  for (std::size_t i = 0; i < view.size(); ++i) {
    h = util::hash_seed(h, view.at(i).hash());
  }
  h = util::hash_seed(h, options_.invocations, options_.iterations,
                      static_cast<std::uint64_t>(options_.timeout.value * 1e6),
                      static_cast<std::uint64_t>(options_.confidence * 1e6),
                      static_cast<std::uint64_t>(options_.tolerance * 1e6),
                      static_cast<std::uint64_t>(options_.confidence_stop),
                      static_cast<std::uint64_t>(options_.inner_prune),
                      static_cast<std::uint64_t>(options_.outer_prune),
                      options_.prune_min_count,
                      static_cast<std::uint64_t>(options_.strategy),
                      options_.racing_min_invocations, options_.racing_iterations);
  if (options_.strategy == SearchStrategy::Surrogate) {
    // The seed sample and confirm set depend on these knobs (and on the
    // random seed even in Forward order).
    h = util::hash_seed(h, options_.surrogate_seed_budget,
                        options_.surrogate_confirm_top, options_.random_seed);
  }
  if (options_.counter_prune) {
    // Counter-prune decisions depend on the margin/window and the roofline
    // ceilings.  Doubles enter as their IEEE-754 bit images.
    const auto bits = [](double v) {
      std::uint64_t b;
      std::memcpy(&b, &v, sizeof b);
      return b;
    };
    h = util::hash_seed(h, bits(options_.counter_prune_margin),
                        options_.counter_prune_window,
                        bits(options_.counter_peak_gflops),
                        bits(options_.counter_dram_gbps));
  }
  return h;
}

std::string TuningSession::header() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("format").value(std::string(kFormat));
  w.key("version").value(kVersion);
  // Hex strings: JSON numbers cannot carry every 64-bit hash exactly.
  w.key("fingerprint").value(hex64(fingerprint()));
  // The journal path is not part of the fingerprint (attaching a trace
  // never invalidates a checkpoint), but a resume under a different path
  // would split one run's journal across two files.
  if (options_.trace_path.empty()) {
    w.key("trace").null();
  } else {
    w.key("trace").value(options_.trace_path);
  }
  if (options_.env_fingerprint == 0) {
    w.key("env").null();
  } else {
    w.key("env").value(hex64(options_.env_fingerprint));
  }
  w.key("strategy").value(to_string(options_.strategy));
  w.end_object();
  w.line_break();
  return std::move(w).str();
}

TuningRun TuningSession::run(Backend& backend) {
  std::vector<InvocationLog::Record> records;
  std::size_t keep_bytes = 0;
  // Only a regular file holds a log to resume.  A device such as /dev/full
  // reads as endless zeros; it is written, and refused, like a new log.
  if (std::filesystem::is_regular_file(path_)) {
    const auto text = util::read_text_file(path_);
    if (!text) throw std::runtime_error("TuningSession: cannot read checkpoint '" + path_ + "'");
    const std::string_view all(*text);
    util::JsonDocument parsed;
    std::size_t line = 0;
    for (std::size_t begin = 0; begin < all.size();) {
      const std::size_t newline = all.find('\n', begin);
      // A line without its newline is torn by a kill mid-append, unless it
      // is the header, which must always be read.
      if (newline == std::string_view::npos && line > 0) break;
      const std::size_t end = newline == std::string_view::npos ? all.size() : newline;
      const std::string_view text_line = all.substr(begin, end - begin);
      ++line;
      at_line(path_, line, [&] {
        parsed.parse(text_line);
        const util::JsonValue doc = parsed.root();
        if (line > 1) {
          records.push_back(parse_record(doc));
          records.back().line = line;
          return;
        }
        if (!doc.has("format") || doc.at("format").as_string() != kFormat ||
            doc.at("version").as_u64() != kVersion) {
          throw std::runtime_error(
              "not an invocation log of this rooftune version (an older "
              "checkpoint format); delete it to start over");
        }
        if (doc.at("fingerprint").as_string() != hex64(fingerprint())) {
          throw std::runtime_error("written by a different space/options combination");
        }
        const std::string recorded =
            doc.at("trace").is_null() ? "" : std::string(doc.at("trace").as_string());
        if (recorded != options_.trace_path) {
          throw std::runtime_error("records trace path '" + recorded +
                                   "' but this run uses '" + options_.trace_path +
                                   "'; resume with the same --trace path");
        }
        // Only fires when both sides carry an environment fingerprint, so
        // embedders without telemetry keep resuming.
        if (options_.env_fingerprint != 0 && !doc.at("env").is_null() &&
            doc.at("env").as_string() != hex64(options_.env_fingerprint)) {
          throw std::runtime_error(
              "records environment fingerprint " + std::string(doc.at("env").as_string()) +
              " but this run executes under " + hex64(options_.env_fingerprint) +
              "; the machine state (governor/turbo/topology/build) changed — "
              "measurements are not comparable.  Re-establish the original "
              "environment or delete the checkpoint to start over");
        }
      });
      if (newline == std::string_view::npos) break;
      keep_bytes = newline + 1;
      begin = newline + 1;
    }
  }

  InvocationLog log(path_, header(), std::move(records), keep_bytes);
  TunerOptions options = options_;
  options.checkpoint = &log;
  LiveOnlySink muted(options_.trace, log);
  if (options.trace != nullptr) options.trace = &muted;
  TuningRun run = Autotuner(space_, options).run(backend);
  log.expect_drained();
  resumed_ = log.restored_configs();
  std::filesystem::remove(path_);
  return run;
}

}  // namespace rooftune::core
