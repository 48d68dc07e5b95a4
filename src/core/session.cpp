#include "core/session.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/log.hpp"
#include "util/profiler.hpp"
#include "util/strings.hpp"
#include "util/rng.hpp"

namespace rooftune::core {

TuningSession::TuningSession(SearchSpace space, TunerOptions options,
                             std::string checkpoint_path)
    : space_(std::move(space)), options_(options), path_(std::move(checkpoint_path)) {
  if (path_.empty()) throw std::invalid_argument("TuningSession: empty checkpoint path");
}

std::uint64_t TuningSession::fingerprint() const {
  std::uint64_t h = 0xF17E9B12ull;
  // Hash the walked configuration sequence through the lazy view (same
  // sequence ordered(enumerate()) used to produce, so existing checkpoint
  // fingerprints are preserved).
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
    // random seed even in Forward order); mixed in only for the surrogate
    // strategy so pre-existing exhaustive/racing fingerprints are unchanged.
    h = util::hash_seed(h, options_.surrogate_seed_budget,
                        options_.surrogate_confirm_top, options_.random_seed);
  }
  if (options_.counter_prune) {
    // Counter-prune decisions depend on the margin/window and the roofline
    // ceilings; mixed in only when armed so pre-existing fingerprints are
    // unchanged.  Doubles enter as their IEEE-754 bit images.
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

namespace {

/// Environment fingerprint (telemetry::EnvironmentFingerprint stable hash)
/// recorded so a resume on a changed machine state is refused.  Stored as a
/// hex string for the same reason as the space/options fingerprint.
void write_env_fingerprint(util::JsonWriter& w, std::uint64_t env) {
  if (env == 0) {
    w.key("env").null();
  } else {
    w.key("env").value(util::format("%016llx", static_cast<unsigned long long>(env)));
  }
}

/// Refuse to resume under a different machine environment.  DVFS governor,
/// turbo state, SMT topology and THP policy all move the ceilings being
/// measured, so mixing measurements across them corrupts the search.  The
/// check only fires when both sides carry a fingerprint (nonzero): old
/// checkpoints and embedders without telemetry keep resuming as before.
void check_env_fingerprint(const util::JsonValue& doc, std::uint64_t current,
                           const std::string& checkpoint_path) {
  if (current == 0 || !doc.has("env") || doc.at("env").is_null()) return;
  const std::string recorded = doc.at("env").as_string();
  const std::string ours =
      util::format("%016llx", static_cast<unsigned long long>(current));
  if (recorded != ours) {
    throw std::runtime_error(
        "TuningSession: checkpoint '" + checkpoint_path +
        "' records environment fingerprint " + recorded +
        " but this run executes under " + ours +
        "; the machine state (governor/turbo/topology/build) changed — "
        "measurements are not comparable.  Re-establish the original "
        "environment or delete the checkpoint to start over");
  }
}

StopReason stop_reason_from(std::string_view text) {
  if (const auto reason = stop_reason_from_string(text)) return *reason;
  throw std::runtime_error("TuningSession: unknown stop reason '" +
                           std::string(text) + "'");
}

/// Refuse to resume a traced run under a different journal path — the
/// journal would silently split across files.  Checkpoints predating the
/// trace field (no "trace" key) are treated as untraced.
void check_trace_path(const util::JsonValue& doc, const std::string& trace_path,
                      const std::string& checkpoint_path) {
  std::string recorded;
  if (doc.has("trace") && !doc.at("trace").is_null()) {
    recorded = doc.at("trace").as_string();
  }
  if (recorded != trace_path) {
    throw std::runtime_error(
        "TuningSession: checkpoint '" + checkpoint_path +
        "' records trace path '" + recorded + "' but this run uses '" +
        trace_path + "'; resume with the same --trace path");
  }
}

// Resumed racing/surrogate runs must be bit-identical, but JSON numbers
// round-trip through %.12g and lose low bits.  Doubles in those checkpoints
// are therefore stored as the hex image of their IEEE-754 bits (same
// precedent as the fingerprint field).
std::string double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return util::format("%016llx", static_cast<unsigned long long>(bits));
}

/// An unsigned integer written as a string (hex double images, space
/// indices), all digits or an error.
std::uint64_t parse_u64(std::string_view text, int base) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size()) {
    throw std::runtime_error("TuningSession: '" + std::string(text) +
                             "' is not a base-" + std::to_string(base) + " integer");
  }
  return value;
}

double bits_double(std::string_view hex) {
  const std::uint64_t bits = parse_u64(hex, 16);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

const char* to_string(RacingScheduler::Status status) {
  switch (status) {
    case RacingScheduler::Status::Racing: return "racing";
    case RacingScheduler::Status::Finished: return "finished";
    case RacingScheduler::Status::Eliminated: return "eliminated";
  }
  return "?";
}

RacingScheduler::Status racing_status_from(std::string_view text) {
  for (const auto s : {RacingScheduler::Status::Racing,
                       RacingScheduler::Status::Finished,
                       RacingScheduler::Status::Eliminated}) {
    if (text == to_string(s)) return s;
  }
  throw std::runtime_error("TuningSession: unknown racing status '" +
                           std::string(text) + "'");
}

/// One bit-exact record per completed invocation ("invocations": [...]).
/// Shared by the racing entries and the surrogate seed results.
void write_invocation_records(util::JsonWriter& w,
                              const std::vector<InvocationResult>& invocations) {
  w.key("invocations").begin_array();
  for (const auto& inv : invocations) {
    w.begin_object();
    w.key("count").value(inv.moments.count());
    w.key("mean_bits").value(double_bits(inv.moments.mean()));
    w.key("ssd_bits").value(double_bits(inv.moments.sum_squared_deviations()));
    w.key("iterations").value(inv.iterations);
    w.key("stop").value(to_string(inv.stop_reason));
    w.key("rising").value(inv.trend_rising);
    w.key("kernel_bits").value(double_bits(inv.kernel_time.value));
    w.key("wall_bits").value(double_bits(inv.wall_time.value));
    w.key("setup_bits").value(double_bits(inv.setup_time.value));
    if (inv.counter_bound.has_value() && inv.bottleneck.has_value()) {
      // Counter-prune evidence: a mid-round resume must reach the same
      // prune decisions, so the verdict-derived fields round-trip bit-exact.
      // Absent for runs without the policy — their checkpoint bytes are
      // unchanged.
      w.key("counter").begin_object();
      w.key("class").value(to_string(inv.bottleneck->cls));
      w.key("bound_bits").value(double_bits(*inv.counter_bound));
      if (inv.bottleneck->oi.has_value()) {
        w.key("oi_bits").value(double_bits(*inv.bottleneck->oi));
      } else {
        w.key("oi_bits").null();
      }
      w.key("widened").value(inv.bottleneck->widened);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
}

/// Rebuild the derived per-configuration state (outer moments, totals,
/// optional trend window) by replaying the invocation records in order —
/// the same floating-point operation sequence the evaluator performed, so
/// the restored state is bit-identical to the uninterrupted one.
void replay_invocation_records(const util::JsonValue& record, ConfigResult& result,
                               stats::TrendDetector* trend) {
  for (const auto& inv_record : record.at("invocations").as_array()) {
    InvocationResult inv;
    inv.moments = stats::OnlineMoments::from_raw(
        inv_record.at("count").as_u64(),
        bits_double(inv_record.at("mean_bits").as_string()),
        bits_double(inv_record.at("ssd_bits").as_string()));
    inv.iterations = inv_record.at("iterations").as_u64();
    inv.stop_reason = stop_reason_from(inv_record.at("stop").as_string());
    inv.trend_rising = inv_record.at("rising").as_bool();
    inv.kernel_time = util::Seconds{bits_double(inv_record.at("kernel_bits").as_string())};
    inv.wall_time = util::Seconds{bits_double(inv_record.at("wall_bits").as_string())};
    inv.setup_time = util::Seconds{bits_double(inv_record.at("setup_bits").as_string())};
    if (inv_record.has("counter")) {
      const util::JsonValue counter = inv_record.at("counter");
      BottleneckVerdict verdict;
      const std::string_view name = counter.at("class").as_string();
      const auto cls = bottleneck_class_from_string(name);
      if (!cls.has_value()) {
        throw std::runtime_error("TuningSession: unknown bottleneck class '" +
                                 std::string(name) + "'");
      }
      verdict.cls = *cls;
      const double bound = bits_double(counter.at("bound_bits").as_string());
      verdict.bound_gflops = bound;
      if (!counter.at("oi_bits").is_null()) {
        verdict.oi = bits_double(counter.at("oi_bits").as_string());
      }
      verdict.widened = counter.at("widened").as_bool();
      inv.bottleneck = verdict;
      inv.counter_bound = bound;
    }
    result.total_iterations += inv.iterations;
    result.outer_moments.add(inv.moments.mean());
    result.total_time += inv.wall_time;
    result.total_setup_time += inv.setup_time;
    result.total_kernel_time += inv.kernel_time;
    if (trend) trend->add(inv.moments.mean());
    result.invocations.push_back(std::move(inv));
  }
}

/// Parse the checkpoint at `path` and hand its root to `restore`.  Errors
/// name the checkpoint, and the line and column where the JSON or one of
/// its values is at fault; malformed JSON stays std::invalid_argument.
template <class Restore>
void read_checkpoint(const std::string& path, Restore&& restore) {
  const auto text = util::read_text_file(path);
  if (!text) {
    throw std::runtime_error("TuningSession: cannot read checkpoint '" + path + "'");
  }
  util::JsonDocument parsed;
  util::parse_located<std::invalid_argument>(
      parsed, *text, "TuningSession: checkpoint '" + path + "' is malformed JSON");
  util::read_located(*text, "TuningSession: checkpoint '" + path + "': ",
                     [&] { restore(parsed.root()); });
}

void write_config_object(util::JsonWriter& w, const Configuration& config) {
  w.key("config").begin_object();
  for (const auto& p : config.parameters()) {
    w.key(p.name).value(static_cast<long long>(p.value));
  }
  w.end_object();
}

}  // namespace

void TuningSession::check_fingerprint_and_context(const util::JsonValue& doc) const {
  if (doc.at("fingerprint").as_string() !=
      util::format("%016llx", static_cast<unsigned long long>(fingerprint()))) {
    throw std::runtime_error(
        "TuningSession: checkpoint '" + path_ +
        "' was written by a different space/options combination");
  }
  check_trace_path(doc, options_.trace_path, path_);
  check_env_fingerprint(doc, options_.env_fingerprint, path_);
}

std::string TuningSession::checkpoint_json(const TuningRun& run,
                                           std::optional<double> incumbent,
                                           util::Seconds prior_time) const {
  util::JsonWriter w;
  w.begin_object();
  // Stored as a hex string: JSON numbers round-trip through double, which
  // cannot represent all 64-bit hashes exactly.
  w.key("fingerprint").value(util::format("%016llx",
                                          static_cast<unsigned long long>(fingerprint())));
  // Journal path for the run this checkpoint belongs to.  Not part of the
  // fingerprint (attaching a trace never invalidates a checkpoint), but a
  // resume under a *different* path would silently split one run's journal
  // across two files, so restore refuses the mismatch.
  if (options_.trace_path.empty()) {
    w.key("trace").null();
  } else {
    w.key("trace").value(options_.trace_path);
  }
  write_env_fingerprint(w, options_.env_fingerprint);
  w.key("elapsed_seconds").value(prior_time.value);
  if (incumbent.has_value()) {
    w.key("incumbent").value(*incumbent);
  } else {
    w.key("incumbent").null();
  }
  if (run.best_index.has_value()) {
    w.key("best_index").value(*run.best_index);
  } else {
    w.key("best_index").null();
  }
  w.key("results").begin_array();
  for (const auto& r : run.results) {
    w.begin_object();
    write_config_object(w, r.config);
    w.key("outer_count").value(r.outer_moments.count());
    w.key("outer_mean").value(r.outer_moments.mean());
    w.key("outer_ssd").value(r.outer_moments.sum_squared_deviations());
    w.key("iterations").value(r.total_iterations);
    w.key("invocations").value(r.invocations.size());
    w.key("time_seconds").value(r.total_time.value);
    w.key("setup_seconds").value(r.total_setup_time.value);
    w.key("kernel_seconds").value(r.total_kernel_time.value);
    w.key("outer_stop").value(to_string(r.outer_stop));
    w.key("pruned").value(r.pruned());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void TuningSession::write_checkpoint_file(const std::string& content) const {
  const util::ProfileSpan span(util::ProfileCategory::Checkpoint,
                               content.size());
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("TuningSession: cannot write " + tmp);
    out << content;
  }
  std::filesystem::rename(tmp, path_);
}

void TuningSession::save_checkpoint(const TuningRun& run,
                                    std::optional<double> incumbent,
                                    util::Seconds prior_time) const {
  write_checkpoint_file(checkpoint_json(run, incumbent, prior_time));
}

std::string TuningSession::racing_checkpoint_json(
    const RacingScheduler::State& state) const {
  util::JsonWriter w;
  w.begin_object();
  w.key("fingerprint").value(util::format("%016llx",
                                          static_cast<unsigned long long>(fingerprint())));
  if (options_.trace_path.empty()) {
    w.key("trace").null();
  } else {
    w.key("trace").value(options_.trace_path);
  }
  write_env_fingerprint(w, options_.env_fingerprint);
  w.key("strategy").value(to_string(options_.strategy));
  w.key("round").value(state.round);
  w.key("entries").begin_array();
  for (const auto& entry : state.entries) {
    w.begin_object();
    write_config_object(w, entry.result.config);
    w.key("status").value(to_string(entry.status));
    w.key("outer_stop").value(to_string(entry.result.outer_stop));
    write_invocation_records(w, entry.result.invocations);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void TuningSession::save_racing_checkpoint(
    const RacingScheduler::State& state) const {
  write_checkpoint_file(racing_checkpoint_json(state));
}

void TuningSession::restore_racing(RacingScheduler::State& state,
                                   const util::JsonValue& doc) {
  check_fingerprint_and_context(doc);
  const auto entries = doc.at("entries").as_array();
  if (entries.size() != state.entries.size()) {
    throw std::runtime_error("TuningSession: racing checkpoint entry count mismatch");
  }
  state.round = doc.at("round").as_u64();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const util::JsonValue record = entries[i];
    RacingScheduler::Entry& entry = state.entries[i];
    entry.status = racing_status_from(record.at("status").as_string());
    entry.result.outer_stop = stop_reason_from(record.at("outer_stop").as_string());
    replay_invocation_records(record, entry.result, &entry.trend);
    if (!entry.result.invocations.empty()) ++resumed_;
  }
}

TuningRun TuningSession::run_racing(Backend& backend) {
  const RacingScheduler scheduler(options_);
  RacingScheduler::State state =
      scheduler.init(ordered(space_.enumerate(), options_.order, options_.random_seed));
  resumed_ = 0;

  if (std::filesystem::exists(path_)) {
    read_checkpoint(path_, [&](const util::JsonValue& doc) { restore_racing(state, doc); });
    util::log_info() << "TuningSession: resumed racing round " << state.round
                     << " (" << resumed_ << "/" << state.entries.size()
                     << " configurations in flight) from " << path_;
    if (options_.trace) {
      // Sorts at the head of the current round, before the first fresh
      // invocation (rank 0, ordinal 0).
      TraceEvent event;
      event.kind = TraceEvent::Kind::Resume;
      event.epoch = state.round;
      event.invocation = state.round;
      event.restored_configs = resumed_;
      options_.trace->emit(event);
    }
  }

  // The checkpoint is written after every block and after every concluded
  // round, so an interruption costs at most one block of re-work; entries
  // march in lockstep (survivors() skips entries that already ran the
  // current round), so a resumed race runs only the missing invocations —
  // bit-identical on the deterministic backends.
  for (;;) {
    const auto blocks = RacingScheduler::round_blocks(state);
    if (blocks.empty()) break;
    for (const auto& block : blocks) {
      const auto incumbent = RacingScheduler::frozen_incumbent(state);
      if (options_.trace && incumbent.has_value()) {
        TraceEvent event;
        event.kind = TraceEvent::Kind::IncumbentUpdate;
        event.epoch = state.round;
        event.config_ordinal = block.front();
        event.invocation = state.round;
        event.rank = 0;
        event.value = *incumbent;
        options_.trace->emit(event);
      }
      scheduler.apply_counter_skips(state, block, incumbent, backend);
      for (const std::size_t i : block) {
        if (state.entries[i].status != RacingScheduler::Status::Racing) continue;
        scheduler.run_entry_invocation(backend, state.entries[i], incumbent, i);
      }
      save_racing_checkpoint(state);
    }
    const bool active = scheduler.conclude_round(state);
    save_racing_checkpoint(state);
    if (!active) break;
  }

  TuningRun run = RacingScheduler::finish(std::move(state));
  run.arena = backend.arena_stats();
  std::filesystem::remove(path_);
  return run;
}

std::string TuningSession::surrogate_checkpoint_json(
    const SurrogateScheduler::State& state) const {
  util::JsonWriter w;
  w.begin_object();
  w.key("fingerprint").value(util::format("%016llx",
                                          static_cast<unsigned long long>(fingerprint())));
  if (options_.trace_path.empty()) {
    w.key("trace").null();
  } else {
    w.key("trace").value(options_.trace_path);
  }
  write_env_fingerprint(w, options_.env_fingerprint);
  w.key("strategy").value(to_string(options_.strategy));
  w.key("phase").value(state.phase == SurrogateScheduler::Phase::Seed ? "seed"
                                                                      : "confirm");
  // Seed indices are NOT stored: init() recomputes them deterministically
  // and the fingerprint pins every input they depend on.
  w.key("seed").begin_array();
  for (const auto& result : state.seed_results) {
    w.begin_object();
    write_config_object(w, result.config);
    w.key("outer_stop").value(to_string(result.outer_stop));
    write_invocation_records(w, result.invocations);
    w.end_object();
  }
  w.end_array();
  if (state.phase == SurrogateScheduler::Phase::Confirm) {
    w.key("model").begin_object();
    w.key("log_scale").value(state.model->log_scale());
    w.key("r2_bits").value(double_bits(state.model->train_r2()));
    w.key("coef_bits").begin_array();
    for (const double c : state.model->coefficients()) w.value(double_bits(c));
    w.end_array();
    w.end_object();
    w.key("scanned").value(state.scanned);
    w.key("confirm").begin_array();
    for (std::size_t i = 0; i < state.confirm_indices.size(); ++i) {
      w.begin_object();
      // Cartesian indices as strings: they can exceed the 2^53 range JSON
      // numbers carry exactly.
      w.key("index").value(util::format(
          "%llu", static_cast<unsigned long long>(state.confirm_indices[i])));
      w.key("predicted_bits").value(double_bits(state.confirm_predicted[i]));
      w.end_object();
    }
    w.end_array();
    w.key("round").value(state.race.round);
    w.key("entries").begin_array();
    for (const auto& entry : state.race.entries) {
      w.begin_object();
      write_config_object(w, entry.result.config);
      w.key("status").value(to_string(entry.status));
      w.key("outer_stop").value(to_string(entry.result.outer_stop));
      write_invocation_records(w, entry.result.invocations);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return w.str();
}

void TuningSession::save_surrogate_checkpoint(
    const SurrogateScheduler::State& state) const {
  write_checkpoint_file(surrogate_checkpoint_json(state));
}

void TuningSession::restore_surrogate(const SurrogateScheduler& scheduler,
                                      SurrogateScheduler::State& state,
                                      const util::JsonValue& doc) {
  check_fingerprint_and_context(doc);

  const auto seed = doc.at("seed").as_array();
  if (seed.size() > state.seed_indices.size()) {
    throw std::runtime_error(
        "TuningSession: surrogate checkpoint has more seed results than the budget");
  }
  for (std::size_t i = 0; i < seed.size(); ++i) {
    ConfigResult result;
    // The fingerprint pins the seed sample, so position i is this index.
    result.config = space_.config_at(state.seed_indices[i]);
    result.outer_stop = stop_reason_from(seed[i].at("outer_stop").as_string());
    replay_invocation_records(seed[i], result, nullptr);
    state.seed_results.push_back(std::move(result));
    ++resumed_;
  }

  if (doc.at("phase").as_string() != "confirm") return;

  const util::JsonValue model = doc.at("model");
  std::vector<double> coef;
  for (const auto& bits : model.at("coef_bits").as_array()) {
    coef.push_back(bits_double(bits.as_string()));
  }
  state.model = SurrogateModel::from_state(std::move(coef),
                                           model.at("log_scale").as_bool(),
                                           bits_double(model.at("r2_bits").as_string()));
  state.scanned = doc.at("scanned").as_u64();

  std::vector<Configuration> confirm_configs;
  for (const auto& candidate : doc.at("confirm").as_array()) {
    const std::uint64_t index = parse_u64(candidate.at("index").as_string(), 10);
    state.confirm_indices.push_back(index);
    state.confirm_predicted.push_back(
        bits_double(candidate.at("predicted_bits").as_string()));
    confirm_configs.push_back(space_.config_at(index));
  }
  state.race = RacingScheduler(options_).init(std::move(confirm_configs));
  state.race.round = doc.at("round").as_u64();
  const auto entries = doc.at("entries").as_array();
  if (entries.size() != state.race.entries.size()) {
    throw std::runtime_error(
        "TuningSession: surrogate checkpoint confirm entry count mismatch");
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    RacingScheduler::Entry& entry = state.race.entries[i];
    entry.status = racing_status_from(entries[i].at("status").as_string());
    entry.result.outer_stop = stop_reason_from(entries[i].at("outer_stop").as_string());
    replay_invocation_records(entries[i], entry.result, &entry.trend);
    if (!entry.result.invocations.empty()) ++resumed_;
  }
  state.phase = SurrogateScheduler::Phase::Confirm;
  static_cast<void>(scheduler);
}

TuningRun TuningSession::run_surrogate(Backend& backend) {
  const SurrogateScheduler scheduler(options_);
  SurrogateScheduler::State state = scheduler.init(space_);
  resumed_ = 0;

  if (std::filesystem::exists(path_)) {
    read_checkpoint(path_, [&](const util::JsonValue& doc) {
      restore_surrogate(scheduler, state, doc);
    });
    const std::uint64_t seeds = state.seed_indices.size();
    util::log_info() << "TuningSession: resumed surrogate "
                     << (state.phase == SurrogateScheduler::Phase::Seed ? "seed"
                                                                        : "confirm")
                     << " phase (" << resumed_ << " configurations) from " << path_;
    if (options_.trace) {
      TraceEvent event;
      event.kind = TraceEvent::Kind::Resume;
      if (state.phase == SurrogateScheduler::Phase::Seed) {
        event.epoch = state.seed_results.size();
        event.config_ordinal = state.seed_results.size();
      } else {
        // Head of the current confirm round, past the fit/prune epoch.
        event.epoch = seeds + 1 + state.race.round;
        event.invocation = state.race.round;
      }
      event.restored_configs = resumed_;
      options_.trace->emit(event);
    }
  }

  // ---- seed remainder ------------------------------------------------------
  // Same serial schedule (and incumbent arithmetic) as the uninterrupted
  // SurrogateScheduler::run, checkpointing after every configuration.
  std::optional<double> incumbent = SurrogateScheduler::seed_incumbent(state);
  for (std::size_t i = state.seed_results.size(); i < state.seed_indices.size(); ++i) {
    TraceContext ctx;
    ctx.epoch = i;
    ctx.config_ordinal = i;
    const Configuration config = space_.config_at(state.seed_indices[i]);
    ConfigResult result = run_configuration(backend, config, options_, incumbent, ctx);
    SurrogateScheduler::normalize_seed_time(result);
    const double value = result.value();
    if (!incumbent.has_value() || value > *incumbent) {
      incumbent = value;
      if (options_.trace) {
        TraceEvent event;
        event.kind = TraceEvent::Kind::IncumbentUpdate;
        event.epoch = ctx.epoch;
        event.config_ordinal = ctx.config_ordinal;
        event.invocation =
            result.invocations.empty() ? 0 : result.invocations.size() - 1;
        event.rank = 7;
        event.config = config;
        event.value = value;
        options_.trace->emit(event);
      }
    }
    state.seed_results.push_back(std::move(result));
    save_surrogate_checkpoint(state);
  }

  const std::uint64_t seeds = state.seed_indices.size();
  if (state.phase == SurrogateScheduler::Phase::Seed) {
    scheduler.fit_and_prune(space_, state, seeds);
    save_surrogate_checkpoint(state);
  }
  // A confirm-phase resume restores the model and candidates instead of
  // refitting, so fit/prune trace records are never emitted twice.

  // ---- confirm race --------------------------------------------------------
  OffsetTraceSink sink(options_.trace, seeds + 1, seeds);
  const RacingScheduler confirm(
      scheduler.confirm_options(options_.trace ? &sink : nullptr));
  TraceSink* confirm_trace = confirm.options().trace;
  for (;;) {
    const auto blocks = RacingScheduler::round_blocks(state.race);
    if (blocks.empty()) break;
    for (const auto& block : blocks) {
      const auto frozen = RacingScheduler::frozen_incumbent(state.race);
      if (confirm_trace && frozen.has_value()) {
        TraceEvent event;
        event.kind = TraceEvent::Kind::IncumbentUpdate;
        event.epoch = state.race.round;
        event.config_ordinal = block.front();
        event.invocation = state.race.round;
        event.rank = 0;
        event.value = *frozen;
        confirm_trace->emit(event);
      }
      confirm.apply_counter_skips(state.race, block, frozen, backend);
      for (const std::size_t i : block) {
        if (state.race.entries[i].status != RacingScheduler::Status::Racing) {
          continue;
        }
        confirm.run_entry_invocation(backend, state.race.entries[i], frozen, i);
      }
      save_surrogate_checkpoint(state);
    }
    const bool active = confirm.conclude_round(state.race);
    save_surrogate_checkpoint(state);
    if (!active) break;
  }

  TuningRun run = SurrogateScheduler::finish(std::move(state));
  run.arena = backend.arena_stats();
  std::filesystem::remove(path_);
  return run;
}

TuningRun TuningSession::run(Backend& backend) {
  if (options_.strategy == SearchStrategy::Racing) return run_racing(backend);
  if (options_.strategy == SearchStrategy::Surrogate) return run_surrogate(backend);

  const SpaceView view(space_, options_.order, options_.random_seed);

  TuningRun run;
  std::optional<double> incumbent;
  util::Seconds prior_time{0.0};
  resumed_ = 0;

  // ---- restore --------------------------------------------------------------
  if (std::filesystem::exists(path_)) {
    read_checkpoint(path_, [&](const util::JsonValue& doc) {
      check_fingerprint_and_context(doc);
      prior_time = util::Seconds{doc.at("elapsed_seconds").as_number()};
      if (!doc.at("incumbent").is_null()) incumbent = doc.at("incumbent").as_number();

      const auto results = doc.at("results").as_array();
      if (results.size() > view.size()) {
        throw std::runtime_error("TuningSession: checkpoint has more results than configs");
      }
      for (std::size_t i = 0; i < results.size(); ++i) {
        const util::JsonValue entry = results[i];
        ConfigResult r;
        r.config = view.at(i);  // fingerprint guarantees the order matches
        r.outer_moments = stats::OnlineMoments::from_raw(
            entry.at("outer_count").as_u64(),
            entry.at("outer_mean").as_number(), entry.at("outer_ssd").as_number());
        r.total_iterations = entry.at("iterations").as_u64();
        r.total_time = util::Seconds{entry.at("time_seconds").as_number()};
        r.total_setup_time = util::Seconds{entry.at("setup_seconds").as_number()};
        r.total_kernel_time = util::Seconds{entry.at("kernel_seconds").as_number()};
        r.outer_stop = stop_reason_from(entry.at("outer_stop").as_string());
        // Invocation details are not persisted; a pruned flag is preserved by
        // reconstructing the outer stop reason (which pruned() inspects).
        if (entry.at("pruned").as_bool() && r.outer_stop != StopReason::PrunedByBest) {
          // Inner-level prune: represent with one synthetic pruned invocation.
          InvocationResult inv;
          inv.stop_reason = StopReason::PrunedByBest;
          r.invocations.push_back(std::move(inv));
        }
        run.total_iterations += r.total_iterations;
        run.total_invocations += entry.at("invocations").as_u64();
        run.total_setup_time += r.total_setup_time;
        run.total_kernel_time += r.total_kernel_time;
        if (r.pruned()) ++run.pruned_configs;
        run.results.push_back(std::move(r));
      }
      if (!doc.at("best_index").is_null()) {
        const std::uint64_t best = doc.at("best_index").as_u64();
        if (best >= run.results.size()) {
          throw std::runtime_error("TuningSession: checkpoint best_index " +
                                   std::to_string(best) + " is past its " +
                                   std::to_string(run.results.size()) + " results");
        }
        run.best_index = best;
      }
    });
    resumed_ = run.results.size();
    util::log_info() << "TuningSession: resumed " << resumed_ << "/" << view.size()
                     << " configurations from " << path_;
    if (options_.trace) {
      TraceEvent event;
      event.kind = TraceEvent::Kind::Resume;
      event.epoch = resumed_;
      event.config_ordinal = resumed_;
      event.restored_configs = resumed_;
      options_.trace->emit(event);
    }
  }

  // ---- evaluate the remainder -------------------------------------------------
  const util::Seconds start = backend.clock().now();
  for (std::size_t i = run.results.size(); i < view.size(); ++i) {
    const Configuration config = view.at(i);
    TraceContext ctx;
    ctx.epoch = i;
    ctx.config_ordinal = i;
    ConfigResult result =
        run_configuration(backend, config, options_, incumbent, ctx);
    run.total_iterations += result.total_iterations;
    run.total_invocations += result.invocations.size();
    run.total_setup_time += result.total_setup_time;
    run.total_kernel_time += result.total_kernel_time;
    if (result.pruned()) ++run.pruned_configs;
    const double value = result.value();
    if (!incumbent.has_value() || value > *incumbent) {
      incumbent = value;
      run.best_index = i;
      if (options_.trace) {
        TraceEvent event;
        event.kind = TraceEvent::Kind::IncumbentUpdate;
        event.epoch = i;
        event.config_ordinal = i;
        event.invocation = result.invocations.empty()
                               ? 0
                               : result.invocations.size() - 1;
        event.rank = 7;
        event.config = config;
        event.value = value;
        options_.trace->emit(event);
      }
    }
    run.results.push_back(std::move(result));
    save_checkpoint(run, incumbent,
                    prior_time + (backend.clock().now() - start));
  }

  run.total_time = prior_time + (backend.clock().now() - start);
  run.arena = backend.arena_stats();
  std::filesystem::remove(path_);
  return run;
}

}  // namespace rooftune::core
