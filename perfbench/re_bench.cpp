// re_bench: the reproduction benchmark's program.
//
// usage: re_bench --workload campaign|rib_survey|fullrib_sweep --seed N
//                 --seconds S --workers W [--trace-file PATH]
//
// Runs one workload (see README.md for why each exists) through the same
// public calls re_survey and the paper benches make, times each call from
// outside, checks every unit of work, and prints one result object as its
// last stdout line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Without --trace-file the metrics are the end-to-end ones; with it the
// run is the traced profile and the metrics are the per-layer ones. Lines
// before the result carry the run's fingerprint, its first-unit digest,
// every layer timing (also the workload-specific ones) and, when traced,
// a count/total/self summary of every span name.
//
// All inputs derive from --seed: the world seed, every trial seed and
// every survey seed. Nothing under src/ knows it is being benchmarked.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "core/classifier.h"
#include "core/comparator.h"
#include "core/experiment.h"
#include "core/prepend_analysis.h"
#include "core/rib_survey.h"
#include "core/route_selection.h"
#include "core/validator.h"
#include "io/json.h"
#include "io/results_io.h"
#include "obs/trace.h"
#include "probing/seeds.h"
#include "runtime/perf_counters.h"
#include "runtime/rng_streams.h"
#include "runtime/thread_pool.h"
#include "topology/ecosystem.h"

namespace {

using namespace re;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  return static_cast<double>(runtime::peak_rss_bytes()) / (1024.0 * 1024.0);
}

// FNV-1a over bytes, folded into a running digest.
std::uint64_t fnv(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t value) {
  return runtime::derive_stream_seed(h, value);
}

// ---- options ----------------------------------------------------------------

enum class Workload { kCampaign, kRibSurvey, kFullribSweep };

struct Options {
  Workload workload = Workload::kCampaign;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::size_t workers = 0;
  std::string trace_file;  // empty = untraced run
};

bool parse_u64(const char* text, std::uint64_t& out) {
  if (*text == '\0') return false;
  std::uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "re_bench: %s\nusage: re_bench --workload "
               "campaign|rib_survey|fullrib_sweep --seed N --seconds S "
               "--workers W [--trace-file PATH]\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_workers = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload_name = value;
      if (options.workload_name == "campaign") {
        options.workload = Workload::kCampaign;
      } else if (options.workload_name == "rib_survey") {
        options.workload = Workload::kRibSurvey;
      } else if (options.workload_name == "fullrib_sweep") {
        options.workload = Workload::kFullribSweep;
      } else {
        usage("unknown workload");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, options.seed)) usage("malformed --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, number) || number == 0 || number > 3600) {
        usage("malformed --seconds");
      }
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--workers") {
      if (!parse_u64(value, number) || number == 0 || number > 64) {
        usage("malformed --workers");
      }
      options.workers = static_cast<std::size_t>(number);
      have_workers = true;
    } else if (flag == "--trace-file") {
      options.trace_file = value;
      if (options.trace_file.empty()) usage("empty --trace-file");
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_workers) {
    usage("--workload, --seed, --seconds and --workers are required");
  }
  return options;
}

// ---- layer timings ----------------------------------------------------------

// Wall time of each public call, by layer name. Samples are recorded only
// while tracing is off, so layer timings never carry tracing overhead;
// traced calls contribute their benchmark-side span (named after the
// layer) to the span summary instead.
class Layers {
 public:
  template <typename Fn>
  decltype(auto) time(const char* layer, Fn&& fn) {
    obs::SpanGuard span(layer);
    const bool record = !obs::trace_enabled();
    const Clock::time_point start = Clock::now();
    struct Recorder {
      Layers& self;
      const char* layer;
      bool record;
      Clock::time_point start;
      ~Recorder() {
        if (record) self.samples_[layer].push_back(seconds_since(start));
      }
    } recorder{*this, layer, record, start};
    return fn();
  }

  double median_of(const std::string& layer) const {
    const auto it = samples_.find(layer);
    return it == samples_.end() ? 0.0 : median(it->second);
  }

  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// ---- span summary -----------------------------------------------------------

struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

// Folds one Chrome trace file (as written by obs::TraceSession) into
// per-name count/total/self. Self time is a span's duration minus the part
// covered by spans nested inside it on the same lane; work a span hands to
// pool workers shows up on the workers' lanes, not in its children.
bool summarize_trace(const std::string& path,
                     std::map<std::string, SpanStats>& out) {
  struct Event {
    double start_us;
    double dur_us;
    std::string name;
  };
  std::map<std::size_t, std::vector<Event>> lanes;
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  char name[128];
  while (std::getline(in, line)) {
    std::size_t tid = 0;
    double ts = 0.0, dur = 0.0;
    if (std::sscanf(line.c_str(),
                    "{\"ph\":\"X\",\"pid\":0,\"tid\":%zu,\"name\":\"%127[^\"]\","
                    "\"ts\":%lf,\"dur\":%lf",
                    &tid, name, &ts, &dur) == 4) {
      lanes[tid].push_back(Event{ts, dur, name});
    }
  }
  for (auto& [tid, events] : lanes) {
    // Parents before the children they contain: earlier start first,
    // longer span first on a tie.
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) {
                return a.start_us != b.start_us ? a.start_us < b.start_us
                                                : a.dur_us > b.dur_us;
              });
    struct Open {
      const Event* event;
      double children_us;
    };
    std::vector<Open> stack;
    const auto close = [&] {
      const Open& top = stack.back();
      SpanStats& stats = out[top.event->name];
      ++stats.count;
      stats.total_s += top.event->dur_us * 1e-6;
      stats.self_s += std::max(0.0, top.event->dur_us - top.children_us) * 1e-6;
      stack.pop_back();
    };
    for (const Event& event : events) {
      while (!stack.empty() && stack.back().event->start_us +
                                       stack.back().event->dur_us <=
                                   event.start_us) {
        close();
      }
      if (!stack.empty()) stack.back().children_us += event.dur_us;
      stack.push_back(Open{&event, 0.0});
    }
    while (!stack.empty()) close();
  }
  return true;
}

// ---- the benchmark ----------------------------------------------------------

struct World {
  topo::Ecosystem ecosystem;
  probing::SelectionResult selection;
};

// One experiment's analysis tail, as re_survey runs it.
struct Analysis {
  std::vector<core::PrefixInference> inferences;
  core::Table1 table1;
  core::GroundTruthReport truth;
  std::uint64_t digest = 0;
  std::size_t prefix_rounds = 0;
  std::size_t public_updates = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  explicit Bench(Options options) : options_(std::move(options)) {}

  int run();

 private:
  static double scale_of(Workload workload) {
    switch (workload) {
      case Workload::kCampaign: return 1.0;
      case Workload::kRibSurvey: return 0.25;
      case Workload::kFullribSweep: return 0.05;
    }
    return 1.0;
  }
  // Set-up repetitions; setup_s is their median. Set-up takes ~0.06 s on
  // campaign and rib_survey, so many repetitions (spanning seconds of a
  // host whose speed drifts) are cheap there; the full-RIB checkpoint
  // costs seconds per repetition, so that workload sets up fewer times.
  std::size_t setup_reps() const {
    return options_.workload == Workload::kFullribSweep ? 3 : 40;
  }
  // Units every run performs, whatever --seconds says. gt_accuracy and
  // peak_rss_mb are read over them, so neither depends on how fast the
  // host is: rib_survey's RSS grows with every survey pass (README.md).
  std::size_t min_units() const {
    switch (options_.workload) {
      case Workload::kCampaign: return 1;
      case Workload::kRibSurvey: return 4;
      case Workload::kFullribSweep: return 8;
    }
    return 1;
  }
  const char* unit_span() const {
    switch (options_.workload) {
      case Workload::kCampaign: return "unit.campaign";
      case Workload::kRibSurvey: return "unit.rib_survey";
      case Workload::kFullribSweep: return "unit.fullrib_sweep";
    }
    return "unit";
  }

  std::uint64_t world_seed() const {
    return runtime::derive_stream_seed(options_.seed, 0);
  }
  std::uint64_t unit_seed(std::size_t unit) const {
    return runtime::derive_stream_seed(options_.seed, 1 + unit);
  }

  std::unique_ptr<World> build_world();
  core::ExperimentConfig campaign_config(std::size_t unit,
                                         core::ReExperiment which) const;
  core::ExperimentConfig rib_experiment_config() const;
  core::ExperimentConfig fullrib_config(std::size_t unit) const;
  core::ExperimentResult cold_run(const core::ExperimentConfig& config);
  Analysis analyze(const core::ExperimentResult& result, const char* title);
  // `counted` adds the experiment to gt_accuracy; only the units every
  // run performs count, so the metric does not depend on host speed.
  void check_experiment(const Analysis& analysis, const char* what,
                        bool counted);

  void setup();
  // One unit of work; returns (work done, digest), counting a failed
  // check in failed_.
  std::pair<double, std::uint64_t> run_unit(std::size_t unit);
  std::pair<double, std::uint64_t> campaign_unit(std::size_t unit);
  std::pair<double, std::uint64_t> rib_unit(std::size_t unit);
  std::pair<double, std::uint64_t> fullrib_unit(std::size_t unit);

  void timed_loop();
  void traced_profile();
  core::ExperimentConfig reference_config() const;
  void split_check();
  template <typename Fn>
  void traced(Fn&& fn);

  void print_result(const std::vector<Metric>& metrics) const;
  // Marks the current operation failed (an operation fails once, however
  // many of its checks fail).
  void fail(const char* what, const std::string& detail) {
    operation_failed_ = true;
    std::fprintf(stderr, "re_bench: check failed: %s: %s\n", what,
                 detail.c_str());
  }
  template <typename Fn>
  void attempt(Fn&& fn) {
    ++attempted_;
    operation_failed_ = false;
    fn();
    if (operation_failed_) ++failed_;
  }

  Options options_;
  Layers layers_;
  std::unique_ptr<runtime::ThreadPool> pool_;

  // Set-up products (the last repetition's).
  std::unique_ptr<World> world_;
  std::optional<core::ExperimentController::BaselineCheckpoint> base_;
  std::optional<Analysis> rib_inferences_;  // rib_survey's Internet2 run
  std::vector<double> setup_samples_;
  std::size_t expected_origins_ = 0;

  // Unit bookkeeping.
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool operation_failed_ = false;
  std::vector<double> unit_rates_;
  double peak_rss_mb_ = 0.0;  // after set-up and the first min_units()
  std::size_t truth_checked_ = 0, truth_correct_ = 0;
  std::size_t prefix_rounds_ = 0, public_updates_ = 0;  // first unit's
  std::uint64_t first_digest_ = 0;
  // Untraced result digest of reference_config(), from set-up or unit 0.
  std::uint64_t reference_digest_ = 0;
  double survey_rss_delta_mb_ = 0.0, checkpoint_rss_delta_mb_ = 0.0;

  // Traced profile.
  std::map<std::string, SpanStats> spans_;
  std::uint64_t dropped_ = 0;
  std::vector<double> plain_unit_s_, traced_unit_s_;
};

std::unique_ptr<World> Bench::build_world() {
  topo::EcosystemParams params;
  const double scale = scale_of(options_.workload);
  if (scale < 1.0) params = params.scaled(scale);
  params.seed = world_seed();
  auto world = layers_.time("topology.generate", [&] {
    return std::make_unique<World>(World{topo::Ecosystem::generate(params), {}});
  });
  world->selection = layers_.time("probing.seed_pipeline", [&] {
    const probing::SeedDatabase db = probing::SeedDatabase::generate(
        world->ecosystem, probing::SeedGenParams{});
    return probing::select_probe_seeds(world->ecosystem, db, 11);
  });
  return world;
}

core::ExperimentConfig Bench::campaign_config(std::size_t unit,
                                              core::ReExperiment which) const {
  core::ExperimentConfig config;
  config.experiment = which;
  config.seed = runtime::derive_stream_seed(
      unit_seed(unit), which == core::ReExperiment::kSurf ? 501 : 502);
  return config;
}

core::ExperimentConfig Bench::rib_experiment_config() const {
  core::ExperimentConfig config;
  config.experiment = core::ReExperiment::kInternet2;
  config.seed = runtime::derive_stream_seed(world_seed(), 502);
  return config;
}

// bench_seeds' warm-start study: a full internet-like RIB converged once
// under a shared baseline seed, trials differing only in their own seed.
core::ExperimentConfig Bench::fullrib_config(std::size_t unit) const {
  core::ExperimentConfig config;
  config.experiment = core::ReExperiment::kInternet2;
  config.seed = unit_seed(unit);
  config.baseline_seed = runtime::derive_stream_seed(world_seed(), 1);
  config.full_rib_baseline = true;
  return config;
}

core::ExperimentResult Bench::cold_run(const core::ExperimentConfig& config) {
  return layers_.time("core.experiment.run", [&] {
    return core::ExperimentController(world_->ecosystem,
                                      world_->selection.seeds, config,
                                      pool_.get())
        .run();
  });
}

Analysis Bench::analyze(const core::ExperimentResult& result,
                        const char* title) {
  Analysis a;
  layers_.time("core.classify", [&] {
    a.inferences = core::classify_experiment(result);
    a.table1 = core::summarize_table1(a.inferences);
  });
  a.truth = layers_.time("core.compare_validate", [&] {
    return core::validate_against_plant(a.inferences, world_->ecosystem);
  });
  const std::string text = layers_.time("analysis.render", [&] {
    return analysis::render_table1(a.table1, title) +
           analysis::render_ground_truth(a.truth);
  });
  const std::string lines = layers_.time("io.json_lines", [&] {
    return io::to_json_lines(a.inferences);
  });
  a.digest = fnv(fnv(core::result_digest(result), text), lines);
  for (const core::PrefixInference& p : a.inferences) {
    a.prefix_rounds += p.rounds.size();
  }
  a.public_updates = result.update_log.size();
  return a;
}

// The paper's invariants for one experiment (ROADMAP aim 3): planted
// ground truth agrees on at least 95% of ASes, and Always R&E is the
// largest Table 1 row.
void Bench::check_experiment(const Analysis& a, const char* what,
                             bool counted) {
  if (counted) {
    truth_checked_ += a.truth.ases_checked;
    truth_correct_ += a.truth.correct;
  }
  if (a.truth.accuracy() < 0.95) {
    fail(what, "ground-truth accuracy " + std::to_string(a.truth.accuracy()));
  }
  const auto always_re = a.table1.cells.find(core::Inference::kAlwaysRe);
  if (always_re == a.table1.cells.end() || always_re->second.prefixes == 0) {
    fail(what, "no Always R&E row");
    return;
  }
  for (const auto& [inference, cell] : a.table1.cells) {
    if (cell.prefixes > always_re->second.prefixes) {
      fail(what, core::to_string(inference) + " outnumbers Always R&E");
    }
  }
}

void Bench::setup() {
  for (std::size_t rep = 0; rep < setup_reps(); ++rep) {
    // Release the previous repetition first, so set-up memory is one
    // repetition's, as a user who sets up once would see it.
    base_.reset();
    rib_inferences_.reset();
    world_.reset();
    const Clock::time_point start = Clock::now();
    world_ = build_world();
    if (options_.workload == Workload::kRibSurvey) {
      const core::ExperimentResult result = cold_run(rib_experiment_config());
      reference_digest_ = core::result_digest(result);
      rib_inferences_ = analyze(result, "Internet2 experiment");
    } else if (options_.workload == Workload::kFullribSweep) {
      const double rss_before = peak_rss_mb();
      base_ = layers_.time("core.experiment.checkpoint", [&] {
        return core::ExperimentController(world_->ecosystem,
                                          world_->selection.seeds,
                                          fullrib_config(0), pool_.get())
            .checkpoint_baseline();
      });
      if (rep == 0) checkpoint_rss_delta_mb_ = peak_rss_mb() - rss_before;
    }
    setup_samples_.push_back(seconds_since(start));
  }
  if (options_.workload == Workload::kRibSurvey) {
    // The survey reads one representative (uncovered) prefix per member.
    for (const net::Asn origin : world_->ecosystem.members()) {
      for (const topo::PrefixRecord* p : world_->ecosystem.prefixes_of(origin)) {
        if (!p->covered) {
          ++expected_origins_;
          break;
        }
      }
    }
    attempt([&] {
      check_experiment(*rib_inferences_, "rib_survey Internet2 experiment",
                       true);
    });
    prefix_rounds_ = rib_inferences_->prefix_rounds;
    public_updates_ = rib_inferences_->public_updates;
  }
}

std::pair<double, std::uint64_t> Bench::campaign_unit(std::size_t unit) {
  const core::ExperimentResult surf_result =
      cold_run(campaign_config(unit, core::ReExperiment::kSurf));
  const core::ExperimentResult i2_result =
      cold_run(campaign_config(unit, core::ReExperiment::kInternet2));
  const Analysis surf = analyze(surf_result, "SURF experiment");
  const Analysis i2 = analyze(i2_result, "Internet2 experiment");
  const std::string table2 = layers_.time("core.compare", [&] {
    return analysis::render_table2(
        core::compare_experiments(surf.inferences, i2.inferences));
  });
  check_experiment(surf, "campaign SURF", unit < min_units());
  check_experiment(i2, "campaign Internet2", unit < min_units());
  if (unit == 0) {
    prefix_rounds_ = surf.prefix_rounds + i2.prefix_rounds;
    public_updates_ = surf.public_updates + i2.public_updates;
    reference_digest_ = core::result_digest(i2_result);
  }
  return {static_cast<double>(surf.prefix_rounds + i2.prefix_rounds),
          fnv(mix(surf.digest, i2.digest), table2)};
}

std::pair<double, std::uint64_t> Bench::rib_unit(std::size_t unit) {
  const double rss_before = peak_rss_mb();
  const core::RibSurveyResult survey = layers_.time("core.rib_survey", [&] {
    return core::run_rib_survey(world_->ecosystem, unit_seed(unit),
                                {.workers = options_.workers});
  });
  if (unit == 0) survey_rss_delta_mb_ = peak_rss_mb() - rss_before;
  const auto [table4, figure5] = layers_.time("core.table4_figure5", [&] {
    return std::make_pair(
        core::build_table4(rib_inferences_->inferences, survey),
        core::build_figure5(world_->ecosystem, survey, 4));
  });
  const std::string text = layers_.time("analysis.render", [&] {
    return analysis::render_table4(table4) + analysis::render_figure5(figure5);
  });

  // Exactly one view per member origin, in member order, and both
  // products non-empty.
  std::size_t table4_prefixes = 0;
  for (const auto& [prepend_class, total] : table4.totals) {
    table4_prefixes += total;
  }
  std::size_t next_member = 0;
  bool in_order = survey.origins.size() == expected_origins_;
  const auto& members = world_->ecosystem.members();
  for (const core::OriginRibView& view : survey.origins) {
    while (next_member < members.size() && members[next_member] != view.origin) {
      ++next_member;
    }
    if (next_member == members.size()) in_order = false;
    ++next_member;
  }
  if (!in_order) {
    fail("rib_survey", std::to_string(survey.origins.size()) +
                           " views for " + std::to_string(expected_origins_) +
                           " member origins");
  } else if (table4_prefixes == 0) {
    fail("rib_survey", "empty Table 4");
  } else if (figure5.prefixes_with_route == 0 ||
             (figure5.europe.empty() && figure5.us_states.empty())) {
    fail("rib_survey", "empty Figure 5");
  }

  std::uint64_t digest = fnv(0xcbf29ce484222325ull, text);
  for (const core::OriginRibView& view : survey.origins) {
    digest = mix(digest, view.origin.value());
    digest = mix(digest, view.re_prepends.value_or(99));
    digest = mix(digest, view.comm_prepends.value_or(99));
    digest = mix(digest, (view.ripe_has_route ? 1u : 0u) |
                             (view.ripe_via_re ? 2u : 0u));
    digest = mix(digest, view.ripe_first_hop.value());
  }
  return {static_cast<double>(survey.origins.size()), digest};
}

std::pair<double, std::uint64_t> Bench::fullrib_unit(std::size_t unit) {
  const core::ExperimentConfig config = fullrib_config(unit);
  const core::ExperimentResult result =
      layers_.time("core.experiment.fork_run", [&] {
        core::ExperimentController controller(
            world_->ecosystem, world_->selection.seeds, config, pool_.get());
        if (!controller.compatible(*base_)) {
          fail("fullrib_sweep", "trial cannot fork the shared baseline");
        }
        return controller.run(*base_);
      });
  const Analysis a = analyze(result, "Internet2 trial");
  check_experiment(a, "fullrib_sweep trial", unit < min_units());
  if (unit == 0) {
    prefix_rounds_ = a.prefix_rounds;
    public_updates_ = a.public_updates;
    reference_digest_ = core::result_digest(result);
  }
  return {1.0, a.digest};
}

std::pair<double, std::uint64_t> Bench::run_unit(std::size_t unit) {
  obs::SpanGuard span(unit_span());
  std::pair<double, std::uint64_t> done;
  attempt([&] {
    switch (options_.workload) {
      case Workload::kCampaign: done = campaign_unit(unit); break;
      case Workload::kRibSurvey: done = rib_unit(unit); break;
      case Workload::kFullribSweep: done = fullrib_unit(unit); break;
    }
  });
  return done;
}

// The timed run: units until --seconds of timed work (at least
// min_units()); work_per_s is the median per-unit rate.
void Bench::timed_loop() {
  const Clock::time_point loop_start = Clock::now();
  for (std::size_t unit = 0;
       unit < min_units() || seconds_since(loop_start) < options_.seconds;
       ++unit) {
    const Clock::time_point start = Clock::now();
    const auto [work, digest] = run_unit(unit);
    unit_rates_.push_back(work / seconds_since(start));
    if (unit == 0) first_digest_ = digest;
    if (unit + 1 == min_units()) peak_rss_mb_ = peak_rss_mb();
  }
}

// Runs fn inside its own trace session and folds the session's spans into
// the summary. Each session starts from empty rings, so ring capacity
// bounds one call, never the whole run.
template <typename Fn>
void Bench::traced(Fn&& fn) {
  const obs::FlushStats flushed = [&] {
    obs::TraceSession session(options_.trace_file);
    fn();
    return session.finish();
  }();
  dropped_ += flushed.dropped;
  if (!summarize_trace(options_.trace_file, spans_)) {
    std::fprintf(stderr, "re_bench: cannot read %s\n",
                 options_.trace_file.c_str());
    std::exit(1);
  }
  std::remove(options_.trace_file.c_str());
}

// The experiment every workload has already run untraced: campaign's
// first Internet2 run, rib_survey's set-up run, fullrib_sweep's first trial.
core::ExperimentConfig Bench::reference_config() const {
  switch (options_.workload) {
    case Workload::kCampaign:
      return campaign_config(0, core::ReExperiment::kInternet2);
    case Workload::kRibSurvey: return rib_experiment_config();
    case Workload::kFullribSweep: return fullrib_config(0);
  }
  return {};
}

// Cold run, checkpoint_baseline() and run(base) of the reference config,
// first untraced (layer timings) and then traced (spans). Every digest
// must equal the reference digest: forks and tracing are both required to
// be inert.
void Bench::split_check() {
  const core::ExperimentConfig config = reference_config();
  const auto split = [&] {
    std::vector<std::uint64_t> digests;
    digests.push_back(core::result_digest(cold_run(config)));
    core::ExperimentController controller(
        world_->ecosystem, world_->selection.seeds, config, pool_.get());
    const auto base = layers_.time("core.experiment.checkpoint", [&] {
      return controller.checkpoint_baseline();
    });
    if (!controller.compatible(base)) fail("split", "checkpoint not forkable");
    digests.push_back(core::result_digest(layers_.time(
        "core.experiment.fork_run", [&] { return controller.run(base); })));
    return digests;
  };
  attempt([&] {
    std::vector<std::uint64_t> digests = split();
    traced([&] {
      for (const std::uint64_t d : split()) digests.push_back(d);
    });
    if (std::any_of(digests.begin(), digests.end(),
                    [&](std::uint64_t d) { return d != reference_digest_; })) {
      fail("split", "cold, forked and traced runs disagree on the digest");
    }
  });
}

// The traced profile: pairs of one untraced and one traced run of the same
// unit until --seconds (tracing overhead compares their medians, and each
// pair's digests must match), then the split check.
void Bench::traced_profile() {
  const Clock::time_point loop_start = Clock::now();
  for (std::size_t unit = 0;
       unit < min_units() || seconds_since(loop_start) < options_.seconds;
       ++unit) {
    std::uint64_t plain = 0, traced_digest = 0;
    const auto run_plain = [&] {
      const Clock::time_point start = Clock::now();
      plain = run_unit(unit).second;
      plain_unit_s_.push_back(seconds_since(start));
    };
    const auto run_traced = [&] {
      traced([&] {
        const Clock::time_point start = Clock::now();
        traced_digest = run_unit(unit).second;
        traced_unit_s_.push_back(seconds_since(start));
      });
    };
    // Alternate which side of the pair runs first, so warm-up favours
    // neither.
    if (unit % 2 == 0) {
      run_plain();
      run_traced();
    } else {
      run_traced();
      run_plain();
    }
    if (unit == 0) first_digest_ = plain;
    attempt([&] {
      if (traced_digest != plain) {
        fail("trace", "traced unit " + std::to_string(unit) +
                          " digest differs from the untraced one");
      }
    });
  }
  // Frees the sweep's full-RIB baseline before the split converges a new
  // one, so the profile never holds two.
  base_.reset();
  split_check();
}

void Bench::print_result(const std::vector<Metric>& metrics) const {
  io::JsonWriter out;
  out.begin_object();
  out.field("correct", failed_ == 0);
  out.field("attempted", std::uint64_t{attempted_});
  out.field("failed", std::uint64_t{failed_});
  out.key("metrics");
  out.begin_object();
  for (const Metric& m : metrics) {
    out.key(m.name);
    out.begin_object();
    out.field("value", m.value);
    out.field("unit", m.unit);
    out.end_object();
  }
  out.end_object();
  out.end_object();
  std::printf("%s\n", out.str().c_str());
}

int Bench::run() {
  const bool trace = !options_.trace_file.empty();
  // Rings are sized when a thread first registers (every pool registers
  // its workers on start), so this comes first. 2^18 events per thread
  // holds the largest single traced call, one campaign unit: ~223K
  // probe.prefix spans shared by the pool's threads, plus convergence
  // rounds. A drop fails the run.
  if (trace) obs::trace_set_buffer_capacity(std::size_t{1} << 18);
  pool_ = std::make_unique<runtime::ThreadPool>(options_.workers);

  setup();
  if (trace) {
    traced_profile();
  } else {
    timed_loop();
  }

  const std::size_t units = trace ? plain_unit_s_.size() : unit_rates_.size();
  io::JsonWriter fingerprint;
  fingerprint.begin_object();
  fingerprint.field("workload", options_.workload_name);
  fingerprint.field("seed", options_.seed);
  fingerprint.field("world_seed", world_seed());
  fingerprint.field("scale", scale_of(options_.workload));
  fingerprint.field("ases", std::uint64_t{world_->ecosystem.directory().size()});
  fingerprint.field("prefixes",
                    std::uint64_t{world_->ecosystem.prefixes().size()});
  fingerprint.field("workers", std::uint64_t{options_.workers});
  fingerprint.field("setup_reps", std::uint64_t{setup_reps()});
  fingerprint.field("units", std::uint64_t{units});
  fingerprint.field("traced", trace);
  fingerprint.end_object();
  std::printf("run %s\n", fingerprint.str().c_str());
  if (!unit_rates_.empty()) {
    std::vector<double> rates = unit_rates_;
    std::sort(rates.begin(), rates.end());
    const auto at = [&](double q) {
      return rates[static_cast<std::size_t>(q * (rates.size() - 1))];
    };
    std::printf("unit_rates min=%.6g p25=%.6g p50=%.6g p75=%.6g max=%.6g\n",
                at(0.0), at(0.25), at(0.5), at(0.75), at(1.0));
  }
  std::printf("digest unit0 %016llx\n",
              static_cast<unsigned long long>(first_digest_));

  // Every layer timing this workload produced, by name (the result line
  // carries the subset every workload has).
  for (const auto& [layer, samples] : layers_.samples()) {
    std::printf("layer %s_s %.9g s (median of %zu)\n", layer.c_str(),
                median(samples), samples.size());
  }
  std::printf("layer rss.peak_at_exit_mb %.3f MB\n", peak_rss_mb());
  if (options_.workload == Workload::kRibSurvey) {
    std::printf("layer core.rib_survey.origins %zu count\n", expected_origins_);
    std::printf("layer rss.survey_delta_mb %.3f MB\n", survey_rss_delta_mb_);
  }
  if (options_.workload == Workload::kFullribSweep) {
    std::printf("layer rss.checkpoint_delta_mb %.3f MB\n",
                checkpoint_rss_delta_mb_);
  }

  std::vector<Metric> metrics;
  if (!trace) {
    metrics.push_back({"work_per_s", median(unit_rates_), "units/s"});
    metrics.push_back({"setup_s", median(setup_samples_), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb_, "MB"});
    metrics.push_back(
        {"gt_accuracy",
         truth_checked_ == 0 ? 0.0
                             : static_cast<double>(truth_correct_) /
                                   static_cast<double>(truth_checked_),
         "fraction"});
  } else {
    for (const auto& [name, stats] : spans_) {
      std::printf("span %s count=%llu total_s=%.6f self_s=%.6f\n",
                  name.c_str(), static_cast<unsigned long long>(stats.count),
                  stats.total_s, stats.self_s);
    }
    for (const char* layer :
         {"topology.generate", "probing.seed_pipeline", "core.experiment.run",
          "core.experiment.checkpoint", "core.experiment.fork_run",
          "core.classify", "core.compare_validate", "analysis.render",
          "io.json_lines"}) {
      metrics.push_back(
          {std::string(layer) + "_s", layers_.median_of(layer), "s"});
    }
    metrics.push_back({"core.experiment.prefix_rounds",
                       static_cast<double>(prefix_rounds_), "count"});
    metrics.push_back({"bgp.public_updates",
                       static_cast<double>(public_updates_), "count"});
    for (const char* span :
         {"converge.run", "converge.run_scoped", "probe.round", "fib.compile",
          "snapshot.fork", "snapshot.checkpoint"}) {
      const SpanStats& stats = spans_[span];
      metrics.push_back({std::string("span.") + span + ".total_s",
                         stats.total_s, "s"});
      metrics.push_back({std::string("span.") + span + ".self_s",
                         stats.self_s, "s"});
    }
    const double plain = median(plain_unit_s_);
    metrics.push_back({"trace.overhead_pct",
                       plain > 0.0 ? 100.0 * (median(traced_unit_s_) - plain) /
                                         plain
                                   : 0.0,
                       "%"});
    metrics.push_back(
        {"trace.dropped_events", static_cast<double>(dropped_), "count"});
    attempt([&] {
      if (dropped_ != 0) {
        fail("trace", std::to_string(dropped_) + " events dropped");
      }
    });
  }
  print_result(metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return Bench(parse_options(argc, argv)).run();
}
