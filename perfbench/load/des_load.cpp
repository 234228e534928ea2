// des_storm: sim::simulate_system on omega-256 under a saturated, bursty,
// faulty load, scheduled by the circuit-breaker-wrapped warm Dinic.
//
// An op is one call into the configured scheduler; its latency is the host
// time between successive Scheduler::schedule entries, which covers the
// solve plus the simulator's own work up to the next cycle. Cycles the
// overload ladder hands to its randomized-matching or greedy rungs never
// reach the configured scheduler, so their cost folds into the interval
// that contains them (sim.degraded_cycle_frac says how many there were).
//
// Each repetition builds the network and scheduler from scratch and
// simulates the same seed-determined horizon; set-up is the time until the
// first schedule() call returns (it includes the lazy warm-skeleton build).
// Set-up probes make the same start and stop there. Every repetition must
// produce the same simulated statistics.
#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/scheduler.hpp"
#include "obs/metrics.hpp"
#include "sim/system_sim.hpp"
#include "topo/builders.hpp"

namespace perfbench {
namespace {

using namespace rsin;

constexpr std::int32_t kTerminals = 256;
/// Simulated time units per repetition and repetitions per second of
/// --seconds: fixed work, independent of how fast the host runs.
constexpr double kHorizon = 250.0;
constexpr double kRepsPerSecond = 0.9;
/// Traced repetitions. Each follows an untraced one, and the tracing
/// overhead compares the two groups' rates.
constexpr int kTracedReps = 3;

sim::SystemConfig storm_config(std::uint64_t seed) {
  sim::SystemConfig config;
  config.arrival_rate = 0.7;
  config.warmup_time = 0.0;
  config.measure_time = kHorizon;
  config.seed = seed;
  config.max_queue = 8;
  config.overload_on = 3.75;
  config.overload_window = 5.0;
  config.overload_dwell_cycles = 20;
  config.burst_multiplier = 3.0;
  config.burst_start = kHorizon * 0.4;
  config.burst_duration = kHorizon * 0.15;
  config.drop_timeout = 30.0;
  config.faults.link_mttf = 400.0;
  config.faults.link_mttr = 2.0;
  config.faults.seed = seed ^ 0x5eedULL;
  return config;
}

/// Thrown by a set-up probe once the first schedule() call has returned.
/// Not a std::exception, so nothing on the way out of the simulator
/// handles it.
struct SetupDone {};

/// Times every call into the wrapped scheduler.
class TimedScheduler final : public core::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<core::Scheduler> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  core::ScheduleResult schedule(const core::Problem& problem) override {
    entries.push_back(now_us());
    core::ScheduleResult result = inner_->schedule(problem);
    exits.push_back(now_us());
    if (stop_after_first) throw SetupDone{};
    return result;
  }
  void reset() override { inner_->reset(); }
  void set_relaxed(bool relaxed) override { inner_->set_relaxed(relaxed); }
  void bind_obs(const obs::Handle& handle) override {
    inner_->bind_obs(handle);
  }

  std::vector<double> entries;
  std::vector<double> exits;
  bool stop_after_first = false;

 private:
  std::unique_ptr<core::Scheduler> inner_;
};

/// The simulated statistics a repetition must reproduce exactly.
std::string fingerprint(const sim::SystemMetrics& m) {
  std::ostringstream out;
  out.precision(17);
  out << "arrived=" << m.tasks_arrived << " completed=" << m.tasks_completed
      << " granted=" << m.requests_granted
      << " opportunities=" << m.grant_opportunities
      << " cycles=" << m.scheduling_cycles << " shed=" << m.tasks_shed
      << " dropped=" << m.tasks_dropped << " faults=" << m.faults_injected
      << " torn=" << m.circuits_torn_down
      << " transitions=" << m.degradation_transitions
      << " response=" << m.mean_response_time << " p99=" << m.p99_response_time;
  return out.str();
}

struct Rep {
  double start_us = 0.0;
  std::vector<double> entries;
  std::vector<double> exits;
  sim::SystemMetrics metrics;
  std::int64_t cold_cycles = 0;
};

Rep run_rep(const Options& options, obs::Registry* registry) {
  Rep rep;
  rep.start_us = now_us();
  const topo::Network net = topo::make_named("omega", kTerminals);
  auto breaker = std::make_unique<core::CircuitBreakerScheduler>();
  core::CircuitBreakerScheduler* breaker_view = breaker.get();
  TimedScheduler timed(std::move(breaker));
  sim::SystemConfig config = storm_config(options.seed);
  config.obs.registry = registry;
  rep.metrics = sim::simulate_system(net, timed, config);
  rep.entries = std::move(timed.entries);
  rep.exits = std::move(timed.exits);
  rep.cold_cycles = breaker_view->cold_cycles();
  return rep;
}

/// Set-up only: the start of a repetition, stopped once the first
/// schedule() call has returned.
double setup_probe_s(const Options& options) {
  const double t0 = now_us();
  const topo::Network net = topo::make_named("omega", kTerminals);
  TimedScheduler timed(std::make_unique<core::CircuitBreakerScheduler>());
  timed.stop_after_first = true;
  try {
    (void)sim::simulate_system(net, timed, storm_config(options.seed));
  } catch (const SetupDone&) {
  }
  if (timed.exits.empty()) {
    throw std::runtime_error("des_storm: set-up probe never scheduled");
  }
  return (timed.exits.front() - t0) * 1e-6;
}

/// Ops of one repetition: intervals between successive schedule entries.
Phase phase_of(const Rep& rep) {
  Phase phase;
  phase.start_us = rep.entries.front();
  for (std::size_t k = 1; k < rep.entries.size(); ++k) {
    phase.end_us.push_back(rep.entries[k]);
    phase.lat_us.push_back(rep.entries[k] - rep.entries[k - 1]);
  }
  return phase;
}

}  // namespace

int run_des(const Options& options, Result& result) {
  const int reps = repetitions(options, kRepsPerSecond);
  const double cpu0 = self_cpu_s();
  std::string golden;
  const std::int64_t baseline_kb = status_kb("self", "VmRSS");
  for (int r = 0; r < reps; ++r) {
    for (int p = 0; p < kSetupProbesPerRep; ++p) {
      result.setup_s.push_back(setup_probe_s(options));
    }
    const Rep rep = run_rep(options, nullptr);
    if (rep.entries.size() < 2) {
      result.fail(1, "des_storm: the configured scheduler was never called");
      return 0;
    }
    result.setup_s.push_back((rep.exits.front() - rep.start_us) * 1e-6);
    result.phases.push_back(phase_of(rep));
    if (r == 0) {
      // Read before later repetitions' samples pile up: the peak is the
      // simulation's, plus one repetition's schedule stamps.
      result.peak_rss_kb = status_kb("self", "VmHWM");
      result.rss_of =
          "perfbench_load after its first repetition (" +
          std::to_string(baseline_kb) + " KiB before it; its stamps " +
          std::to_string((rep.entries.size() + rep.exits.size()) *
                         sizeof(double) / 1024) +
          " KiB)";
    }
    const auto ops = static_cast<std::int64_t>(rep.entries.size() - 1);
    result.attempted += ops;
    const std::string print = fingerprint(rep.metrics);
    if (r == 0) {
      golden = print;
      result.facts.emplace_back("simulated", print);
    } else if (print != golden) {
      result.fail(ops, "des_storm: repetition " + std::to_string(r) +
                           " diverged: " + print + " vs " + golden);
    }
  }
  result.loadgen_cpu_s = self_cpu_s() - cpu0;
  if (!options.trace) return 0;

  // Traced repetitions: the same work with the program's obs registry
  // bound. The schedule stamps are taken in untraced repetitions too, and
  // the spans are built from them after the run, so the overhead measured
  // here is that of the registry binding. Each follows an untraced
  // repetition, so both groups see the same stretch of host speed.
  std::vector<obs::Registry> registries(kTracedReps);
  std::vector<Rep> traced;
  for (obs::Registry& registry : registries) {
    result.untraced_phases.push_back(phase_of(run_rep(options, nullptr)));
    traced.push_back(run_rep(options, &registry));
    result.traced_phases.push_back(phase_of(traced.back()));
    const std::string print = fingerprint(traced.back().metrics);
    if (print != golden) {
      result.fail(static_cast<std::int64_t>(traced.back().entries.size()),
                  "des_storm: traced run diverged: " + print + " vs " +
                      golden);
    }
  }
  result.overhead_basis =
      "simulated cycles/s with the obs registry bound (spans are built from "
      "schedule stamps every repetition takes)";

  // Spans and per-layer figures come from the first traced repetition.
  const Rep& rep = traced.front();
  const obs::Registry& registry = registries.front();
  SpanLog log;
  log.reserve(rep.entries.size() * 2);
  Layer& schedule_us = result.sampled("core.schedule_us", "us");
  Layer& self_us = result.sampled("sim.self_us", "us");
  double schedule_total = 0.0;
  for (std::size_t k = 0; k + 1 < rep.entries.size(); ++k) {
    const double solve = rep.exits[k] - rep.entries[k];
    const std::int32_t op = log.add("des.cycle", k, SpanLog::kRoot, 1,
                                    rep.entries[k], rep.entries[k + 1]);
    log.add("core.schedule", k, op, 1, rep.entries[k], rep.exits[k]);
    schedule_us.samples.push_back(solve);
    self_us.samples.push_back(rep.entries[k + 1] - rep.entries[k] - solve);
    schedule_total += solve;
  }
  const auto solves = static_cast<std::int64_t>(rep.entries.size());
  result.value("core.schedule_share", "ratio",
               schedule_total / (rep.entries.back() - rep.entries.front()),
               solves - 1);
  result.value("core.breaker.cold_cycles", "count",
               static_cast<double>(rep.cold_cycles), solves);
  result.value("sim.degraded_cycle_frac", "ratio",
               rep.metrics.degraded_cycle_fraction,
               rep.metrics.scheduling_cycles);
  result.value("sim.tasks_shed", "count",
               static_cast<double>(rep.metrics.tasks_shed),
               rep.metrics.tasks_arrived);
  add_flow_layers(result, counters_of(registry));
  finish_trace(log, options, result);
  return 0;
}

}  // namespace perfbench
