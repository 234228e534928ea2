// fed_partition: a 4-cluster fed::Federation driven through submit() and
// run_cycle() with Zipf-skewed tenants, one whole-cluster kill and rejoin,
// and one uplink partition and heal.
//
// An op is one federation cycle: that cycle's submits plus run_cycle().
// Arrivals are generated from the seed before the clock starts. Each
// repetition builds a fresh Federation; set-up is the time from
// construction until the first cycle has returned, which includes every
// cluster's lazy warm-skeleton build; set-up probes stop there. Every
// repetition must reproduce the same per-cluster schedule hashes and
// grant/completion/shed counts.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "fed/federation.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace rsin;

constexpr std::int32_t kClusters = 4;
constexpr std::int32_t kTerminals = 64;
constexpr std::int32_t kTenants = 32;
constexpr double kZipf = 1.1;
/// Expected arrivals per cycle as a share of the federation's terminals.
constexpr double kLoad = 0.25;
constexpr double kMeanService = 3.0;
/// Cycles per repetition and repetitions per second of --seconds.
constexpr std::int64_t kCycles = 5000;
constexpr double kRepsPerSecond = 1.0;
/// Traced repetitions. Each follows an untraced one, and the tracing
/// overhead compares the two groups' rates.
constexpr int kTracedReps = 3;

fed::FederationConfig federation_config(std::uint64_t seed) {
  fed::FederationConfig config;
  config.clusters = kClusters;
  config.cluster.topology = "omega";
  config.cluster.n = kTerminals;
  config.cluster.scheduler = "breaker";
  config.cluster.max_queue_per_processor = 8;
  config.cluster.overload_on = 48.0;
  config.uplink_capacity = 4;
  config.spill = true;
  config.spill_after = 2;
  config.seed = seed;
  return config;
}

/// Seed-determined arrivals, stored compactly so the benchmark's own data
/// does not dominate the process's peak RSS.
struct Arrival {
  std::uint8_t tenant;
  std::uint8_t processor;
  std::uint8_t service_cycles;
};

struct Arrivals {
  std::vector<Arrival> tasks;
  std::vector<std::size_t> first;  ///< Index of each cycle's first task.
};

Arrivals make_arrivals(std::uint64_t seed) {
  util::Rng rng(seed ^ 0xfed0ULL);
  std::vector<double> cumulative(kTenants);
  double total = 0.0;
  for (std::int32_t t = 0; t < kTenants; ++t) {
    total += 1.0 / std::pow(static_cast<double>(t + 1), kZipf);
    cumulative[static_cast<std::size_t>(t)] = total;
  }
  const int draws = static_cast<int>(2 * kLoad * kClusters * kTerminals);
  Arrivals arrivals;
  for (std::int64_t cycle = 0; cycle < kCycles; ++cycle) {
    arrivals.first.push_back(arrivals.tasks.size());
    // Binomial count around the mean: two fair draws per expected arrival.
    std::int64_t count = 0;
    for (int i = 0; i < draws; ++i) count += rng.bernoulli(0.5) ? 1 : 0;
    for (std::int64_t i = 0; i < count; ++i) {
      const double u = rng.uniform() * total;
      const auto tenant =
          std::lower_bound(cumulative.begin(), cumulative.end(), u) -
          cumulative.begin();
      const double extra = rng.exponential(1.0 / (kMeanService - 1));
      arrivals.tasks.push_back(Arrival{
          static_cast<std::uint8_t>(std::min<std::int64_t>(tenant, kTenants - 1)),
          static_cast<std::uint8_t>(rng.uniform_int(0, kTerminals - 1)),
          static_cast<std::uint8_t>(1 + std::min(63.0, std::floor(extra)))});
    }
  }
  arrivals.first.push_back(arrivals.tasks.size());
  return arrivals;
}

/// The fault timeline sits in the middle of a repetition, so its first
/// and last tenths (the op_cost_growth windows) both run fault-free.
void apply_events(fed::Federation& federation, std::int64_t cycle) {
  if (cycle == 2 * kCycles / 10) federation.kill_cluster(1);
  if (cycle == 4 * kCycles / 10) federation.rejoin_cluster(1);
  if (cycle == 5 * kCycles / 10) federation.partition_cluster(2);
  if (cycle == 7 * kCycles / 10) federation.heal_cluster(2);
}

std::string fingerprint(const fed::Federation& federation) {
  std::ostringstream out;
  const fed::FederationStats& s = federation.stats();
  out << "submitted=" << s.submitted << " demand=" << s.spill_demand
      << " admitted=" << s.spill_admitted << " moved=" << s.spill_moved;
  for (std::int32_t i = 0; i < federation.clusters(); ++i) {
    const fed::Cluster& c = federation.cluster(i);
    out << " c" << i << "={granted=" << c.stats().granted
        << " completed=" << c.completed_by(kCycles)
        << " shed=" << c.stats().shed << " hash=" << std::hex
        << c.schedule_hash() << std::dec << '}';
  }
  return out.str();
}

struct Rep {
  double setup_us = 0.0;
  Phase phase;
  std::vector<double> submit_us;     ///< Per submit() call (traced only).
  std::vector<double> run_cycle_us;  ///< Per run_cycle() call (traced only).
  std::vector<double> cycle_start_us;  ///< Traced only.
  std::vector<double> cycle_end_us;    ///< Traced only.
  std::string print;
  fed::FederationStats stats;
  Counters counters;
};

/// One repetition; with `setup_only` it stops after the first cycle.
Rep run_rep(const Arrivals& arrivals, std::uint64_t seed, bool traced,
            bool setup_only = false) {
  Rep rep;
  const double t0 = now_us();
  fed::Federation federation(federation_config(seed));
  for (std::int64_t cycle = 0; cycle < kCycles; ++cycle) {
    apply_events(federation, cycle);
    const double start = now_us();
    const auto c = static_cast<std::size_t>(cycle);
    for (std::size_t i = arrivals.first[c]; i < arrivals.first[c + 1]; ++i) {
      const Arrival& a = arrivals.tasks[i];
      fed::Task task;
      task.id = i;
      task.tenant = a.tenant;
      task.processor = a.processor;
      task.service_cycles = a.service_cycles;
      task.birth_cycle = cycle;
      if (traced) {
        const double s = now_us();
        (void)federation.submit(task);
        rep.submit_us.push_back(now_us() - s);
      } else {
        (void)federation.submit(task);
      }
    }
    const double mid = traced ? now_us() : 0.0;
    federation.run_cycle();
    const double end = now_us();
    if (traced) {
      rep.run_cycle_us.push_back(end - mid);
      rep.cycle_start_us.push_back(start);
      rep.cycle_end_us.push_back(end);
    }
    if (cycle == 0) {
      rep.setup_us = end - t0;
      rep.phase.start_us = end;
      if (setup_only) return rep;
    } else {
      rep.phase.end_us.push_back(end);
      rep.phase.lat_us.push_back(end - start);
    }
  }
  rep.print = fingerprint(federation);
  rep.stats = federation.stats();
  if (traced) {
    obs::Registry merged;
    federation.export_registry(merged);
    // export_registry folds each cluster in twice (aggregate and fed.c<i>.
    // prefixed); only the unprefixed aggregate is read here.
    rep.counters = counters_of(merged);
  }
  return rep;
}

}  // namespace

int run_fed(const Options& options, Result& result) {
  const auto arrivals = make_arrivals(options.seed);
  const int reps = repetitions(options, kRepsPerSecond);
  const double cpu0 = self_cpu_s();
  std::string golden;
  const std::int64_t baseline_kb = status_kb("self", "VmRSS");
  for (int r = 0; r < reps; ++r) {
    for (int p = 0; p < kSetupProbesPerRep; ++p) {
      result.setup_s.push_back(
          run_rep(arrivals, options.seed, false, true).setup_us * 1e-6);
    }
    Rep rep = run_rep(arrivals, options.seed, false);
    result.setup_s.push_back(rep.setup_us * 1e-6);
    const auto ops = static_cast<std::int64_t>(rep.phase.lat_us.size());
    result.attempted += ops;
    if (r == 0) {
      golden = rep.print;
      result.facts.emplace_back("simulated", rep.print);
    } else if (rep.print != golden) {
      result.fail(ops, "fed_partition: repetition " + std::to_string(r) +
                           " diverged: " + rep.print + " vs " + golden);
    }
    if (r == 0) {
      // Read before later repetitions' samples pile up: the peak is the
      // federation's, plus the arrival table and one repetition's samples.
      result.peak_rss_kb = status_kb("self", "VmHWM");
      result.rss_of =
          "perfbench_load after its first repetition (" +
          std::to_string(baseline_kb) +
          " KiB before it, arrival table included; its samples " +
          std::to_string(2 * ops * sizeof(double) / 1024) + " KiB)";
    }
    result.phases.push_back(std::move(rep.phase));
  }
  result.loadgen_cpu_s = self_cpu_s() - cpu0;
  if (!options.trace) return 0;

  // Traced repetitions time every submit() and run_cycle() call on their
  // own and read the clusters' obs registries. Each follows an untraced
  // repetition, so both groups see the same stretch of host speed.
  std::vector<Rep> traced;
  for (int t = 0; t < kTracedReps; ++t) {
    result.untraced_phases.push_back(
        run_rep(arrivals, options.seed, false).phase);
    traced.push_back(run_rep(arrivals, options.seed, true));
    result.traced_phases.push_back(traced.back().phase);
    if (traced.back().print != golden) {
      result.fail(static_cast<std::int64_t>(traced.back().phase.lat_us.size()),
                  "fed_partition: traced run diverged: " + traced.back().print +
                      " vs " + golden);
    }
  }
  result.overhead_basis = "federation cycles/s";

  // Spans and per-layer figures come from the first traced repetition.
  Rep& rep = traced.front();
  SpanLog log;
  log.reserve(rep.run_cycle_us.size() * 2);
  for (std::size_t c = 1; c < rep.run_cycle_us.size(); ++c) {
    const double start = rep.cycle_start_us[c];
    const double end = rep.cycle_end_us[c];
    const std::int32_t op = log.add("fed.cycle", c, SpanLog::kRoot, 1, start, end);
    log.add("fed.submits", c, op, 1, start, end - rep.run_cycle_us[c]);
    log.add("fed.run_cycle", c, op, 1, end - rep.run_cycle_us[c], end);
  }
  result.sampled("fed.run_cycle_us", "us").samples = rep.run_cycle_us;
  result.sampled("fed.submit_us", "us").samples = rep.submit_us;
  result.value("fed.spill_admit_ratio", "ratio",
               rep.stats.spill_demand > 0
                   ? static_cast<double>(rep.stats.spill_admitted) /
                         static_cast<double>(rep.stats.spill_demand)
                   : 0.0,
               rep.stats.spill_demand);
  result.value("fed.spill_moved", "count",
               static_cast<double>(rep.stats.spill_moved), rep.stats.cycles);
  add_flow_layers(result, rep.counters);
  finish_trace(log, options, result);
  return 0;
}

}  // namespace perfbench
