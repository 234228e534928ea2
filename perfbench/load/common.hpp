// Shared plumbing of the perfbench load generator: the host clock, the raw
// result every workload fills in, and the in-memory span log of traced runs.
//
// The load generator measures; it does not summarize. Every timed op is
// written out raw (completion time and latency, in microseconds), and
// perfbench/stats.py turns those samples into the reported metrics, so the
// statistics live in one tested place.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace rsin::obs {
class Registry;
}

namespace perfbench {

/// Microseconds on the steady clock since the first call in this process.
double now_us();

/// Command-line options of one load-generator run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rsind;      ///< Path of the rsind binary (svc_* workloads).
  std::string trace_out;  ///< Chrome trace JSON path (traced runs).
};

/// One repetition's timed phase: its start and, per op in completion
/// order, the completion time and the latency.
struct Phase {
  double start_us = 0.0;
  std::vector<double> end_us;
  std::vector<double> lat_us;
};

/// A per-layer figure measured by the traced run: either raw samples (the
/// stats code reports their median) or a single value with its basis count.
struct Layer {
  std::string name;
  std::string unit;
  std::vector<double> samples;
  double value = 0.0;
  std::int64_t count = 0;
  bool sampled = false;
  std::string note;
};

struct Result {
  std::vector<double> setup_s;
  std::vector<Phase> phases;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< First few failure descriptions.
  std::int64_t peak_rss_kb = 0;
  std::string rss_of;               ///< Whose VmHWM was read, and when.
  double loadgen_cpu_s = 0.0;       ///< Load generator CPU in timed phases.
  double server_cpu_s = -1.0;       ///< rsind CPU in timed phases (svc_*).
  std::deque<Layer> layers;  ///< deque: sampled() references stay valid.
  std::vector<std::pair<std::string, std::string>> facts;  ///< Printed as-is.
  /// Tracing overhead basis: op rate of the same work untraced and traced,
  /// or (des_storm, fed_partition) alternated untraced and traced
  /// repetitions, whose rates are read like ops_per_s.
  double untraced_rate = 0.0;
  double traced_rate = 0.0;
  std::vector<Phase> untraced_phases;
  std::vector<Phase> traced_phases;
  std::string overhead_basis;
  /// Self time per span name in the traced run: (total us, span count).
  std::vector<std::pair<std::string, std::pair<double, std::int64_t>>> self;

  void fail(std::int64_t ops, std::string why);
  Layer& sampled(std::string name, std::string unit);
  void value(std::string name, std::string unit, double v, std::int64_t count,
             std::string note = "");
  void write_json(std::ostream& out) const;
};

/// Spans kept in memory during a traced run and written out at the end as
/// Chrome trace JSON. Every span carries the id of the op it belongs to and
/// the index of its parent span, so one op's spans nest under its root.
class SpanLog {
 public:
  static constexpr std::int32_t kRoot = -1;

  std::int32_t add(const char* name, std::uint64_t op, std::int32_t parent,
                   std::uint32_t tid, double start_us, double end_us);
  void set_end(std::int32_t span, double end_us);
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Self time per span name: duration minus the time its children cover.
  [[nodiscard]] std::vector<std::pair<std::string, std::pair<double, std::int64_t>>>
  self_times() const;
  void write_chrome(std::ostream& out) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t op;
    std::int32_t parent;
    std::uint32_t tid;
    double start_us;
    double end_us;
  };
  std::vector<Span> spans_;
};

/// Repetitions of a run: `per_second` per second of --seconds, at least 3.
int repetitions(const Options& options, double per_second);

/// Set-up probes before each repetition. A probe times one more start-up
/// of the workload and nothing else, so set-up is read from many start-ups
/// spread over the whole run.
constexpr int kSetupProbesPerRep = 4;

/// Writes the span log when a trace path is set; records self times.
void finish_trace(const SpanLog& log, const Options& options, Result& result);

/// CPU time (user + system) this process has used, in seconds.
double self_cpu_s();
/// A /proc/<pid>/status field in KiB ("self" or a pid; "VmHWM", "VmRSS"),
/// 0 when unreadable.
std::int64_t status_kb(const std::string& pid, const std::string& field);

/// Counter values by their Prometheus name ("flow.bfs_phases" is read as
/// "flow_bfs_phases"), the spelling rsind's `metrics` verb uses.
using Counters = std::map<std::string, std::int64_t>;
Counters counters_of(const rsin::obs::Registry& registry);
/// The flow.* per-solve layer figures from the solver's obs counters.
void add_flow_layers(Result& result, const Counters& counters);

int run_svc(const Options& options, Result& result);
int run_des(const Options& options, Result& result);
int run_fed(const Options& options, Result& result);

}  // namespace perfbench
