// perfbench_load — the load generator behind perfbench/run.py.
//
//   perfbench_load --workload NAME --seed N --seconds S --trace 0|1
//                  --out RESULT.json [--rsind PATH] [--trace-out TRACE.json]
//
// Runs one workload (svc_lifetime, svc_overload, des_storm, fed_partition)
// from the current directory, which must be a scratch directory: svc_*
// workloads put rsind's socket and data directories there. Writes the raw
// samples to RESULT.json and exits 0 when the run completed (failed ops are
// reported in the result, not by the exit code).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include <sys/resource.h>

#include "common.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

void put_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.write(buf, res.ptr - buf);
}

void put_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out << esc;
    } else {
      out << c;
    }
  }
  out << '"';
}

void put_array(std::ostream& out, const std::vector<double>& values) {
  out << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out << ',';
    put_number(out, values[i]);
  }
  out << ']';
}

void put_phases(std::ostream& out, const std::vector<Phase>& phases) {
  out << '[';
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i != 0) out << ',';
    out << "{\"start_us\":";
    put_number(out, phases[i].start_us);
    out << ",\"end_us\":";
    put_array(out, phases[i].end_us);
    out << ",\"lat_us\":";
    put_array(out, phases[i].lat_us);
    out << '}';
  }
  out << ']';
}

}  // namespace

double now_us() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void Result::fail(std::int64_t ops, std::string why) {
  failed += ops;
  if (errors.size() < 8) errors.push_back(std::move(why));
}

Layer& Result::sampled(std::string name, std::string unit) {
  Layer layer;
  layer.name = std::move(name);
  layer.unit = std::move(unit);
  layer.sampled = true;
  layers.push_back(std::move(layer));
  return layers.back();
}

void Result::value(std::string name, std::string unit, double v,
                   std::int64_t count, std::string note) {
  Layer layer;
  layer.name = std::move(name);
  layer.unit = std::move(unit);
  layer.value = v;
  layer.count = count;
  layer.note = std::move(note);
  layers.push_back(std::move(layer));
}

void Result::write_json(std::ostream& out) const {
  out << "{\"setup_s\":";
  put_array(out, setup_s);
  out << ",\"phases\":";
  put_phases(out, phases);
  out << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i != 0) out << ',';
    put_string(out, errors[i]);
  }
  out << "],\"peak_rss_kb\":" << peak_rss_kb << ",\"rss_of\":";
  put_string(out, rss_of);
  out << ",\"loadgen_cpu_s\":";
  put_number(out, loadgen_cpu_s);
  out << ",\"server_cpu_s\":";
  put_number(out, server_cpu_s);
  out << ",\"layers\":[";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const Layer& layer = layers[i];
    if (i != 0) out << ',';
    out << "{\"name\":";
    put_string(out, layer.name);
    out << ",\"unit\":";
    put_string(out, layer.unit);
    if (layer.sampled) {
      out << ",\"samples\":";
      put_array(out, layer.samples);
    } else {
      out << ",\"value\":";
      put_number(out, layer.value);
      out << ",\"count\":" << layer.count;
    }
    out << ",\"note\":";
    put_string(out, layer.note);
    out << '}';
  }
  out << "],\"facts\":{";
  for (std::size_t i = 0; i < facts.size(); ++i) {
    if (i != 0) out << ',';
    put_string(out, facts[i].first);
    out << ':';
    put_string(out, facts[i].second);
  }
  out << "},\"untraced_rate\":";
  put_number(out, untraced_rate);
  out << ",\"traced_rate\":";
  put_number(out, traced_rate);
  out << ",\"untraced_phases\":";
  put_phases(out, untraced_phases);
  out << ",\"traced_phases\":";
  put_phases(out, traced_phases);
  out << ",\"overhead_basis\":";
  put_string(out, overhead_basis);
  out << ",\"self_us\":{";
  for (std::size_t i = 0; i < self.size(); ++i) {
    if (i != 0) out << ',';
    put_string(out, self[i].first);
    out << ":[";
    put_number(out, self[i].second.first);
    out << ',' << self[i].second.second << ']';
  }
  out << "}}\n";
}

std::int32_t SpanLog::add(const char* name, std::uint64_t op,
                          std::int32_t parent, std::uint32_t tid,
                          double start_us, double end_us) {
  spans_.push_back(Span{name, op, parent, tid, start_us, end_us});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::set_end(std::int32_t span, double end_us) {
  spans_[static_cast<std::size_t>(span)].end_us = end_us;
}

std::vector<std::pair<std::string, std::pair<double, std::int64_t>>>
SpanLog::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_us - spans_[i].start_us;
    if (spans_[i].parent != kRoot) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_us - spans_[i].start_us;
    }
  }
  std::map<std::string, std::pair<double, std::int64_t>> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& entry = by_name[spans_[i].name];
    entry.first += self[i];
    entry.second += 1;
  }
  return {by_name.begin(), by_name.end()};
}

void SpanLog::write_chrome(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) out << ",\n";
    out << "{\"name\":";
    put_string(out, s.name);
    out << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":";
    put_number(out, s.start_us);
    out << ",\"dur\":";
    put_number(out, s.end_us - s.start_us);
    out << ",\"args\":{\"op\":" << s.op << ",\"span\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
}

int repetitions(const Options& options, double per_second) {
  return std::max(3, static_cast<int>(options.seconds * per_second + 0.5));
}

void finish_trace(const SpanLog& log, const Options& options, Result& result) {
  result.self = log.self_times();
  if (options.trace_out.empty()) return;
  std::ofstream out(options.trace_out);
  log.write_chrome(out);
}

double self_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::int64_t status_kb(const std::string& pid, const std::string& field) {
  std::ifstream in("/proc/" + pid + "/status");
  const std::string key = field + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtoll(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

Counters counters_of(const rsin::obs::Registry& registry) {
  Counters counters;
  for (const auto& [name, value] : registry.snapshot().counters) {
    std::string key = name;
    for (char& c : key) {
      if (c == '.' || c == '-') c = '_';
    }
    counters[key] += value;
  }
  return counters;
}

void add_flow_layers(Result& result, const Counters& counters) {
  const auto get = [&](const char* key) -> double {
    const auto it = counters.find(key);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  // Every context solve counts as warm or cold; the plain Dinic scheduler
  // (the breaker's cold path) counts its own solves.
  const double warm = get("flow_warm_cycles");
  const double cold = get("flow_cold_rebuilds");
  const double solves = warm + cold + get("flow_solves");
  const auto n = static_cast<std::int64_t>(solves);
  const double per = solves > 0 ? 1.0 / solves : 0.0;
  result.value("flow.bfs_phases_per_solve", "count",
               get("flow_bfs_phases") * per, n);
  result.value("flow.augmentations_per_solve", "count",
               get("flow_augmentations") * per, n);
  result.value("flow.operations_per_solve", "count",
               get("flow_operations") * per, n);
  result.value("flow.repair_cancelled_per_solve", "count",
               get("flow_repair_cancelled") * per, n);
  result.value("flow.warm_hit_ratio", "ratio",
               warm + cold > 0 ? warm / (warm + cold) : 0.0,
               static_cast<std::int64_t>(warm + cold));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out") {
      out_path = value;
    } else if (key == "--rsind") {
      options.rsind = value;
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      std::cerr << "perfbench_load: unknown option " << key << '\n';
      return 2;
    }
  }
  if (out_path.empty() || options.seconds <= 0.0) {
    std::cerr << "perfbench_load: --out and a positive --seconds are "
                 "required\n";
    return 2;
  }
  perfbench::Result result;
  int rc = 2;
  try {
    if (options.workload == "svc_lifetime" ||
        options.workload == "svc_overload") {
      rc = perfbench::run_svc(options, result);
    } else if (options.workload == "des_storm") {
      rc = perfbench::run_des(options, result);
    } else if (options.workload == "fed_partition") {
      rc = perfbench::run_fed(options, result);
    } else {
      std::cerr << "perfbench_load: unknown workload " << options.workload
                << '\n';
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_load: " << e.what() << '\n';
    return 1;
  }
  std::ofstream out(out_path);
  result.write_json(out);
  return out ? rc : 1;
}
