// svc_lifetime and svc_overload: closed-loop pipelined clients against a
// real rsind process over its Unix socket.
//
// Three connections, one thread. Each connection drives its own tenant
// (omega-64, breaker scheduler) with a seed-determined stream of `req` and
// `cycle` lines and keeps kWindow lines in flight, so every tenant's state
// is a pure function of its own stream however rsind interleaves the
// connections. An op is one acknowledged line; its latency is send->reply.
//
//  * svc_lifetime offers ~2 requests per cycle, well under the fabric's
//    capacity, over a long run of request ids: the protocol, Service,
//    Domain bookkeeping and the journal do the work, the solver little.
//  * svc_overload offers ~16 requests per cycle (about 3x what the fabric
//    grants) against max-pending=512, so the queue stays full and most
//    requests are shed; every cycle scans the full queue and solves a full
//    problem.
//
// Each repetition starts a fresh rsind on a fresh data dir; so does each
// set-up probe, which kills it again once it serves. rsind runs
// non-durable with its watchdog off (a wall-clock trip would make the
// journaled state depend on host speed). After each timed phase the
// benchmark reads the `stats`, `journal-stats` and `metrics` verbs and
// drains the daemon; every repetition must give the first one's replies
// byte for byte. After the last one, every tenant's stream is replayed
// into an in-process svc::Service, which must reproduce them too. The
// traced run replays once more with spans around parse_command,
// Service::execute, Service::commit and a Domain::state_hash probe.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace rsin;

constexpr int kTenants = 3;          ///< One connection per tenant.
constexpr std::size_t kWindow = 8;   ///< Lines in flight per connection.
constexpr double kRepsPerSecond = 0.75;  ///< Repetitions per --seconds.
constexpr int kHashProbeEvery = 16;  ///< Traced replay: cycles per probe.
constexpr double kStallUs = 20e6;    ///< No reply this long fails the run.

struct Shape {
  std::int32_t reqs_lo;  ///< Requests per cycle, uniform in [lo, hi].
  std::int32_t reqs_hi;
  std::int32_t max_pending;
  /// Lines per tenant per repetition: fixed work, independent of how fast
  /// the host runs.
  std::size_t lines;
};

Shape shape_of(const std::string& workload) {
  if (workload == "svc_overload") return Shape{12, 20, 512, 24000};
  return Shape{0, 4, 4096, 12000};
}

struct Stream {
  std::string tenant;
  std::string create;
  std::vector<std::string> lines;
  std::vector<char> is_cycle;
  std::vector<std::string> replies;  ///< rsind's reply per line.
  std::string stats;                 ///< rsind's final `stats` reply.
};

std::vector<Stream> make_streams(const Options& options, const Shape& shape) {
  std::vector<Stream> streams(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    Stream& s = streams[static_cast<std::size_t>(t)];
    util::Rng rng(options.seed * 1000003ULL + static_cast<std::uint64_t>(t));
    s.tenant = "t" + std::to_string(t);
    s.create = "tenant name=" + s.tenant +
               " topology=omega n=64 scheduler=breaker seed=" +
               std::to_string(rng.uniform_int(1, 1 << 30)) +
               " max-pending=" + std::to_string(shape.max_pending);
    std::uint64_t id = 1;
    while (s.lines.size() < shape.lines) {
      const auto reqs = rng.uniform_int(shape.reqs_lo, shape.reqs_hi);
      for (std::int64_t r = 0; r < reqs; ++r) {
        s.lines.push_back("req tenant=" + s.tenant + " id=" +
                          std::to_string(id++) +
                          " proc=" + std::to_string(rng.uniform_int(0, 63)));
        s.is_cycle.push_back(0);
      }
      s.lines.push_back("cycle tenant=" + s.tenant +
                        " id=" + std::to_string(id++));
      s.is_cycle.push_back(1);
    }
    // Cut the last cycle's requests so every tenant gets exactly
    // shape.lines lines.
    s.lines.resize(shape.lines);
    s.is_cycle.resize(shape.lines);
    s.replies.reserve(s.lines.size());
  }
  return streams;
}

// --- rsind process -----------------------------------------------------------

/// Owns one rsind child; the destructor kills and reaps it.
class Daemon {
 public:
  Daemon(const std::string& rsind, const std::string& socket,
         const std::string& dir) {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      throw std::runtime_error("cannot create " + dir);
    }
    // posix_spawn rather than fork: its cost does not grow with the load
    // generator's memory, which holds every repetition's samples, so the
    // timed set-up does not either.
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_addopen(&actions, 1, "rsind.log",
                                       O_WRONLY | O_CREAT | O_APPEND, 0644);
    ::posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const char* argv[] = {"rsind", "--socket", socket.c_str(), "--dir",
                          dir.c_str(), "--watchdog-ms", "0", nullptr};
    const int rc = ::posix_spawn(&pid_, rsind.c_str(), &actions, nullptr,
                                 const_cast<char* const*>(argv), environ);
    ::posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + rsind + ": " +
                               std::strerror(rc));
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Waits up to `timeout_us` for a clean exit; true when it exited 0.
  bool wait_exit(double timeout_us) {
    const double deadline = now_us() + timeout_us;
    while (now_us() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      ::usleep(2000);
    }
    return false;
  }

  /// User + system CPU seconds from /proc/<pid>/stat.
  [[nodiscard]] double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    // Fields after "(comm)": state is field 3; utime/stime are 14/15.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i >= 14) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

 private:
  pid_t pid_ = -1;
};

// --- socket plumbing -----------------------------------------------------------

int connect_to(const std::string& path, double timeout_us) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const double deadline = now_us() + timeout_us;
  while (true) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    if (now_us() > deadline) {
      throw std::runtime_error("rsind did not accept on " + path);
    }
    // A short retry step: set-up is timed up to the first accepted
    // connection, and a coarse step would round it up by a whole step.
    ::usleep(20);
  }
}

/// One connection: buffered output, buffered input, lines in flight.
struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<std::pair<std::size_t, double>> inflight;  ///< (line, sent)
  std::size_t next = 0;  ///< Next stream line to send.

  Conn() = default;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void write_some() {
    while (out_off < out.size()) {
      const ssize_t n =
          ::send(fd, out.data() + out_off, out.size() - out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        throw std::runtime_error("send failed");
      }
      out_off += static_cast<std::size_t>(n);
    }
    out.clear();
    out_off = 0;
  }

  /// Reads what is available; false on EOF.
  bool read_some() {
    char buf[65536];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        return true;
      }
      throw std::runtime_error("recv failed");
    }
    in.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  /// Pops one complete line from the input buffer.
  bool pop_line(std::string& line) {
    const std::size_t nl = in.find('\n', in_off);
    if (nl == std::string::npos) {
      in.erase(0, in_off);
      in_off = 0;
      return false;
    }
    line.assign(in, in_off, nl - in_off);
    in_off = nl + 1;
    return true;
  }

  /// Blocking request for set-up and read-back verbs; returns the status
  /// line followed by any `lines=N` continuation lines.
  std::vector<std::string> request(const std::string& line) {
    out += line;
    out += '\n';
    const double deadline = now_us() + 30e6;
    while (!out.empty()) {
      write_some();
      if (now_us() > deadline) throw std::runtime_error("write timed out");
    }
    std::vector<std::string> reply;
    std::size_t want = 1;
    std::string got;
    while (reply.size() < want) {
      if (pop_line(got)) {
        if (reply.empty()) {
          const std::size_t pos = got.find("lines=");
          if (pos != std::string::npos) {
            want += std::stoul(got.substr(pos + 6));
          }
        }
        reply.push_back(got);
        continue;
      }
      pollfd pfd{fd, POLLIN, 0};
      ::poll(&pfd, 1, 100);
      if (!read_some()) throw std::runtime_error("rsind closed: " + line);
      if (now_us() > deadline) throw std::runtime_error("no reply: " + line);
    }
    return reply;
  }
};

void set_nonblocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
}

std::string field_of(const std::string& line, const std::string& key) {
  const std::size_t pos = line.find(" " + key + "=");
  if (pos == std::string::npos) return {};
  const std::size_t start = pos + key.size() + 2;
  return line.substr(start, line.find(' ', start) - start);
}

// --- in-process replay -----------------------------------------------------------

struct ReplayTimes {
  double seconds = 0.0;
  std::int64_t lines = 0;
};

/// Replays every stream into a fresh in-process Service in `dir` and
/// compares each reply (and the final stats line) with rsind's. With a span
/// log, also records the per-layer spans and samples.
ReplayTimes replay(const std::vector<Stream>& streams, const std::string& dir,
                   Result& result, SpanLog* log) {
  ::mkdir(dir.c_str(), 0755);
  svc::ServiceConfig config;
  config.dir = dir;
  svc::Service service(config);
  service.start_fresh();

  Layer* parse_us = nullptr;
  Layer* req_us = nullptr;
  Layer* cycle_us = nullptr;
  Layer* commit_us = nullptr;
  Layer* hash_us = nullptr;
  if (log != nullptr) {
    parse_us = &result.sampled("svc.parse_us", "us");
    req_us = &result.sampled("svc.execute_req_us", "us");
    cycle_us = &result.sampled("svc.execute_cycle_us", "us");
    commit_us = &result.sampled("svc.commit_us", "us");
    hash_us = &result.sampled("svc.state_hash_us", "us");
  }

  ReplayTimes times;
  std::uint64_t op = 0;
  const double start = now_us();
  for (const Stream& s : streams) {
    if (!service.execute(s.create).ok || !service.commit()) {
      result.fail(1, "replay: cannot create tenant " + s.tenant);
      continue;
    }
    std::int64_t cycles = 0;
    for (std::size_t i = 0; i < s.lines.size(); ++i, ++op) {
      const std::string& line = s.lines[i];
      svc::Response reply;
      if (log == nullptr) {
        reply = service.execute(line);
        if ((i + 1) % kWindow == 0 && !service.commit()) {
          result.fail(1, "replay: commit failed");
        }
      } else {
        const double t0 = now_us();
        (void)svc::parse_command(line);
        const double t1 = now_us();
        reply = service.execute(line);
        const double t2 = now_us();
        const std::int32_t root = log->add("svc.op", op, SpanLog::kRoot, 1, t0, t2);
        log->add("svc.parse", op, root, 1, t0, t1);
        log->add("svc.execute", op, root, 1, t1, t2);
        parse_us->samples.push_back(t1 - t0);
        (s.is_cycle[i] != 0 ? cycle_us : req_us)->samples.push_back(t2 - t1);
        if (s.is_cycle[i] != 0 && ++cycles % kHashProbeEvery == 0) {
          const double h0 = now_us();
          (void)service.tenant(s.tenant).state_hash();
          const double h1 = now_us();
          log->add("svc.state_hash", op, root, 1, h0, h1);
          hash_us->samples.push_back(h1 - h0);
          log->set_end(root, h1);
        }
        if ((i + 1) % kWindow == 0) {
          const double c0 = now_us();
          if (!service.commit()) result.fail(1, "replay: commit failed");
          const double c1 = now_us();
          log->add("svc.commit", op, root, 1, c0, c1);
          commit_us->samples.push_back(c1 - c0);
          log->set_end(root, c1);
        }
      }
      std::string wire = reply.wire();
      wire.pop_back();
      if (wire != s.replies[i]) {
        result.fail(1, "replay of " + s.tenant + " line " + std::to_string(i) +
                           " (" + line + ") gave '" + wire +
                           "', rsind said '" + s.replies[i] + "'");
      }
      ++times.lines;
    }
    if (!service.commit()) result.fail(1, "replay: commit failed");
    std::string stats = service.execute("stats tenant=" + s.tenant).wire();
    stats.pop_back();
    if (stats != s.stats) {
      result.fail(1, "replay of " + s.tenant + " ended with different stats");
    }
  }
  times.seconds = (now_us() - start) * 1e-6;
  return times;
}

/// What one repetition observed besides its timed phase.
struct RepReadBack {
  std::int64_t reqs = 0;
  std::int64_t shed = 0;
  std::vector<double> pending;  ///< `pending=` of every cycle reply.
  std::string journal;          ///< `journal-stats` reply.
  Counters counters;            ///< Counters of the `metrics` verb.
  std::int64_t snapshot_bytes = 0;
  double phase_s = 0.0;
};

/// Connects `control` to a just-started rsind and creates every tenant;
/// returns the seconds from `t0` until `ping` is answered.
double set_up(double t0, const std::string& socket,
              const std::vector<Stream>& streams, Conn& control) {
  control.fd = connect_to(socket, 20e6);
  for (const Stream& s : streams) {
    const auto reply = control.request(s.create);
    if (reply.front() != "ok tenant=" + s.tenant) {
      throw std::runtime_error("tenant create failed: " + reply.front());
    }
  }
  if (control.request("ping").front() != "ok pong") {
    throw std::runtime_error("ping failed");
  }
  return (now_us() - t0) * 1e-6;
}

/// Set-up only: a fresh rsind on a fresh data dir until it serves; then it
/// is killed and its files removed.
double setup_probe_s(const Options& options,
                     const std::vector<Stream>& streams, int probe) {
  const std::string name = "probe" + std::to_string(probe);
  double seconds = 0.0;
  {
    Conn control;
    const double t0 = now_us();
    Daemon daemon(options.rsind, name + ".sock", name);
    seconds = set_up(t0, name + ".sock", streams, control);
  }
  std::filesystem::remove_all(name);
  ::unlink((name + ".sock").c_str());
  return seconds;
}

/// One repetition: a fresh rsind on a fresh data dir, set-up until every
/// tenant exists and `ping` is answered, the timed phase, read-back and a
/// clean drain. Repetition 0 records every reply into `streams`; later
/// repetitions must reproduce them.
RepReadBack run_rep(const Options& options, int rep,
                    std::vector<Stream>& streams, Result& result) {
  const std::string socket = "rsind" + std::to_string(rep) + ".sock";
  const std::string data_dir = "data" + std::to_string(rep);
  std::vector<Conn> conns(streams.size());
  const double t0 = now_us();
  Daemon daemon(options.rsind, socket, data_dir);
  result.setup_s.push_back(set_up(t0, socket, streams, conns[0]));
  for (std::size_t c = 1; c < conns.size(); ++c) {
    conns[c].fd = connect_to(socket, 20e6);
  }
  for (Conn& c : conns) set_nonblocking(c.fd);

  // --- timed phase -----------------------------------------------------------
  RepReadBack back;
  Phase phase;
  const double cpu0 = self_cpu_s();
  const double server0 = daemon.cpu_s();
  phase.start_us = now_us();
  double last_progress = phase.start_us;
  std::vector<pollfd> pfds(conns.size());
  std::string line;
  while (true) {
    bool busy = false;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      const Stream& s = streams[c];
      const double sent = now_us();
      while (conn.inflight.size() < kWindow && conn.next < s.lines.size()) {
        conn.out += s.lines[conn.next];
        conn.out += '\n';
        conn.inflight.emplace_back(conn.next, sent);
        ++conn.next;
      }
      if (!conn.out.empty()) conn.write_some();
      busy = busy || !conn.inflight.empty();
      pfds[c] = pollfd{
          conn.fd,
          static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)), 0};
    }
    if (!busy) break;
    if (::poll(pfds.data(), pfds.size(), 1000) < 0 && errno != EINTR) {
      throw std::runtime_error("poll failed");
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns[c];
      Stream& s = streams[c];
      if (!conn.read_some()) throw std::runtime_error("rsind hung up");
      const double t = now_us();
      while (conn.pop_line(line)) {
        if (conn.inflight.empty()) {
          throw std::runtime_error("unexpected reply: " + line);
        }
        const std::size_t idx = conn.inflight.front().first;
        phase.end_us.push_back(t);
        phase.lat_us.push_back(t - conn.inflight.front().second);
        conn.inflight.pop_front();
        last_progress = t;
        if (s.is_cycle[idx] != 0) {
          if (line.rfind("ok status=solved", 0) != 0 &&
              line.rfind("ok status=deferred", 0) != 0) {
            result.fail(1, "cycle answered '" + line + "'");
          }
          back.pending.push_back(std::stod("0" + field_of(line, "pending")));
        } else {
          ++back.reqs;
          if (line == "ok status=shed") {
            ++back.shed;
          } else if (line != "ok status=admitted") {
            result.fail(1, "req answered '" + line + "'");
          }
        }
        if (rep == 0) {
          s.replies.push_back(line);
        } else if (line != s.replies[idx]) {
          result.fail(1, "repetition " + std::to_string(rep) + ": " +
                             s.lines[idx] + " answered '" + line +
                             "', repetition 0 said '" + s.replies[idx] + "'");
        }
      }
    }
    if (now_us() - last_progress > kStallUs) {
      throw std::runtime_error("no reply from rsind for 20 s");
    }
  }
  const double phase_end = now_us();
  back.phase_s = (phase_end - phase.start_us) * 1e-6;
  result.loadgen_cpu_s += self_cpu_s() - cpu0;
  result.server_cpu_s += daemon.cpu_s() - server0;
  result.peak_rss_kb = std::max(
      result.peak_rss_kb, status_kb(std::to_string(daemon.pid()), "VmHWM"));
  result.attempted += static_cast<std::int64_t>(phase.lat_us.size());
  result.phases.push_back(std::move(phase));

  // --- read-back, drain --------------------------------------------------------
  Conn& control = conns[0];
  for (Stream& s : streams) {
    const std::string stats =
        control.request("stats tenant=" + s.tenant).front();
    if (rep == 0) {
      s.stats = stats;
    } else if (stats != s.stats) {
      result.fail(1, "repetition " + std::to_string(rep) + ": " + s.tenant +
                         " ended with different stats");
    }
  }
  back.journal = control.request("journal-stats").front();
  for (const std::string& m : control.request("metrics")) {
    if (m.empty() || m[0] == '#' || m.rfind("ok", 0) == 0) continue;
    const std::size_t space = m.find(' ');
    if (space == std::string::npos) continue;
    back.counters[m.substr(0, space)] += std::stoll(m.substr(space + 1));
  }
  if (control.request("drain").front() != "ok draining=1" ||
      !daemon.wait_exit(60e6)) {
    result.fail(1, "rsind did not drain cleanly");
  }
  struct stat snap {};
  if (::stat((data_dir + "/snapshot.txt").c_str(), &snap) == 0) {
    back.snapshot_bytes = snap.st_size;
  }
  return back;
}

}  // namespace

int run_svc(const Options& options, Result& result) {
  if (options.rsind.empty()) throw std::runtime_error("--rsind is required");
  std::vector<Stream> streams =
      make_streams(options, shape_of(options.workload));
  const int reps = repetitions(options, kRepsPerSecond);
  result.server_cpu_s = 0.0;
  result.rss_of = "rsind";
  RepReadBack back;
  for (int r = 0; r < reps; ++r) {
    for (int p = 0; p < kSetupProbesPerRep; ++p) {
      result.setup_s.push_back(
          setup_probe_s(options, streams, r * kSetupProbesPerRep + p));
    }
    back = run_rep(options, r, streams, result);
  }

  // --- output check: in-process replay (untimed) -------------------------------
  const ReplayTimes plain = replay(streams, "replay", result, nullptr);
  result.facts.emplace_back("replayed_lines", std::to_string(plain.lines));
  result.facts.emplace_back("journal_stats", back.journal);
  if (!options.trace) return 0;

  SpanLog log;
  log.reserve(static_cast<std::size_t>(plain.lines) * 4);
  const ReplayTimes traced = replay(streams, "replay_traced", result, &log);
  result.untraced_rate = static_cast<double>(plain.lines) / plain.seconds;
  result.traced_rate = static_cast<double>(traced.lines) / traced.seconds;
  result.overhead_basis =
      "in-process replay lines/s, untraced check replay vs traced replay";

  const auto ops = static_cast<double>(plain.lines);
  result.value("svc.transport_share", "ratio",
               std::max(0.0, 1.0 - plain.seconds / back.phase_s),
               plain.lines,
               "1 - (in-process execute+commit time) / (rsind timed phase)");
  result.value("svc.shed_frac", "ratio",
               back.reqs > 0 ? static_cast<double>(back.shed) /
                                   static_cast<double>(back.reqs)
                             : 0.0,
               back.reqs);
  result.sampled("svc.pending_p50", "count").samples = std::move(back.pending);
  result.value("svc.journal_records_per_op", "count",
               std::stod("0" + field_of(" " + back.journal, "appended")) / ops,
               plain.lines);
  result.value("svc.snapshot_bytes", "bytes",
               static_cast<double>(back.snapshot_bytes), 1);
  const auto all_ops = static_cast<double>(result.attempted);
  result.value("load.client_cpu_us_per_op", "us",
               result.loadgen_cpu_s * 1e6 / all_ops, result.attempted);
  result.value("load.server_cpu_us_per_op", "us",
               result.server_cpu_s * 1e6 / all_ops, result.attempted);
  add_flow_layers(result, back.counters);
  finish_trace(log, options, result);
  return 0;
}

}  // namespace perfbench
