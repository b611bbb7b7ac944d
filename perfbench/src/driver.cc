// pb_driver: one run of the serve benchmark. It starts a real
// `route_server --listen` process on a DIMACS stand-in, drives it over
// loopback TCP with the workload's traffic (an open loop at fixed offered
// rates, then a closed loop of pipelining v2 connections, then weight
// reloads through `updf` and `reload`), checks every reply against the
// benchmark's own Dijkstra, and prints one JSON result line. With --trace 1 it records request spans,
// polls the server's stats, times the program's layers in-process, and
// prints the per-layer metrics instead.
//
//   pb_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data <dir> --server <route_server binary>
#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "inputs.h"
#include "layers.h"
#include "reference.h"
#include "trace.h"
#include "wire.h"

namespace pb {
namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum Kind : std::uint8_t { kD, kP, kB, kT, kM, kNumKinds };
constexpr const char* kKindName[kNumKinds] = {"distance", "path", "batch",
                                              "text", "matrix"};

/// One workload: backend and traffic mix. Rates are requests per second
/// offered by the open loop; closed-loop weights pick the v2 kinds.
struct Spec {
  const char* name;
  const char* backend;
  bool hot;  ///< Zipf over a hot pool (else every pair is fresh)
  int rate[kNumKinds];
  int closed_weight[kNumKinds];  ///< kT must be 0: the closed loop is v2.
  std::size_t batch;             ///< pairs per batch request
  std::size_t hot_pairs, hot_paths, hot_matrices;
  double zipf;
  std::size_t reloads;  ///< updf + reload cycles, after the reads
  /// Runs each reload cycle with the server held on one CPU, the CPUs
  /// taken in turn (README.md, "Reloads").
  bool rotate_cpus;
};

// The two workloads; README.md ("Why these numbers") gives the reasons.
const Spec kSpecs[] = {
    {"ah-paper", "ah", /*hot=*/false,
     {1500, 400, 300, 400, 100}, {16, 3, 2, 0, 1},
     /*batch=*/8, 0, 0, 0, 0.0, /*reloads=*/160, /*rotate_cpus=*/true},
    {"hl-hot", "hl", /*hot=*/true,
     {2000, 400, 400, 600, 120}, {16, 2, 3, 0, 1},
     /*batch=*/32, /*hot_pairs=*/16384, /*hot_paths=*/1024, /*hot_matrices=*/64,
     /*zipf=*/0.99, /*reloads=*/3, /*rotate_cpus=*/false},
};

/// What both workloads share: the DE stand-in network, 8x8 matrices whose
/// rows come from the first 32 of the pair generator's 128 full-search
/// sources, 1% TrafficFeed batches, and 4 closed-loop connections with 16
/// requests in flight each.
constexpr const char* kDataset = "DE";
constexpr std::size_t kMatrixSide = 8;
constexpr std::size_t kPoolSources = 128;
constexpr std::size_t kMatrixSources = 32;
constexpr double kDeltaFraction = 0.01;
constexpr std::size_t kClosedConns = 4;
constexpr std::size_t kClosedWindow = 16;

/// Share of --seconds spent in each measured phase.
constexpr double kOpenShare = 0.6;
constexpr double kClosedShare = 0.3;
/// Untimed warm-up before measuring: connections, sessions, caches.
constexpr double kWarmupSeconds = 1.0;
/// Pairs cycled by the closed loop. Larger than the server's default
/// result cache (65,536 entries), so cycling them never turns into hits.
constexpr std::size_t kClosedRingPairs = 100000;
constexpr std::size_t kClosedRequests = 200000;
/// Matrices cycled by the closed loop; with 64 or more cells each they too
/// outnumber the cache.
constexpr std::size_t kClosedRingMatrices = 4096;
/// Windows the open and closed loops are summarised over (see Main): the
/// open loop's are 1 s long at the benchmark's 20 s runs.
constexpr std::size_t kOpenWindows = 12;
constexpr std::size_t kClosedWindows = 12;

/// Nearest-rank quantile; 0 for an empty list.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Median (mean of the middle two for an even count); 0 for an empty list.
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Window of the open loop that request `i` of `n` falls in.
std::size_t OpenWindow(std::size_t i, std::size_t n) { return i * kOpenWindows / n; }

/// The windows of the open loop the latency metrics are read from: the
/// half (rounded up) in which v2 distance requests, the most frequent kind,
/// had the lowest median latency. On a shared host, other guests slow some
/// seconds of a run and not others; reading every kind from the same
/// quieter half keeps those seconds out, while a change that slows the
/// program in every window still moves every metric. `p50` holds each
/// window's distance median, NaN for a window without samples; reload_s
/// picks its quieter windows of reloads the same way.
std::vector<std::size_t> QuietWindows(const std::vector<double>& p50) {
  std::vector<std::size_t> order;
  for (std::size_t w = 0; w < p50.size(); ++w) {
    if (!std::isnan(p50[w])) order.push_back(w);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return p50[a] < p50[b]; });
  order.resize((order.size() + 1) / 2);
  return order;
}

// ---------------------------------------------------------------------------
// Plan: every request of the run, drawn from the seed before the server
// starts.
// ---------------------------------------------------------------------------

struct Req {
  Kind kind;
  std::uint32_t first;  ///< pair index (d, p, text), batch_refs offset, matrix id
};

struct Plan {
  std::vector<std::pair<Node, Node>> pairs;
  std::vector<std::uint32_t> batch_refs;  ///< pair indices, `batch` per request
  std::vector<std::pair<std::vector<Node>, std::vector<Node>>> matrices;
  std::vector<Req> warm, open, closed, probe;
  Triple first;  ///< setup check pair with its true distance
};

/// Inverse-CDF Zipf sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t Draw(Rand& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Hands out pair indices: fresh ones in order (distinct workloads) or
/// Zipf draws over a permuted hot pool.
class PairSource {
 public:
  PairSource(std::size_t begin, std::size_t end, bool cycle)
      : begin_(begin), end_(end), next_(begin), cycle_(cycle) {}
  PairSource(std::size_t begin, std::size_t n, double s, Rand* rng)
      : begin_(begin), end_(begin + n), zipf_(std::in_place, n, s), rng_(rng) {
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = n; i > 1; --i) std::swap(perm_[i - 1], perm_[rng->Below(i)]);
  }
  std::uint32_t Next() {
    if (zipf_) return static_cast<std::uint32_t>(begin_ + perm_[zipf_->Draw(*rng_)]);
    if (next_ == end_) {
      if (!cycle_) throw std::runtime_error("pair universe exhausted");
      next_ = begin_;
    }
    return static_cast<std::uint32_t>(next_++);
  }

 private:
  std::size_t begin_, end_, next_ = 0;
  bool cycle_ = false;
  std::optional<Zipf> zipf_;
  std::vector<std::uint32_t> perm_;
  Rand* rng_ = nullptr;
};

/// Kind sequence of an open loop: each second holds exactly rate[k]
/// requests of kind k, in a seeded order.
std::vector<Kind> OpenKinds(const Spec& spec, double seconds, Rand& rng) {
  std::vector<Kind> out;
  const int whole = static_cast<int>(std::ceil(seconds));
  int per_second = 0;
  for (int k = 0; k < kNumKinds; ++k) per_second += spec.rate[k];
  const std::size_t total =
      static_cast<std::size_t>(std::llround(seconds * per_second));
  for (int sec = 0; sec < whole && out.size() < total; ++sec) {
    std::vector<Kind> block;
    for (int k = 0; k < kNumKinds; ++k) block.insert(block.end(), spec.rate[k], Kind(k));
    for (std::size_t i = block.size(); i > 1; --i) std::swap(block[i - 1], block[rng.Below(i)]);
    for (const Kind k : block) {
      if (out.size() < total) out.push_back(k);
    }
  }
  return out;
}

std::vector<Kind> WeightedKinds(const int* weight, std::size_t n, Rand& rng) {
  int sum = 0;
  for (int k = 0; k < kNumKinds; ++k) sum += weight[k];
  std::vector<Kind> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    int r = static_cast<int>(rng.Below(static_cast<std::uint64_t>(sum)));
    int k = 0;
    while (r >= weight[k]) r -= weight[k++];
    out.push_back(Kind(k));
  }
  return out;
}

std::size_t PairsPerSecond(const Spec& spec) {
  return spec.rate[kD] + spec.rate[kP] + spec.rate[kT] + spec.rate[kB] * spec.batch;
}

Plan MakePlan(const Spec& spec, const RefGraph& g, double seconds,
              std::uint64_t seed, std::size_t threads) {
  Plan plan;
  Rand rng(seed * 0x2545f4914f6cdd1dULL + 17);
  const Dist lmax = EstimateMaxDistance(g, seed);
  std::vector<Node> pool;
  while (pool.size() < kPoolSources) {
    const Node v = static_cast<Node>(rng.Below(g.NumNodes()));
    if (std::find(pool.begin(), pool.end(), v) == pool.end()) pool.push_back(v);
  }
  const double open_s = seconds * kOpenShare;
  constexpr std::size_t kProbe[kNumKinds] = {64, 16, 8, 16, 4};
  std::size_t universe;
  if (spec.hot) {
    universe = spec.hot_pairs + spec.hot_paths;
  } else {
    const std::size_t probe_pairs =
        kProbe[kD] + kProbe[kP] + kProbe[kT] + kProbe[kB] * spec.batch;
    universe = static_cast<std::size_t>(
                   (kWarmupSeconds + open_s + 1) * PairsPerSecond(spec)) +
               probe_pairs + kClosedRingPairs;
  }
  // A quarter more per band than an even split needs: bands too narrow to
  // hold that many distinct pairs (Q1 on the DE stand-in) come back short
  // and the others make up the difference.
  const std::vector<Triple> triples =
      BandedPairs(g, lmax, pool, universe / 8 + 1, seed, threads);
  if (triples.size() < universe) {
    throw std::runtime_error("pair generator came back short: " +
                             std::to_string(triples.size()) + " < " +
                             std::to_string(universe));
  }
  for (std::size_t i = 0; i < universe; ++i) {
    plan.pairs.emplace_back(triples[i].s, triples[i].t);
  }
  plan.first = triples[0];

  // Matrices: rows from the first kMatrixSources pool nodes, columns
  // uniform over the graph.
  const std::size_t open_matrices =
      static_cast<std::size_t>((kWarmupSeconds + open_s + 1) * spec.rate[kM]) +
      kProbe[kM];
  const std::size_t num_matrices =
      spec.hot ? spec.hot_matrices : open_matrices + kClosedRingMatrices;
  const std::vector<Node> row_pool(pool.begin(),
                                   pool.begin() + std::min(pool.size(), kMatrixSources));
  for (std::size_t m = 0; m < num_matrices; ++m) {
    std::vector<Node> rows(row_pool);
    for (std::size_t i = 0; i < kMatrixSide && i < rows.size(); ++i) {
      std::swap(rows[i], rows[i + rng.Below(rows.size() - i)]);
    }
    rows.resize(std::min(kMatrixSide, rows.size()));
    std::vector<Node> cols;
    for (std::size_t j = 0; j < kMatrixSide; ++j) {
      cols.push_back(static_cast<Node>(rng.Below(g.NumNodes())));
    }
    plan.matrices.emplace_back(std::move(rows), std::move(cols));
  }

  // Pair sources per phase.
  std::optional<PairSource> dist_src, path_src, ring_src;
  std::size_t matrix_next = 0, closed_matrix_next = 0;
  std::optional<Zipf> matrix_zipf;
  if (spec.hot) {
    dist_src.emplace(0, spec.hot_pairs, spec.zipf, &rng);
    path_src.emplace(spec.hot_pairs, spec.hot_paths, spec.zipf, &rng);
    matrix_zipf.emplace(spec.hot_matrices, spec.zipf);
  } else {
    dist_src.emplace(0, universe - kClosedRingPairs, /*cycle=*/false);
    ring_src.emplace(universe - kClosedRingPairs, universe, /*cycle=*/true);
  }
  auto make = [&](Kind k, bool closed) -> Req {
    PairSource& src = closed && ring_src ? *ring_src : *dist_src;
    switch (k) {
      case kD:
      case kT:
        return Req{k, src.Next()};
      case kP:
        return Req{k, spec.hot ? path_src->Next() : src.Next()};
      case kB: {
        const auto at = static_cast<std::uint32_t>(plan.batch_refs.size());
        for (std::size_t i = 0; i < spec.batch; ++i) plan.batch_refs.push_back(src.Next());
        return Req{k, at};
      }
      default: {
        std::size_t id;
        if (matrix_zipf) {
          id = matrix_zipf->Draw(rng);
        } else if (closed) {
          id = open_matrices + closed_matrix_next++ % kClosedRingMatrices;
        } else {
          id = matrix_next++;
        }
        return Req{kM, static_cast<std::uint32_t>(id)};
      }
    }
  };
  for (const Kind k : OpenKinds(spec, kWarmupSeconds, rng)) plan.warm.push_back(make(k, false));
  for (const Kind k : OpenKinds(spec, open_s, rng)) plan.open.push_back(make(k, false));
  for (int k = 0; k < kNumKinds; ++k) {
    for (std::size_t i = 0; i < kProbe[k]; ++i) plan.probe.push_back(make(Kind(k), false));
  }
  for (const Kind k : WeightedKinds(spec.closed_weight, kClosedRequests, rng)) {
    plan.closed.push_back(make(k, true));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------------

std::uint16_t FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("cannot find a free port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// A route_server child: REPL stdin on a pipe (closing it stops the
/// server), stdout and stderr to a log file. The destructor kills and reaps
/// a child that is still running.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv, const std::string& log) {
    int pipefd[2];
    if (::pipe(pipefd) != 0) throw std::runtime_error("pipe failed");
    const int logfd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (logfd < 0) throw std::runtime_error("cannot open " + log);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(pipefd[0], 0);
      ::dup2(logfd, 1);
      ::dup2(logfd, 2);
      ::close(pipefd[0]);
      ::close(pipefd[1]);
      ::close(logfd);
      ::execv(args[0], args.data());
      std::_Exit(127);
    }
    ::close(pipefd[0]);
    ::close(logfd);
    stdin_ = pipefd[1];
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (stdin_ >= 0) ::close(stdin_);
  }

  bool Alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// Peak resident set (VmHWM) in MB; 0 if unreadable.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0;
  }

  /// Restricts every thread of the server to `cpus`; a thread it starts
  /// later inherits the mask of the thread that starts it.
  void SetCpus(const cpu_set_t& cpus) const {
    const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return;
    while (const dirent* e = ::readdir(d)) {
      const pid_t tid = static_cast<pid_t>(std::atol(e->d_name));
      if (tid > 0) ::sched_setaffinity(tid, sizeof(cpus), &cpus);
    }
    ::closedir(d);
  }

  /// EOF on stdin ends the REPL and the server; waits up to `timeout_s`.
  bool Stop(double timeout_s) {
    if (stdin_ >= 0) {
      ::close(stdin_);
      stdin_ = -1;
    }
    const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (NowNs() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      ::usleep(10000);
    }
    return false;
  }

 private:
  pid_t pid_ = -1;
  int stdin_ = -1;
};

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

enum Outcome : std::uint8_t { kPending, kOk, kErr, kShed, kExpired, kLost };

/// One request sent and, once answered, its reply.
struct Entry {
  Kind kind = kD;
  std::uint8_t phase = 0;
  Outcome outcome = kPending;
  std::uint32_t req = 0;  ///< index into the phase's request list
  std::int64_t due = 0, sent = 0, recv = 0;
  Dist value = 0;  ///< distance, or path length
  std::uint32_t off = 0, cnt = 0;  ///< path nodes or batch/matrix cells
};

enum Phase : std::uint8_t { kWarm, kOpen, kClosed, kProbe };

struct Reload {
  std::int64_t sent = 0, ack = 0, seen = 0;
  bool ok = false;
  double rebuild_s = 0;  ///< rebuild_<backend>_last_s after publication
};

Outcome FromStatus(std::uint8_t status) {
  if (status == wire::kStatusOk) return kOk;
  if (status == wire::kStatusOverload) return kShed;
  if (status == wire::kStatusTimeout) return kExpired;
  return kErr;
}

class Run {
 public:
  Run(const Spec& spec, const Plan& plan, bool traced)
      : tracing(traced), spec_(spec), plan_(plan), traced_(traced) {}

  /// A traced run traces the warm-up and the even windows of the measured
  /// open loop; the odd windows are its untraced control, so that
  /// trace.overhead_us compares traced with untraced windows of one run.
  bool TracedWindow(std::uint8_t phase, std::size_t i, std::size_t n) const {
    return traced_ && (phase != kOpen || OpenWindow(i, n) % 2 == 0);
  }

  std::vector<Entry> entries;
  std::vector<Node> nodes;   // path replies
  std::vector<Dist> cells;   // batch and matrix replies
  std::vector<Reload> reloads;
  std::vector<Span> request_spans;  // traced: one slot per entry
  /// Traced runs: false while the open loop is in one of its control
  /// windows, where neither request spans nor `stats` polls are made (see
  /// TracedWindow).
  std::atomic<bool> tracing{false};
  std::int64_t closed_start = 0, closed_end = 0;
  std::atomic<double> queue_depth_max{0}, in_flight_max{0};

  const std::vector<Req>& Reqs(std::uint8_t phase) const {
    switch (phase) {
      case kWarm: return plan_.warm;
      case kOpen: return plan_.open;
      case kClosed: return plan_.closed;
      default: return plan_.probe;
    }
  }

  std::string Encode(const Req& r, std::uint64_t id) const {
    switch (r.kind) {
      case kD: return wire::EncodeDistance(wire::kDistance, id, Pair(r).first, Pair(r).second);
      case kP: return wire::EncodeDistance(wire::kPath, id, Pair(r).first, Pair(r).second);
      case kB: {
        std::vector<std::pair<Node, Node>> pairs;
        for (std::size_t i = 0; i < spec_.batch; ++i) {
          pairs.push_back(plan_.pairs[plan_.batch_refs[r.first + i]]);
        }
        return wire::EncodeBatch(id, pairs);
      }
      case kM: return wire::EncodeMatrix(id, plan_.matrices[r.first].first,
                                         plan_.matrices[r.first].second);
      default: {
        const auto& [s, t] = Pair(r);
        return "d " + std::to_string(s) + " " + std::to_string(t) + "\n";
      }
    }
  }

  const std::pair<Node, Node>& Pair(const Req& r) const { return plan_.pairs[r.first]; }

  /// Decodes a v2 reply into entry `e`.
  void Record(Entry& e, const wire::Frame& f, std::int64_t now) {
    e.recv = now;
    e.outcome = FromStatus(f.status);
    if (e.outcome != kOk) return;
    const std::string& p = f.payload;
    bool good = true;
    switch (e.kind) {
      case kD:
        good = p.size() == 8;
        if (good) e.value = wire::GetU64(p.data());
        break;
      case kP: {
        good = p.size() >= 12;
        if (!good) break;
        e.value = wire::GetU64(p.data());
        const std::uint32_t m = wire::GetU32(p.data() + 8);
        good = p.size() == 12 + 4 * std::size_t{m};
        if (!good) break;
        e.off = static_cast<std::uint32_t>(nodes.size());
        e.cnt = m;
        for (std::uint32_t i = 0; i < m; ++i) nodes.push_back(wire::GetU32(p.data() + 12 + 4 * i));
        break;
      }
      case kB:
      case kM: {
        const std::size_t head = e.kind == kB ? 4 : 8;
        good = p.size() >= head;
        if (!good) break;
        const std::size_t n = (p.size() - head) / 8;
        const std::size_t want =
            e.kind == kB ? spec_.batch
                         : plan_.matrices[Reqs(e.phase)[e.req].first].first.size() *
                               kMatrixSide;
        good = n == want && (p.size() - head) % 8 == 0;
        if (!good) break;
        e.off = static_cast<std::uint32_t>(cells.size());
        e.cnt = static_cast<std::uint32_t>(n);
        for (std::size_t i = 0; i < n; ++i) cells.push_back(wire::GetU64(p.data() + head + 8 * i));
        break;
      }
      default:
        good = false;
    }
    if (!good) e.outcome = kErr;
  }

  /// Decodes a v1 text reply ("OK d <n|unreachable>" / "ERR <code> ...").
  void RecordText(Entry& e, const std::string& line, std::int64_t now) {
    e.recv = now;
    if (line.rfind("OK d ", 0) == 0) {
      const std::string v = line.substr(5);
      if (v == "unreachable") {
        e.value = kUnreachable;
        e.outcome = kOk;
      } else {
        char* end = nullptr;
        e.value = std::strtoull(v.c_str(), &end, 10);
        e.outcome = (!v.empty() && *end == '\0') ? kOk : kErr;
      }
    } else if (line.rfind("ERR overload", 0) == 0) {
      e.outcome = kShed;
    } else if (line.rfind("ERR timeout", 0) == 0) {
      e.outcome = kExpired;
    } else {
      e.outcome = kErr;
    }
  }

  /// Open loop: requests due at a fixed rate regardless of replies; v2
  /// kinds round-robin over `v2`, text lines over `text`. Each request is
  /// timed from its due time. Returns when every reply is in or the
  /// drain deadline passes (the rest count as lost).
  void RunOpen(std::uint8_t phase, double seconds, std::vector<wire::Conn*> v2,
               std::vector<wire::Conn*> text, std::uint64_t phase_span) {
    const std::vector<Req>& reqs = Reqs(phase);
    if (reqs.empty()) return;
    const double gap_ns = seconds * 1e9 / static_cast<double>(reqs.size());
    const std::size_t base = entries.size();
    entries.resize(base + reqs.size());
    if (traced_) request_spans.resize(entries.size());
    std::vector<char> span_on(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) span_on[i] = TracedWindow(phase, i, reqs.size());
    std::vector<wire::Conn*> conn_of(reqs.size());
    std::vector<std::vector<std::size_t>> fifo(text.size());  // text replies come in order
    std::size_t nv2 = 0, ntext = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      Entry& e = entries[base + i];
      e.kind = reqs[i].kind;
      e.phase = phase;
      e.req = static_cast<std::uint32_t>(i);
      if (e.kind == kT) {
        const std::size_t c = ntext++ % text.size();
        conn_of[i] = text[c];
        fifo[c].push_back(base + i);
      } else {
        conn_of[i] = v2[nv2++ % v2.size()];
      }
    }
    const std::int64_t start = NowNs() + 2000000;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      entries[base + i].due = start + static_cast<std::int64_t>(gap_ns * static_cast<double>(i));
    }

    std::atomic<bool> sending_done{false};
    // jthread: on an exception below, its destructor stops and joins it.
    std::jthread receiver([&](std::stop_token stop) {
      std::vector<wire::Conn*> conns(v2);
      conns.insert(conns.end(), text.begin(), text.end());
      std::vector<pollfd> fds;
      for (wire::Conn* c : conns) fds.push_back(pollfd{c->fd(), POLLIN, 0});
      std::vector<std::size_t> fifo_at(text.size(), 0);
      std::size_t received = 0;
      std::int64_t drain_deadline = 0;
      wire::Frame frame;
      std::string line;
      while (received < reqs.size() && !stop.stop_requested()) {
        const std::int64_t now0 = NowNs();
        if (sending_done.load()) {
          if (drain_deadline == 0) drain_deadline = now0 + 20000000000LL;
          if (now0 > drain_deadline) break;
        }
        if (::poll(fds.data(), fds.size(), 5) <= 0) continue;
        for (std::size_t c = 0; c < conns.size(); ++c) {
          if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          if (!conns[c]->Receive()) {
            fds[c].fd = -1;  // closed: its outstanding requests stay lost
            continue;
          }
          const std::int64_t now = NowNs();
          if (c < v2.size()) {
            while (conns[c]->PopFrame(&frame)) {
              const std::size_t idx = frame.id - 1;
              if (frame.id == 0 || idx < base || idx >= base + reqs.size()) continue;
              Record(entries[idx], frame, now);
              if (span_on[idx - base]) request_spans[idx].end_ns = now;
              ++received;
            }
          } else {
            const std::size_t t = c - v2.size();
            while (conns[c]->PopLine(&line)) {
              if (fifo_at[t] >= fifo[t].size()) continue;
              const std::size_t idx = fifo[t][fifo_at[t]++];
              RecordText(entries[idx], line, now);
              if (span_on[idx - base]) request_spans[idx].end_ns = now;
              ++received;
            }
          }
        }
      }
    });

    for (std::size_t i = 0; i < reqs.size(); ++i) {
      Entry& e = entries[base + i];
      if (phase == kOpen && i > 0 && OpenWindow(i, reqs.size()) != OpenWindow(i - 1, reqs.size())) {
        tracing = span_on[i] != 0;
      }
      const timespec ts{static_cast<time_t>(e.due / 1000000000),
                        static_cast<long>(e.due % 1000000000)};
      while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
      }
      const std::size_t idx = base + i;
      const std::string bytes = Encode(reqs[i], idx + 1);
      e.sent = NowNs();
      if (span_on[i]) {
        request_spans[idx] = Span{0, phase_span, kKindName[e.kind], e.due, 0, idx + 1};
      }
      if (!conn_of[i]->Send(bytes)) e.outcome = kLost;
    }
    if (phase == kOpen) tracing = traced_;
    sending_done = true;
    receiver.join();
    for (std::size_t i = base; i < entries.size(); ++i) {
      if (entries[i].outcome == kPending) entries[i].outcome = kLost;
    }
  }

  /// Closed loop: `window` requests in flight on each v2 connection; each
  /// reply releases the next request. Stops sending at `seconds` (or after
  /// `limit` requests) and drains.
  void RunClosed(std::uint8_t phase, double seconds, std::size_t limit,
                 std::vector<wire::Conn*> conns, std::size_t window) {
    const std::vector<Req>& reqs = Reqs(phase);
    std::vector<pollfd> fds;
    for (wire::Conn* c : conns) fds.push_back(pollfd{c->fd(), POLLIN, 0});
    const std::int64_t start = NowNs();
    const std::int64_t end = seconds > 0 ? start + static_cast<std::int64_t>(seconds * 1e9)
                                         : INT64_MAX;
    std::size_t next = 0, outstanding = 0;
    auto send_one = [&](std::size_t c) {
      if (next >= limit || NowNs() >= end) return;
      std::size_t k = next++;
      const Req& r = reqs[k % reqs.size()];
      if (r.kind == kT) return;
      Entry e;
      e.kind = r.kind;
      e.phase = phase;
      e.req = static_cast<std::uint32_t>(k % reqs.size());
      entries.push_back(e);
      Entry& added = entries.back();
      const std::string bytes = Encode(r, entries.size());
      added.due = added.sent = NowNs();
      if (!conns[c]->Send(bytes)) {
        added.outcome = kLost;
        return;
      }
      ++outstanding;
    };
    for (std::size_t c = 0; c < conns.size(); ++c) {
      for (std::size_t w = 0; w < window; ++w) send_one(c);
    }
    const std::int64_t drain_deadline =
        (seconds > 0 ? end : start) + 20000000000LL;
    wire::Frame frame;
    while (outstanding > 0) {
      if (NowNs() > drain_deadline) break;
      if (::poll(fds.data(), fds.size(), 5) <= 0) continue;
      for (std::size_t c = 0; c < conns.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (!conns[c]->Receive()) {
          fds[c].fd = -1;
          continue;
        }
        const std::int64_t now = NowNs();
        while (conns[c]->PopFrame(&frame)) {
          if (frame.id == 0 || frame.id > entries.size()) continue;
          Entry& e = entries[frame.id - 1];
          if (e.outcome != kPending) continue;
          Record(e, frame, now);
          --outstanding;
          send_one(c);
        }
      }
    }
    if (phase == kClosed) {
      closed_start = start;
      closed_end = end;
    }
    for (Entry& e : entries) {
      if (e.phase == phase && e.outcome == kPending) e.outcome = kLost;
    }
  }

  /// v1 text lines one at a time on `conn`.
  void RunTextSequential(std::uint8_t phase, wire::Conn* conn) {
    const std::vector<Req>& reqs = Reqs(phase);
    std::string line;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].kind != kT) continue;
      Entry e;
      e.kind = kT;
      e.phase = phase;
      e.req = static_cast<std::uint32_t>(i);
      e.due = e.sent = NowNs();
      e.outcome = kLost;
      if (conn->Send(Encode(reqs[i], 0))) {
        while (!conn->PopLine(&line)) {
          if (!conn->Receive()) break;
        }
        RecordText(e, line, NowNs());
      }
      entries.push_back(e);
    }
  }

  /// One live reload: `updf <file>`, `reload`, then `stats` polls until
  /// the backend's epoch reaches `generation`.
  Reload DoReload(wire::Conn& conn, const std::string& delta_file,
                  double generation, std::uint64_t* id) {
    Reload r;
    wire::Frame f;
    const std::string epoch_key = std::string("epoch_") + spec_.backend;
    const std::string rebuild_key = std::string("rebuild_") + spec_.backend + "_last_s";
    ++*id;
    if (!conn.Call(wire::EncodeUpdateFile(*id, delta_file), *id, &f) ||
        f.status != wire::kStatusOk) {
      std::fprintf(stderr, "updf failed: %s\n", f.payload.c_str());
      return r;
    }
    ++*id;
    r.sent = NowNs();
    if (!conn.Call(wire::EncodeEmpty(wire::kReload, *id), *id, &f) ||
        f.status != wire::kStatusOk) {
      std::fprintf(stderr, "reload failed: %s\n", f.payload.c_str());
      return r;
    }
    r.ack = NowNs();
    const std::int64_t deadline = r.ack + 120000000000LL;
    while (NowNs() < deadline) {
      ++*id;
      if (!conn.Call(wire::EncodeEmpty(wire::kStats, *id), *id, &f)) break;
      const auto stats = wire::ParseStats(f.payload);
      const auto it = stats.find(epoch_key);
      if (it != stats.end() && it->second >= generation) {
        r.seen = NowNs();
        r.ok = true;
        const auto rb = stats.find(rebuild_key);
        r.rebuild_s = rb == stats.end() ? 0 : rb->second;
        return r;
      }
      ::usleep(2000);
    }
    std::fprintf(stderr, "epoch %s never reached %.0f\n", epoch_key.c_str(), generation);
    return r;
  }

 private:
  const Spec& spec_;
  const Plan& plan_;
  bool traced_;
};

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

/// Checks every answered request against the benchmark's Dijkstra on the
/// weight version(s) the reply may come from: a reply that overlaps a swap
/// may match the old or the new graph. Version k is `base` after the
/// first k of `batches`; only the versions some reply needs are built.
/// Returns the number of wrong answers (details to stderr).
std::size_t Verify(const Spec& spec, const Plan& plan, const Run& run, const RefGraph& base,
                   const std::vector<std::vector<ArcUpdate>>& batches, std::size_t threads) {
  const std::size_t nv = run.reloads.size() + 1;
  auto range = [&](const Entry& e) {
    std::size_t lo = 0, hi = 0;
    for (std::size_t k = 0; k < run.reloads.size() && k + 1 < nv; ++k) {
      const Reload& r = run.reloads[k];
      if (r.ok && r.seen < e.sent) lo = k + 1;
      if (r.sent != 0 && r.sent < e.recv) hi = k + 1;
    }
    return std::pair<std::size_t, std::size_t>(lo, std::max(lo, hi));
  };
  // Every (pair, version) an answer may need.
  std::vector<std::vector<std::pair<Node, Node>>> need(nv);
  auto for_each_pair = [&](const Entry& e, auto&& fn) {
    const Req& r = run.Reqs(e.phase)[e.req];
    switch (e.kind) {
      case kB:
        for (std::size_t i = 0; i < spec.batch; ++i) fn(i, plan.pairs[plan.batch_refs[r.first + i]]);
        break;
      case kM: {
        const auto& [rows, cols] = plan.matrices[r.first];
        std::size_t i = 0;
        for (const Node s : rows) {
          for (const Node t : cols) fn(i++, std::pair<Node, Node>(s, t));
        }
        break;
      }
      default:
        fn(0, plan.pairs[r.first]);
    }
  };
  for (const Entry& e : run.entries) {
    if (e.outcome != kOk) continue;
    const auto [lo, hi] = range(e);
    for (std::size_t v = lo; v <= hi; ++v) {
      for_each_pair(e, [&](std::size_t, const std::pair<Node, Node>& p) { need[v].push_back(p); });
    }
  }
  std::vector<RefGraph> versions(nv);
  {
    RefGraph current = base;
    for (std::size_t v = 0; v < nv; ++v) {
      if (v > 0) current.Apply(batches[v - 1]);
      if (!need[v].empty()) versions[v] = current;
    }
  }
  std::vector<std::vector<std::uint64_t>> keys(nv);
  std::vector<std::vector<Dist>> truth(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    std::sort(need[v].begin(), need[v].end());
    need[v].erase(std::unique(need[v].begin(), need[v].end()), need[v].end());
    truth[v] = TrueDistances(versions[v], need[v], threads);
    for (const auto& [s, t] : need[v]) keys[v].push_back((std::uint64_t{s} << 32) | t);
  }
  auto true_dist = [&](std::size_t v, const std::pair<Node, Node>& p) {
    const std::uint64_t key = (std::uint64_t{p.first} << 32) | p.second;
    const auto it = std::lower_bound(keys[v].begin(), keys[v].end(), key);
    return truth[v][it - keys[v].begin()];
  };

  std::size_t wrong = 0;
  auto report = [&](const Entry& e, const std::string& what) {
    if (++wrong <= 10) {
      std::fprintf(stderr, "WRONG %s reply (phase %d): %s\n", kKindName[e.kind], e.phase,
                   what.c_str());
    }
  };
  for (const Entry& e : run.entries) {
    if (e.outcome != kOk) continue;
    const auto [lo, hi] = range(e);
    if (e.kind == kP) {
      const auto& p = plan.pairs[run.Reqs(e.phase)[e.req].first];
      std::string why, last;
      bool ok = false;
      for (std::size_t v = lo; v <= hi && !ok; ++v) {
        ok = CheckPath(versions[v], p.first, p.second, true_dist(v, p), e.value,
                       run.nodes.data() + e.off, e.cnt, &why);
        if (!ok) last = why;
      }
      if (!ok) report(e, "d(" + std::to_string(p.first) + "," + std::to_string(p.second) + "): " + last);
      continue;
    }
    bool bad = false;
    std::string detail;
    for_each_pair(e, [&](std::size_t i, const std::pair<Node, Node>& p) {
      if (bad) return;
      const Dist got = (e.kind == kB || e.kind == kM) ? run.cells[e.off + i] : e.value;
      bool match = false;
      for (std::size_t v = lo; v <= hi && !match; ++v) match = got == true_dist(v, p);
      if (!match) {
        bad = true;
        detail = "d(" + std::to_string(p.first) + "," + std::to_string(p.second) +
                 ") = " + std::to_string(got) + ", Dijkstra says " +
                 std::to_string(true_dist(lo, p));
      }
    });
    if (bad) report(e, detail);
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

double IndexMbFromLog(const std::string& log, const std::string& backend) {
  std::ifstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t at = line.find(" MB, built in");
    if (at == std::string::npos || line.find(backend) == std::string::npos) continue;
    const std::size_t comma = line.rfind(',', at);
    if (comma != std::string::npos) return std::atof(line.c_str() + comma + 1);
  }
  return 0;
}

struct Args {
  std::string workload, data, server;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--data") a.data = v;
    else if (k == "--server") a.server = v;
    else throw std::runtime_error("unknown flag " + k);
  }
  if (a.workload.empty() || a.data.empty() || a.server.empty() || a.seconds <= 0) {
    throw std::runtime_error("usage: pb_driver --workload W --seed N --seconds S "
                             "--trace 0|1 --data DIR --server PATH");
  }
  return a;
}

void Log(const char* fmt, double v) {
  std::fprintf(stderr, fmt, v);
  std::fflush(stderr);
}

int Main(int argc, char** argv) {
  const std::int64_t t_begin = NowNs();
  const Args args = ParseArgs(argc, argv);
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) throw std::runtime_error("unknown workload " + args.workload);
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  Tracer tracer;
  const std::uint64_t run_span = tracer.Begin("run", 0);

  // ---- Inputs -------------------------------------------------------------
  std::uint64_t span = tracer.Begin("prepare", run_span);
  const std::string base = EnsureDataset(args.data, kDataset);
  const RefGraph graph = RefGraph::ReadDimacsGr(base + ".gr");
  const Plan plan = MakePlan(*spec, graph, args.seconds, args.seed, threads);
  const std::string run_dir = args.data + "/run-" + spec->name;
  ::mkdir(run_dir.c_str(), 0755);
  std::vector<std::string> delta_files;
  {
    char cwd[4096];
    const std::string abs_run_dir =
        run_dir[0] == '/' ? run_dir : std::string(::getcwd(cwd, sizeof(cwd))) + "/" + run_dir;
    for (std::size_t k = 0; k < spec->reloads; ++k) {
      delta_files.push_back(abs_run_dir + "/delta-" + std::to_string(k + 1) + ".ahud");
    }
  }
  const std::vector<std::vector<ArcUpdate>> batches =
      WriteTrafficBatches(base, kDeltaFraction, args.seed ^ 0xde17a5ULL, delta_files);
  tracer.End(span);
  Log("[pb] inputs ready after %.1fs\n", (NowNs() - t_begin) / 1e9);

  // ---- Server start: process start to first correct reply ----------------
  const std::uint16_t port = FreePort();
  const std::string log = run_dir + "/server.log";
  span = tracer.Begin("setup", run_span);
  const std::int64_t t_spawn = NowNs();
  ServerProcess server({args.server, base, "--backends", spec->backend, "--listen",
                        std::to_string(port)},
                       log);
  double setup_s = 0;
  {
    const std::string probe = "d " + std::to_string(plan.first.s) + " " +
                              std::to_string(plan.first.t) + "\n";
    const std::string want = "OK d " + std::to_string(plan.first.d);
    while (true) {
      if (!server.Alive()) throw std::runtime_error("route_server exited during setup; see " + log);
      if (NowNs() - t_spawn > 150000000000LL) throw std::runtime_error("setup timed out");
      wire::Conn c;
      std::string err;
      if (c.Connect(port, &err)) {
        std::string line;
        if (!c.Send(probe)) throw std::runtime_error("setup probe send failed");
        while (!c.PopLine(&line)) {
          if (!c.Receive()) throw std::runtime_error("setup probe: connection closed");
        }
        if (line != want) throw std::runtime_error("setup probe answered '" + line + "', want '" + want + "'");
        setup_s = (NowNs() - t_spawn) / 1e9;
        break;
      }
      ::usleep(2000);
    }
  }
  tracer.End(span);
  Log("[pb] server ready, setup %.2fs\n", setup_s);

  // ---- Connections ---------------------------------------------------------
  std::vector<std::unique_ptr<wire::Conn>> owned;
  auto open_conn = [&](bool v2) {
    owned.push_back(std::make_unique<wire::Conn>());
    std::string err;
    if (!owned.back()->Connect(port, &err) || (v2 && !owned.back()->StartV2(&err))) {
      throw std::runtime_error("connect: " + err);
    }
    return owned.back().get();
  };
  const std::vector<wire::Conn*> open_v2 = {open_conn(true), open_conn(true),
                                            open_conn(true), open_conn(true)};
  const std::vector<wire::Conn*> open_text = {open_conn(false), open_conn(false)};
  std::vector<wire::Conn*> closed_v2;
  for (std::size_t i = 0; i < kClosedConns; ++i) closed_v2.push_back(open_conn(true));
  wire::Conn* control = open_conn(true);
  wire::Conn* operator_conn = open_conn(true);
  wire::Conn* poller_conn = open_conn(true);
  auto total_bytes = [&](bool sent) {
    std::uint64_t sum = 0;
    for (const auto& c : owned) sum += sent ? c->bytes_sent() : c->bytes_received();
    return sum;
  };
  std::uint64_t control_id = 1u << 30;
  auto snapshot = [&](std::uint64_t* sent, std::uint64_t* recv) {
    *sent = total_bytes(true);
    *recv = total_bytes(false);
    wire::Frame f;
    ++control_id;
    if (!control->Call(wire::EncodeEmpty(wire::kStats, control_id), control_id, &f) ||
        f.status != wire::kStatusOk) {
      throw std::runtime_error("stats request failed");
    }
    return wire::ParseStats(f.payload);
  };

  Run run(*spec, plan, args.trace);
  span = tracer.Begin("warmup", run_span);
  run.RunOpen(kWarm, kWarmupSeconds, open_v2, open_text, span);
  tracer.End(span);
  const std::size_t warm_entries = run.entries.size();
  std::uint64_t sent_a = 0, recv_a = 0;
  const auto stats_a = snapshot(&sent_a, &recv_a);

  // Traced runs poll the server's queue depth and in-flight count, except
  // in the open loop's control windows.
  std::jthread poller;
  if (args.trace) {
    poller = std::jthread([&](std::stop_token stop) {
      std::uint64_t id = 1u << 31;
      wire::Frame f;
      while (!stop.stop_requested()) {
        if (!run.tracing) {
          ::usleep(10000);
          continue;
        }
        ++id;
        if (!poller_conn->Call(wire::EncodeEmpty(wire::kStats, id), id, &f)) break;
        const auto s = wire::ParseStats(f.payload);
        auto bump = [&](std::atomic<double>& m, const char* key) {
          const auto it = s.find(key);
          if (it != s.end() && it->second > m.load()) m = it->second;
        };
        bump(run.queue_depth_max, "queue_depth");
        bump(run.in_flight_max, "in_flight");
        ::usleep(10000);
      }
    });
  }

  // ---- Measured phases -----------------------------------------------------
  const double open_s = args.seconds * kOpenShare;
  span = tracer.Begin("open_loop", run_span);
  run.RunOpen(kOpen, open_s, open_v2, open_text, span);
  tracer.End(span);
  Log("[pb] open loop done at %.1fs\n", (NowNs() - t_begin) / 1e9);

  span = tracer.Begin("closed_loop", run_span);
  run.RunClosed(kClosed, args.seconds * kClosedShare, SIZE_MAX, closed_v2, kClosedWindow);
  tracer.End(span);

  span = tracer.Begin("reload", run_span);
  std::uint64_t op_id = 1u << 20;
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  ::sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all_cpus)) cpus.push_back(c);
  }
  // reload_s is summarised over windows of consecutive reloads: one turn
  // over the CPUs when they rotate, else a single reload.
  const std::size_t reload_window = spec->rotate_cpus ? std::max<std::size_t>(1, cpus.size()) : 1;
  for (std::size_t k = 0; k < spec->reloads; ++k) {
    if (spec->rotate_cpus && !cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[k % cpus.size()], &one);
      server.SetCpus(one);
    }
    run.reloads.push_back(run.DoReload(*operator_conn, delta_files[k],
                                       static_cast<double>(k + 2), &op_id));
  }
  if (spec->rotate_cpus) server.SetCpus(all_cpus);
  tracer.End(span);
  // Probe: a few of every kind on the final weights.
  span = tracer.Begin("probe", run_span);
  run.RunClosed(kProbe, 0, plan.probe.size(), {closed_v2[0]}, 4);
  run.RunTextSequential(kProbe, open_text[0]);
  tracer.End(span);
  poller.request_stop();
  if (poller.joinable()) poller.join();
  std::uint64_t sent_b = 0, recv_b = 0;
  const auto stats_b = snapshot(&sent_b, &recv_b);

  const double peak_rss_mb = server.PeakRssMb();
  owned.clear();
  const bool clean_exit = server.Stop(30);
  const double index_mb = IndexMbFromLog(log, spec->backend);
  Log("[pb] server stopped at %.1fs\n", (NowNs() - t_begin) / 1e9);

  // ---- Checks --------------------------------------------------------------
  span = tracer.Begin("verify", run_span);
  bool correct = clean_exit;
  if (!clean_exit) std::fprintf(stderr, "route_server did not exit cleanly\n");
  // Checked on the benchmark's own copy of each weight version the server
  // published.
  const std::size_t wrong = Verify(*spec, plan, run, graph, batches, threads);
  if (wrong > 0) {
    std::fprintf(stderr, "%zu wrong answers\n", wrong);
    correct = false;
  }
  tracer.End(span);
  Log("[pb] checks done at %.1fs\n", (NowNs() - t_begin) / 1e9);

  std::size_t by_outcome[6] = {0, 0, 0, 0, 0, 0};
  std::size_t replies_in_window = 0;
  for (std::size_t i = 0; i < run.entries.size(); ++i) {
    const Entry& e = run.entries[i];
    ++by_outcome[e.outcome];
    if (i >= warm_entries && e.outcome != kLost && e.outcome != kPending) ++replies_in_window;
  }
  std::size_t reloads_ok = 0;
  for (const Reload& r : run.reloads) reloads_ok += r.ok;
  const std::size_t reload_failed = run.reloads.size() - reloads_ok;
  auto delta = [&](const char* key) {
    const auto a = stats_a.find(key), b = stats_b.find(key);
    return (a == stats_a.end() || b == stats_b.end()) ? -1.0 : b->second - a->second;
  };
  // Totals reached by independent paths must agree.
  const double server_replies = delta("served") + delta("errors") + delta("shed") + delta("expired");
  if (server_replies != static_cast<double>(replies_in_window)) {
    std::fprintf(stderr, "cross-check: client saw %zu replies, server stats count %.0f\n",
                 replies_in_window, server_replies);
    correct = false;
  }
  if (delta("bytes_in") != static_cast<double>(sent_b - sent_a) ||
      delta("bytes_out") != static_cast<double>(recv_b - recv_a)) {
    std::fprintf(stderr, "cross-check: bytes in %.0f vs sent %llu, out %.0f vs received %llu\n",
                 delta("bytes_in"), static_cast<unsigned long long>(sent_b - sent_a),
                 delta("bytes_out"), static_cast<unsigned long long>(recv_b - recv_a));
    correct = false;
  }
  if (delta("swaps") != static_cast<double>(reloads_ok)) {
    std::fprintf(stderr, "cross-check: %zu reloads published, swaps delta %.0f\n", reloads_ok,
                 delta("swaps"));
    correct = false;
  }
  const std::size_t attempted = run.entries.size() + run.reloads.size();
  const std::size_t failed =
      run.entries.size() - by_outcome[kOk] + reload_failed;
  std::printf("%s seed=%llu: attempted=%zu failed=%zu (err=%zu shed=%zu expired=%zu lost=%zu "
              "reload=%zu) reloads=%zu wrong=%zu\n",
              spec->name, static_cast<unsigned long long>(args.seed), attempted, failed,
              by_outcome[kErr], by_outcome[kShed], by_outcome[kExpired], by_outcome[kLost],
              reload_failed, run.reloads.size(), wrong);

  // ---- Metrics -------------------------------------------------------------
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  auto put = [&](const std::string& name, double v, const char* unit) {
    metrics.push_back({name, {v, unit}});
  };
  // Latencies are summarised per window of the open loop and each metric is
  // the median of its per-window quantile over the quieter windows
  // (QuietWindows); the closed loop's rate is counted per window too.
  std::vector<std::vector<double>> lat[kNumKinds];
  for (auto& w : lat) w.resize(kOpenWindows);
  std::vector<double> lag;
  for (const Entry& e : run.entries) {
    if (e.phase != kOpen || e.outcome != kOk) continue;
    lat[e.kind][OpenWindow(e.req, plan.open.size())].push_back((e.recv - e.due) / 1e3);
    lag.push_back((e.sent - e.due) / 1e3);
  }
  std::vector<double> distance_p50(kOpenWindows);
  std::string per_window_log;
  for (std::size_t w = 0; w < kOpenWindows; ++w) {
    distance_p50[w] = lat[kD][w].empty() ? NAN : Quantile(lat[kD][w], 0.5);
    char cell[32];
    std::snprintf(cell, sizeof(cell), " %.0f", distance_p50[w]);
    per_window_log += cell;
  }
  std::fprintf(stderr, "[pb] distance p50 per open-loop window (us):%s\n", per_window_log.c_str());
  const std::vector<std::size_t> quiet = QuietWindows(distance_p50);
  auto windowed = [&](Kind k, double q, double scale) {
    std::vector<double> per_window;
    for (const std::size_t w : quiet) {
      if (!lat[k][w].empty()) per_window.push_back(Quantile(lat[k][w], q) * scale);
    }
    return Median(std::move(per_window));
  };
  std::vector<double> closed_counts(kClosedWindows, 0);
  const double closed_s = (run.closed_end - run.closed_start) / 1e9;
  for (const Entry& e : run.entries) {
    if (e.phase != kClosed || e.outcome != kOk || e.recv >= run.closed_end) continue;
    closed_counts[static_cast<std::size_t>((e.recv - run.closed_start) * kClosedWindows /
                                           (run.closed_end - run.closed_start))] += 1;
  }
  // reload_s: the median of each window of reloads, then the median over
  // the quieter half of the windows, as for the latencies.
  std::vector<double> reload_s, rebuild_s, reload_windows;
  std::string reload_log;
  for (const Reload& r : run.reloads) {
    if (!r.ok) continue;
    reload_s.push_back((r.seen - r.ack) / 1e9);
    rebuild_s.push_back(r.rebuild_s);
    char cell[48];
    std::snprintf(cell, sizeof(cell), " %.3f/%.3f", reload_s.back(), r.rebuild_s);
    reload_log += cell;
  }
  std::fprintf(stderr, "[pb] reload / server rebuild per cycle (s):%s\n", reload_log.c_str());
  for (std::size_t i = 0; i + reload_window <= reload_s.size(); i += reload_window) {
    const auto first = reload_s.begin() + static_cast<std::ptrdiff_t>(i);
    reload_windows.push_back(
        Median(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(reload_window))));
  }
  std::vector<double> quiet_reloads;
  for (const std::size_t w : QuietWindows(reload_windows)) quiet_reloads.push_back(reload_windows[w]);
  if (!args.trace) {
    put("setup_s", setup_s, "s");
    put("distance_p50_us", windowed(kD, 0.5, 1), "us");
    put("path_p50_us", windowed(kP, 0.5, 1), "us");
    put("batch_p50_us", windowed(kB, 0.5, 1), "us");
    put("text_p50_us", windowed(kT, 0.5, 1), "us");
    put("matrix_p50_ms", windowed(kM, 0.5, 1e-3), "ms");
    put("reload_s", Median(quiet_reloads), "s");
    put("peak_rss_mb", peak_rss_mb, "MB");
    put("index_mb", index_mb, "MB");
  } else {
    // Per-layer: server-side counters over the measured window, then the
    // program's layers timed in-process on this run's inputs.
    LayerPlan lp;
    lp.graph_base = base;
    lp.backend = spec->backend;
    lp.batch_size = spec->batch;
    lp.delta_file = delta_files.front();
    for (const Req& r : plan.open) {
      if (r.kind == kD && lp.distance_pairs.size() < 2000) lp.distance_pairs.push_back(plan.pairs[r.first]);
      if (r.kind == kP && lp.path_pairs.size() < 500) lp.path_pairs.push_back(plan.pairs[r.first]);
      if (r.kind == kM && lp.matrices.size() < 16) lp.matrices.push_back(plan.matrices[r.first]);
      if (r.kind == kB && lp.batches.size() < 200 * spec->batch) {
        for (std::size_t i = 0; i < spec->batch; ++i) lp.batches.push_back(plan.pairs[plan.batch_refs[r.first + i]]);
      }
      if (r.kind == kD || r.kind == kT) lp.cache_keys.push_back(plan.pairs[r.first]);
      if (r.kind == kB) {
        for (std::size_t i = 0; i < spec->batch; ++i) lp.cache_keys.push_back(plan.pairs[plan.batch_refs[r.first + i]]);
      }
    }
    span = tracer.Begin("layers", run_span);
    const std::map<std::string, double> layers = MeasureLayers(lp, tracer, span);
    tracer.End(span);
    auto layer = [&](const char* name, const char* unit) {
      const auto it = layers.find(name);
      put(name, it == layers.end() ? 0 : it->second, unit);
    };
    layer("graph.dimacs_read_s", "s");
    layer("index.build_s", "s");
    layer("search.distance_p50_us", "us");
    layer("search.distance_p99_us", "us");
    layer("search.path_p50_us", "us");
    layer("search.path_p99_us", "us");
    layer("search.first_query_ms", "ms");
    layer("matrix.compute_ms", "ms");
    layer("matrix.compute_1t_ms", "ms");
    layer("update.delta_load_ms", "ms");
    layer("update.apply_ms", "ms");
    layer("update.repair_s", "s");
    put("registry.rebuild_s", Quantile(rebuild_s, 0.5), "s");
    put("cache.invalidations", reloads_ok ? delta("cache_invalidations") / reloads_ok : 0,
        "1/reload");
    const double lookups = delta("cache_hits") + delta("cache_misses");
    put("cache.hit_ratio", lookups > 0 ? delta("cache_hits") / lookups : 0, "ratio");
    put("cache.lookups", lookups, "count");
    layer("cache.lookup_ns", "ns");
    layer("cache.insert_ns", "ns");
    layer("stack.hit_us", "us");
    layer("stack.miss_us", "us");
    put("engine.queue_depth_max", run.queue_depth_max.load(), "count");
    put("admission.in_flight_max", run.in_flight_max.load(), "count");
    layer("wire.v2_decode_ns", "ns");
    layer("wire.v2_encode_ns", "ns");
    layer("wire.v1_parse_ns", "ns");
    layer("wire.v1_format_ns", "ns");
    put("wire.bytes_per_request",
        replies_in_window ? (delta("bytes_in") + delta("bytes_out")) / replies_in_window : 0,
        "bytes");
    // The p90s, kept out of the end-to-end set (see README), summarised as
    // the end-to-end medians are.
    put("client.distance_p90_us", windowed(kD, 0.9, 1), "us");
    put("client.path_p90_us", windowed(kP, 0.9, 1), "us");
    put("client.batch_p90_us", windowed(kB, 0.9, 1), "us");
    put("client.text_p90_us", windowed(kT, 0.9, 1), "us");
    put("client.matrix_p90_ms", windowed(kM, 0.9, 1e-3), "ms");
    // The p99 tails, kept out of the end-to-end set (see README), over the
    // whole open loop: stalls in the windows QuietWindows leaves out show here.
    auto whole = [&](Kind k) {
      std::vector<double> all;
      for (const std::vector<double>& w : lat[k]) all.insert(all.end(), w.begin(), w.end());
      return Quantile(std::move(all), 0.99);
    };
    put("client.distance_p99_us", whole(kD), "us");
    put("client.path_p99_us", whole(kP), "us");
    put("client.batch_p99_us", whole(kB), "us");
    put("client.text_p99_us", whole(kT), "us");
    // Closed-loop rate, kept out of the end-to-end set (see README).
    // Interference only ever lowers throughput, so the upper quartile of
    // the windows is the steadier estimate of what the server sustains.
    put("client.throughput_rps", Quantile(closed_counts, 0.75) * kClosedWindows / closed_s,
        "req/s");
    put("client.lag_p99_us", Quantile(lag, 0.99), "us");
    // Traced minus untraced distance p50: the open loop's even windows ran
    // with request spans and stats polls, its odd windows without.
    std::vector<double> traced_p50, control_p50;
    for (std::size_t w = 0; w < kOpenWindows; ++w) {
      if (lat[kD][w].empty()) continue;
      (w % 2 == 0 ? traced_p50 : control_p50).push_back(Quantile(lat[kD][w], 0.5));
    }
    put("trace.overhead_us", Median(traced_p50) - Median(control_p50), "us");
    for (std::size_t i = 0; i < run.request_spans.size(); ++i) {
      if (run.request_spans[i].request != 0) {
        Span s = run.request_spans[i];
        s.id = tracer.NextId();
        tracer.Add(s);
      }
    }
    tracer.End(run_span);
    const std::string spans_path = run_dir + "/spans.jsonl";
    if (!tracer.Write(spans_path)) std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
         << (std::isfinite(metrics[i].second.first) ? metrics[i].second.first : 0.0)
         << ", \"unit\": \"" << metrics[i].second.second << "\"}";
  }
  json << "}}";
  std::ofstream(run_dir + "/result.json") << json.str() << "\n";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return pb::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_driver: %s\n", e.what());
    return 1;
  }
}
