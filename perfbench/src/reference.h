// The benchmark's independent correctness oracle. It reads the DIMACS arcs
// the benchmark wrote, keeps its own adjacency and its own copy of every
// weight version the benchmark pushes to the server, and answers with a
// plain Dijkstra. Nothing here includes the program under test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Node = std::uint32_t;
using Dist = std::uint64_t;
inline constexpr Dist kUnreachable = std::numeric_limits<Dist>::max();

/// Deterministic 64-bit generator (splitmix64): the benchmark's only source
/// of randomness, so a seed fixes every input.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// A weight change as the benchmark sends it: every arc tail->head takes
/// `weight`.
struct ArcUpdate {
  Node tail = 0;
  Node head = 0;
  std::uint32_t weight = 0;
};

/// Directed graph in CSR form, read from a DIMACS .gr file. Weights are kept
/// per arc so that update batches can be replayed on a copy.
class RefGraph {
 public:
  /// Parses `<path>` ("p sp n m" + "a u v w" lines, 1-based ids). Throws
  /// std::runtime_error on malformed input.
  static RefGraph ReadDimacsGr(const std::string& path);

  std::size_t NumNodes() const { return first_.empty() ? 0 : first_.size() - 1; }

  std::size_t Begin(Node u) const { return first_[u]; }
  std::size_t End(Node u) const { return first_[u + 1]; }
  Node Head(std::size_t arc) const { return head_[arc]; }
  std::uint32_t Weight(std::size_t arc) const { return weight_[arc]; }

  /// Minimum weight over arcs u->v; 0 when there is none.
  std::uint32_t ArcWeight(Node u, Node v) const;

  /// Sets every arc u->v to `w`; returns how many arcs changed.
  std::size_t SetWeight(Node u, Node v, std::uint32_t w);

  /// Applies a batch in order (a later update of the same arc wins).
  void Apply(const std::vector<ArcUpdate>& batch);

 private:
  std::vector<std::size_t> first_;
  std::vector<Node> head_;
  std::vector<std::uint32_t> weight_;
};

/// Plain one-to-many Dijkstra with a binary heap and timestamped labels, so
/// a search that settles few nodes costs nothing proportional to the graph.
class Dijkstra {
 public:
  explicit Dijkstra(const RefGraph& g);

  /// Runs until every node at distance < `limit` is settled.
  void RunBelow(Node s, Dist limit);
  /// Runs to completion.
  void RunAll(Node s) { RunBelow(s, kUnreachable); }
  /// Runs until every node in `targets` is settled (or unreachable).
  void RunUntilSettled(Node s, const std::vector<Node>& targets);

  /// Distance of `v` from the last source; kUnreachable when not settled.
  Dist DistTo(Node v) const {
    return stamp_[v] == round_ && settled_[v] ? dist_[v] : kUnreachable;
  }
  /// Nodes settled by the last Run, in settling order.
  const std::vector<Node>& Settled() const { return order_; }

 private:
  /// Settles nodes from `s` in distance order while their distance is below
  /// `limit`, calling on_settle(v) after each; stops when it returns false.
  template <typename OnSettle>
  void Run(Node s, Dist limit, OnSettle&& on_settle);

  const RefGraph& g_;
  std::vector<Dist> dist_;
  std::vector<std::uint32_t> stamp_;
  std::vector<char> settled_;
  std::vector<Node> order_;
  std::vector<std::pair<Dist, Node>> heap_;
  std::uint32_t round_ = 0;
};

/// One request pair with its true distance on the graph it was drawn from.
struct Triple {
  Node s = 0;
  Node t = 0;
  Dist d = 0;
};

/// Largest distance found by a double sweep (the §6.1 lmax estimate).
Dist EstimateMaxDistance(const RefGraph& g, std::uint64_t seed);

/// Distance band of Qi (i = 1..10): [lmax / 2^(11-i), lmax / 2^(10-i)).
std::pair<Dist, Dist> BandRange(Dist lmax, int band);

/// Band-stratified pair generator: `per_band` distinct pairs for each of
/// Q1..Q10. Each band first draws from `pool` sources (full searches, up to
/// per_band / |pool| targets each), then from fresh random sources searched
/// only up to the band's upper bound. A band whose distance range holds too
/// few pairs comes back short. Each band is spread evenly over the
/// returned sequence (in a seeded order), so every prefix holds the bands
/// in proportion to their sizes.
std::vector<Triple> BandedPairs(const RefGraph& g, Dist lmax,
                                const std::vector<Node>& pool,
                                std::size_t per_band, std::uint64_t seed,
                                std::size_t threads);

/// True distances for a list of (s, t) pairs, grouped by source with one
/// target-stopped Dijkstra per source, on `threads` threads. Result[i]
/// belongs to pairs[i].
std::vector<Dist> TrueDistances(const RefGraph& g,
                                const std::vector<std::pair<Node, Node>>& pairs,
                                std::size_t threads);

/// Checks a path reply: a walk s = nodes[0] -> ... -> nodes.back() = t over
/// arcs of `g` whose (minimum) weights sum to `length`, and `length` equals
/// `truth`. On failure returns false and fills *why.
bool CheckPath(const RefGraph& g, Node s, Node t, Dist truth, Dist length,
               const Node* nodes, std::size_t count, std::string* why);

}  // namespace pb
