#include "reference.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <cstring>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <unordered_set>

namespace pb {

namespace {

/// Runs fn(dij, i) for i in [0, n) on up to `threads` threads, each thread
/// with its own Dijkstra over `g`.
void ParallelFor(const RefGraph& g, std::size_t n, std::size_t threads,
                 const std::function<void(Dijkstra&, std::size_t)>& fn) {
  threads = std::max<std::size_t>(1, std::min(threads, n));
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    Dijkstra dij(g);
    for (std::size_t i = next++; i < n; i = next++) fn(dij, i);
  };
  std::vector<std::thread> pool;
  for (std::size_t k = 1; k < threads; ++k) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

/// Parses an unsigned decimal at *p, skipping leading blanks.
bool ParseU64(const char*& p, const char* end, std::uint64_t* out) {
  while (p < end && (*p == ' ' || *p == '\t')) ++p;
  if (p >= end || *p < '0' || *p > '9') return false;
  std::uint64_t v = 0;
  while (p < end && *p >= '0' && *p <= '9') v = v * 10 + (*p++ - '0');
  *out = v;
  return true;
}

}  // namespace

RefGraph RefGraph::ReadDimacsGr(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const char* p = text.data();
  const char* const end = p + text.size();

  std::uint64_t n = 0, m = 0;
  bool header = false;
  std::vector<Node> tails, heads;
  std::vector<std::uint32_t> weights;
  std::size_t line_no = 0;
  while (p < end) {
    ++line_no;
    const char* eol = static_cast<const char*>(std::memchr(p, '\n', end - p));
    if (eol == nullptr) eol = end;
    const auto fail = [&](const char* what) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) + ": " +
                               what);
    };
    if (*p == 'p') {
      const char* q = p + 1;
      while (q < eol && *q == ' ') ++q;
      if (eol - q < 2 || q[0] != 's' || q[1] != 'p') fail("bad p line");
      q += 2;
      if (!ParseU64(q, eol, &n) || !ParseU64(q, eol, &m)) fail("bad p line");
      if (n == 0 || n >= 0xffffffffULL) fail("bad node count");
      tails.reserve(m);
      heads.reserve(m);
      weights.reserve(m);
      header = true;
    } else if (*p == 'a') {
      if (!header) fail("arc before p line");
      const char* q = p + 1;
      std::uint64_t u = 0, v = 0, w = 0;
      if (!ParseU64(q, eol, &u) || !ParseU64(q, eol, &v) ||
          !ParseU64(q, eol, &w)) {
        fail("bad arc line");
      }
      if (u < 1 || u > n || v < 1 || v > n) fail("arc endpoint out of range");
      if (w == 0 || w >= 0xffffffffULL) fail("arc weight out of range");
      tails.push_back(static_cast<Node>(u - 1));
      heads.push_back(static_cast<Node>(v - 1));
      weights.push_back(static_cast<std::uint32_t>(w));
    }
    p = eol + 1;
  }
  if (!header) throw std::runtime_error(path + ": no p line");
  if (tails.size() != m) throw std::runtime_error(path + ": arc count mismatch");

  RefGraph g;
  g.first_.assign(n + 1, 0);
  for (const Node u : tails) ++g.first_[u + 1];
  for (std::size_t v = 0; v < n; ++v) g.first_[v + 1] += g.first_[v];
  g.head_.resize(m);
  g.weight_.resize(m);
  std::vector<std::size_t> fill(g.first_.begin(), g.first_.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t at = fill[tails[i]]++;
    g.head_[at] = heads[i];
    g.weight_[at] = weights[i];
  }
  return g;
}

std::uint32_t RefGraph::ArcWeight(Node u, Node v) const {
  std::uint32_t best = 0;
  for (std::size_t a = first_[u]; a < first_[u + 1]; ++a) {
    if (head_[a] == v && (best == 0 || weight_[a] < best)) best = weight_[a];
  }
  return best;
}

std::size_t RefGraph::SetWeight(Node u, Node v, std::uint32_t w) {
  std::size_t changed = 0;
  for (std::size_t a = first_[u]; a < first_[u + 1]; ++a) {
    if (head_[a] == v) {
      weight_[a] = w;
      ++changed;
    }
  }
  return changed;
}

void RefGraph::Apply(const std::vector<ArcUpdate>& batch) {
  for (const ArcUpdate& u : batch) SetWeight(u.tail, u.head, u.weight);
}

Dijkstra::Dijkstra(const RefGraph& g)
    : g_(g),
      dist_(g.NumNodes(), 0),
      stamp_(g.NumNodes(), 0),
      settled_(g.NumNodes(), 0) {}

template <typename OnSettle>
void Dijkstra::Run(Node s, Dist limit, OnSettle&& on_settle) {
  ++round_;
  order_.clear();
  heap_.clear();
  const auto cmp = [](const std::pair<Dist, Node>& a,
                      const std::pair<Dist, Node>& b) { return a > b; };
  dist_[s] = 0;
  stamp_[s] = round_;
  settled_[s] = 0;
  heap_.emplace_back(0, s);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    const auto [d, v] = heap_.back();
    heap_.pop_back();
    if (settled_[v] || d != dist_[v]) continue;
    if (d >= limit) break;
    settled_[v] = 1;
    order_.push_back(v);
    if (!on_settle(v)) break;
    for (std::size_t a = g_.Begin(v); a < g_.End(v); ++a) {
      const Node h = g_.Head(a);
      const Dist nd = d + g_.Weight(a);
      if (stamp_[h] != round_) {
        stamp_[h] = round_;
        settled_[h] = 0;
        dist_[h] = nd;
      } else if (settled_[h] || nd >= dist_[h]) {
        continue;
      } else {
        dist_[h] = nd;
      }
      heap_.emplace_back(nd, h);
      std::push_heap(heap_.begin(), heap_.end(), cmp);
    }
  }
}

void Dijkstra::RunBelow(Node s, Dist limit) {
  Run(s, limit, [](Node) { return true; });
}

void Dijkstra::RunUntilSettled(Node s, const std::vector<Node>& targets) {
  // Targets are found by a sorted lookup: the lists are short next to the
  // number of nodes a search settles.
  std::vector<Node> sorted(targets);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::size_t remaining = sorted.size();
  Run(s, kUnreachable, [&](Node v) {
    if (std::binary_search(sorted.begin(), sorted.end(), v)) --remaining;
    return remaining > 0;
  });
}

Dist EstimateMaxDistance(const RefGraph& g, std::uint64_t seed) {
  Dijkstra dij(g);
  Rand rng(seed);
  Node start = static_cast<Node>(rng.Below(g.NumNodes()));
  Dist best = 0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    dij.RunAll(start);
    const Node far = dij.Settled().back();
    best = std::max(best, dij.DistTo(far));
    start = far;
  }
  return best;
}

std::pair<Dist, Dist> BandRange(Dist lmax, int band) {
  const Dist hi = lmax >> (10 - band);
  return {hi / 2, hi};
}

std::vector<Triple> BandedPairs(const RefGraph& g, Dist lmax,
                                const std::vector<Node>& pool,
                                std::size_t per_band, std::uint64_t seed,
                                std::size_t threads) {
  constexpr int kBands = 10;
  // Phase 1: full searches from the pool sources; each contributes up to
  // `quota` random targets to every band.
  const std::size_t quota =
      pool.empty() ? 0 : (per_band + pool.size() - 1) / pool.size();
  std::vector<std::vector<std::vector<Triple>>> from_pool(pool.size());
  ParallelFor(g, pool.size(), threads, [&](Dijkstra& dij, std::size_t i) {
    Rand rng(seed ^ (0x51ed27ULL * (i + 1)));
    dij.RunAll(pool[i]);
    std::vector<std::vector<Node>> cand(kBands);
    for (const Node v : dij.Settled()) {
      const Dist d = dij.DistTo(v);
      for (int b = 1; b <= kBands; ++b) {
        const auto [lo, hi] = BandRange(lmax, b);
        if (d >= lo && d < hi && v != pool[i]) cand[b - 1].push_back(v);
      }
    }
    from_pool[i].resize(kBands);
    for (int b = 0; b < kBands; ++b) {
      std::vector<Node>& c = cand[b];
      const std::size_t take = std::min(quota, c.size());
      for (std::size_t k = 0; k < take; ++k) {
        std::swap(c[k], c[k + rng.Below(c.size() - k)]);
        from_pool[i][b].push_back(Triple{pool[i], c[k], dij.DistTo(c[k])});
      }
    }
  });

  // Phase 2: top up short bands from fresh sources, each searched only to
  // the band's upper bound (cheap for the short-distance bands that are
  // scarce around any one source).
  std::vector<std::vector<Triple>> bands(kBands);
  ParallelFor(g, kBands, threads, [&](Dijkstra& dij, std::size_t b) {
    std::vector<Triple>& out = bands[b];
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t i = 0; i < pool.size() && out.size() < per_band; ++i) {
      for (const Triple& tr : from_pool[i][b]) {
        if (out.size() >= per_band) break;
        if (seen.insert((std::uint64_t{tr.s} << 32) | tr.t).second) {
          out.push_back(tr);
        }
      }
    }
    if (out.size() >= per_band) return;
    constexpr std::size_t kFreshQuota = 8;
    const auto [lo, hi] = BandRange(lmax, static_cast<int>(b) + 1);
    Rand rng(seed ^ (0xba4dULL * (b + 1)) ^ 0xfe11ULL);
    // Work budget: about 8 full searches' worth of settled nodes.
    const std::size_t max_settled = 8 * g.NumNodes();
    std::size_t settled = 0;
    std::vector<Node> cand;
    while (settled < max_settled && out.size() < per_band) {
      const Node s = static_cast<Node>(rng.Below(g.NumNodes()));
      dij.RunBelow(s, hi);
      settled += dij.Settled().size() + 1;
      cand.clear();
      for (const Node v : dij.Settled()) {
        if (dij.DistTo(v) >= lo && v != s) cand.push_back(v);
      }
      const std::size_t take =
          std::min({kFreshQuota, cand.size(), per_band - out.size()});
      for (std::size_t j = 0; j < take; ++j) {
        std::swap(cand[j], cand[j + rng.Below(cand.size() - j)]);
        if (seen.insert((std::uint64_t{s} << 32) | cand[j]).second) {
          out.push_back(Triple{s, cand[j], dij.DistTo(cand[j])});
        }
      }
    }
  });

  // Shuffle within each band, then spread every band evenly over the
  // sequence (pair i of a band of size n sits at position (i + 0.5) / n),
  // so any prefix holds the bands in the same proportions.
  Rand rng(seed ^ 0x5eedULL);
  std::vector<std::pair<double, Triple>> keyed;
  for (std::vector<Triple>& band : bands) {
    for (std::size_t i = band.size(); i > 1; --i) {
      std::swap(band[i - 1], band[rng.Below(i)]);
    }
    for (std::size_t i = 0; i < band.size(); ++i) {
      keyed.emplace_back((static_cast<double>(i) + 0.5) /
                             static_cast<double>(band.size()),
                         band[i]);
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Triple> out;
  out.reserve(keyed.size());
  for (const auto& [key, triple] : keyed) out.push_back(triple);
  return out;
}

std::vector<Dist> TrueDistances(const RefGraph& g,
                                const std::vector<std::pair<Node, Node>>& pairs,
                                std::size_t threads) {
  std::vector<std::size_t> order(pairs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pairs[a].first < pairs[b].first;
  });
  std::vector<std::pair<std::size_t, std::size_t>> groups;  // [begin, end)
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i;
    while (j < order.size() && pairs[order[j]].first == pairs[order[i]].first) {
      ++j;
    }
    groups.emplace_back(i, j);
    i = j;
  }
  // Largest groups first: they settle the most nodes.
  std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
    return a.second - a.first > b.second - b.first;
  });
  std::vector<Dist> out(pairs.size(), kUnreachable);
  ParallelFor(g, groups.size(), threads, [&](Dijkstra& dij, std::size_t k) {
    const auto [begin, end] = groups[k];
    std::vector<Node> targets;
    for (std::size_t i = begin; i < end; ++i) {
      targets.push_back(pairs[order[i]].second);
    }
    dij.RunUntilSettled(pairs[order[begin]].first, targets);
    for (std::size_t i = begin; i < end; ++i) {
      out[order[i]] = dij.DistTo(pairs[order[i]].second);
    }
  });
  return out;
}

bool CheckPath(const RefGraph& g, Node s, Node t, Dist truth, Dist length,
               const Node* nodes, std::size_t count, std::string* why) {
  if (length != truth) {
    *why = "length " + std::to_string(length) + " != true distance " +
           std::to_string(truth);
    return false;
  }
  if (truth == kUnreachable) {
    if (count != 0) *why = "unreachable pair answered with a path";
    return count == 0;
  }
  if (count == 0 || nodes[0] != s || nodes[count - 1] != t) {
    *why = "path does not run from s to t";
    return false;
  }
  Dist sum = 0;
  for (std::size_t i = 0; i + 1 < count; ++i) {
    if (nodes[i] >= g.NumNodes() || nodes[i + 1] >= g.NumNodes()) {
      *why = "path node out of range";
      return false;
    }
    const std::uint32_t w = g.ArcWeight(nodes[i], nodes[i + 1]);
    if (w == 0) {
      *why = "no arc " + std::to_string(nodes[i]) + "->" +
             std::to_string(nodes[i + 1]);
      return false;
    }
    sum += w;
  }
  if (sum != length) {
    *why = "arc weights sum to " + std::to_string(sum) + ", reply says " +
           std::to_string(length);
    return false;
  }
  return true;
}

}  // namespace pb
