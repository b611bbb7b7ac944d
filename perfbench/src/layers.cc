#include "layers.h"

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "api/distance_oracle.h"
#include "graph/dimacs.h"
#include "graph/weight_update.h"
#include "server/binary_protocol.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/server_stack.h"

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile of unsorted samples; 0 for an empty list.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

/// Mean wall time per call of fn(i), over `reps` passes of n calls.
template <typename Fn>
double MeanNs(std::size_t n, std::size_t reps, Fn&& fn) {
  if (n == 0) return 0;
  const auto start = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
  return Seconds(start, Clock::now()) * 1e9 /
         static_cast<double>(n * reps);
}

/// Blocks until a ServerStack callback delivers its reply.
class Waiter {
 public:
  void Set(ah::server::Reply reply) {
    std::lock_guard<std::mutex> lock(mu_);
    reply_ = std::move(reply);
    done_ = true;
    cv_.notify_one();
  }
  ah::server::Reply Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_; });
    done_ = false;
    return std::move(reply_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  ah::server::Reply reply_;
};

}  // namespace

std::map<std::string, double> MeasureLayers(const LayerPlan& plan,
                                            Tracer& tracer,
                                            std::uint64_t parent) {
  namespace srv = ah::server;
  std::map<std::string, double> out;
  volatile ah::Dist sink = 0;

  // gen + graph: DIMACS parsing.
  ah::Graph graph;
  {
    ScopedSpan span(tracer, "graph.ReadDimacsFiles", parent);
    const auto t0 = Clock::now();
    graph = ah::ReadDimacsFiles(plan.graph_base);
    out["graph.dimacs_read_s"] = Seconds(t0, Clock::now());
  }

  // Index build, then the first query on the fresh index.
  std::unique_ptr<ah::DistanceOracle> oracle;
  {
    ScopedSpan span(tracer, "index.MakeOracle", parent);
    const auto t0 = Clock::now();
    oracle = ah::MakeOracle(plan.backend, graph);
    out["index.build_s"] = Seconds(t0, Clock::now());
  }
  std::unique_ptr<ah::QuerySession> session;
  {
    ScopedSpan span(tracer, "search.first_query", parent);
    const auto t0 = Clock::now();
    session = oracle->NewSession();
    const auto& [s, t] = plan.distance_pairs.front();
    sink = sink + session->Distance(s, t);
    out["search.first_query_ms"] = Seconds(t0, Clock::now()) * 1e3;
  }

  // Index search, one call at a time.
  {
    ScopedSpan span(tracer, "search.QuerySession", parent);
    std::vector<double> dist_us, path_us;
    for (const auto& [s, t] : plan.distance_pairs) {
      const auto t0 = Clock::now();
      sink = sink + session->Distance(s, t);
      dist_us.push_back(Seconds(t0, Clock::now()) * 1e6);
    }
    for (const auto& [s, t] : plan.path_pairs) {
      const auto t0 = Clock::now();
      sink = sink + session->ShortestPath(s, t).nodes.size();
      path_us.push_back(Seconds(t0, Clock::now()) * 1e6);
    }
    out["search.distance_p50_us"] = Quantile(dist_us, 0.5);
    out["search.distance_p99_us"] = Quantile(dist_us, 0.99);
    out["search.path_p50_us"] = Quantile(path_us, 0.5);
    out["search.path_p99_us"] = Quantile(path_us, 0.99);
  }

  // Many-to-many matrices at the server's thread count and at one thread.
  // Each matrix is computed once untimed, so both timed calls find the same
  // warm caches, and the two thread counts take turns going first.
  {
    ScopedSpan span(tracer, "matrix.DistanceMatrix", parent);
    std::vector<double> all_ms, one_ms;
    for (std::size_t m = 0; m < plan.matrices.size(); ++m) {
      const auto& [sources, targets] = plan.matrices[m];
      const std::vector<ah::NodeId> src(sources.begin(), sources.end());
      const std::vector<ah::NodeId> tgt(targets.begin(), targets.end());
      sink = sink + oracle->DistanceMatrix(src, tgt, 0).size();
      for (std::size_t turn = 0; turn < 2; ++turn) {
        const bool one_thread = (turn + m) % 2 == 1;
        const auto t0 = Clock::now();
        sink = sink + oracle->DistanceMatrix(src, tgt, one_thread ? 1 : 0).size();
        (one_thread ? one_ms : all_ms).push_back(Seconds(t0, Clock::now()) * 1e3);
      }
    }
    out["matrix.compute_ms"] = Quantile(all_ms, 0.5);
    out["matrix.compute_1t_ms"] = Quantile(one_ms, 0.5);
  }

  // Live updates: delta ingest, application to a copy, frozen-order repair.
  {
    ScopedSpan span(tracer, "update", parent);
    std::vector<ah::WeightDelta> deltas;
    {
      ScopedSpan inner(tracer, "update.LoadWeightDeltas", span.id());
      std::ifstream in(plan.delta_file, std::ios::binary);
      const auto t0 = Clock::now();
      deltas = ah::LoadWeightDeltas(in);
      out["update.delta_load_ms"] = Seconds(t0, Clock::now()) * 1e3;
    }
    ah::Graph updated = graph;
    {
      ScopedSpan inner(tracer, "update.ApplyWeightDeltas", span.id());
      const auto t0 = Clock::now();
      ah::ApplyWeightDeltas(&updated, deltas);
      out["update.apply_ms"] = Seconds(t0, Clock::now()) * 1e3;
    }
    {
      ScopedSpan inner(tracer, "update.RebuildWithFrozenOrder", span.id());
      const auto t0 = Clock::now();
      std::unique_ptr<ah::DistanceOracle> repaired =
          oracle->RebuildWithFrozenOrder(updated);
      out["update.repair_s"] = Seconds(t0, Clock::now());
      if (!repaired) out["update.repair_s"] = 0;
    }
  }

  // Result cache replaying the run's distance-key stream: lookup, and an
  // insert on every miss (the server's read-through order).
  {
    ScopedSpan span(tracer, "cache.ResultCache", parent);
    const srv::ServerConfig defaults;
    srv::ResultCache cache(defaults.cache_capacity, defaults.cache_shards,
                           defaults.cache_ttl);
    double lookup_s = 0, insert_s = 0;
    std::size_t inserts = 0;
    for (const auto& [s, t] : plan.cache_keys) {
      const srv::CacheKey key{s, t, srv::CachedKind::kDistance, 0};
      srv::CachedResult hit;
      const auto t0 = Clock::now();
      const bool found = cache.Lookup(key, 1, &hit);
      const auto t1 = Clock::now();
      lookup_s += Seconds(t0, t1);
      if (!found) {
        cache.Insert(key, 1, srv::CachedResult{static_cast<ah::Dist>(s) + t, {}});
        insert_s += Seconds(t1, Clock::now());
        ++inserts;
      }
    }
    const double n = static_cast<double>(std::max<std::size_t>(1, plan.cache_keys.size()));
    out["cache.lookup_ns"] = lookup_s * 1e9 / n;
    out["cache.insert_ns"] =
        insert_s * 1e9 / static_cast<double>(std::max<std::size_t>(1, inserts));
  }

  session.reset();  // sessions must not outlive the oracle moved below

  // Wire codecs on the run's request shapes.
  {
    ScopedSpan span(tracer, "wire", parent);
    const srv::ParseLimits limits{graph.NumNodes(), 4096, 512, 1 << 20};
    std::vector<std::string> frames;
    std::vector<std::string> lines;
    std::vector<srv::Reply> replies;
    std::vector<srv::Opcode> opcodes;
    for (const auto& [s, t] : plan.distance_pairs) {
      srv::Request req;
      req.kind = srv::RequestKind::kDistance;
      req.s = s;
      req.t = t;
      frames.push_back(srv::EncodeRequestFrame(srv::Opcode::kDistance, 1, "",
                                               srv::EncodeRequestBody(req)));
      lines.push_back("d " + std::to_string(s) + " " + std::to_string(t));
      srv::Reply reply;
      reply.kind = srv::RequestKind::kDistance;
      reply.dist = static_cast<ah::Dist>(s) * 7 + t;
      replies.push_back(reply);
      opcodes.push_back(srv::Opcode::kDistance);
    }
    for (std::size_t at = 0; at + plan.batch_size <= plan.batches.size();
         at += plan.batch_size) {
      srv::Request req;
      req.kind = srv::RequestKind::kBatch;
      for (std::size_t i = at; i < at + plan.batch_size; ++i) {
        req.pairs.emplace_back(plan.batches[i].first, plan.batches[i].second);
      }
      frames.push_back(srv::EncodeRequestFrame(srv::Opcode::kBatch, 1, "",
                                               srv::EncodeRequestBody(req)));
      srv::Reply reply;
      reply.kind = srv::RequestKind::kBatch;
      reply.dists.assign(plan.batch_size, 12345);
      replies.push_back(reply);
      opcodes.push_back(srv::Opcode::kBatch);
    }
    for (const auto& [sources, targets] : plan.matrices) {
      srv::Request req;
      req.kind = srv::RequestKind::kMatrix;
      req.sources.assign(sources.begin(), sources.end());
      req.targets.assign(targets.begin(), targets.end());
      frames.push_back(srv::EncodeRequestFrame(srv::Opcode::kMatrix, 1, "",
                                               srv::EncodeRequestBody(req)));
      srv::Reply reply;
      reply.kind = srv::RequestKind::kMatrix;
      reply.num_sources = sources.size();
      reply.num_targets = targets.size();
      reply.dists.assign(sources.size() * targets.size(), 12345);
      replies.push_back(reply);
      opcodes.push_back(srv::Opcode::kMatrix);
    }
    constexpr std::size_t kReps = 20;
    out["wire.v2_decode_ns"] = MeanNs(frames.size(), kReps, [&](std::size_t i) {
      srv::FrameHeader header;
      std::string_view payload;
      srv::TryReadFrame(frames[i], &header, &payload);
      sink = sink + srv::DecodeRequest(header, payload, limits).ok;
    });
    out["wire.v2_encode_ns"] = MeanNs(replies.size(), kReps, [&](std::size_t i) {
      sink = sink + srv::EncodeReplyFrame(replies[i], opcodes[i], 1).size();
    });
    out["wire.v1_parse_ns"] = MeanNs(lines.size(), kReps, [&](std::size_t i) {
      sink = sink + srv::ParseRequest(lines[i], limits).ok;
    });
    const std::size_t num_distance = plan.distance_pairs.size();
    out["wire.v1_format_ns"] = MeanNs(num_distance, kReps, [&](std::size_t i) {
      sink = sink + srv::FormatReply(replies[i]).size();
    });
  }

  // The serve core in-process, without TCP: one decoded distance request
  // through admission, the async hand-off, the session lease and the
  // cache, timed to its callback; a miss first, then the same key as a hit.
  {
    ScopedSpan span(tracer, "stack.SubmitDecoded", parent);
    srv::ServerStack stack(std::move(oracle));
    Waiter waiter;
    std::vector<double> miss_us, hit_us;
    for (const auto& [s, t] : plan.distance_pairs) {
      const std::string line = "d " + std::to_string(s) + " " + std::to_string(t);
      for (int pass = 0; pass < 2; ++pass) {
        srv::ParseResult parsed = srv::ParseRequest(line, stack.Limits());
        const auto t0 = Clock::now();
        stack.SubmitDecoded(std::move(parsed), 1,
                            [&waiter](srv::Reply r) { waiter.Set(std::move(r)); });
        const srv::Reply reply = waiter.Wait();
        (pass == 0 ? miss_us : hit_us)
            .push_back(Seconds(t0, Clock::now()) * 1e6);
        if (!reply.ok) throw std::runtime_error("in-process stack answered ERR");
        sink = sink + reply.dist;
      }
    }
    stack.WaitIdle();
    out["stack.miss_us"] = Quantile(miss_us, 0.5);
    out["stack.hit_us"] = Quantile(hit_us, 0.5);
  }
  (void)sink;
  return out;
}

}  // namespace pb
