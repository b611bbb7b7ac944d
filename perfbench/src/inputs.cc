#include "inputs.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "gen/catalog.h"
#include "graph/dimacs.h"
#include "graph/graph.h"
#include "graph/weight_update.h"
#include "perturb/traffic_feed.h"

namespace pb {

namespace {

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Buffered writer over stdio; DIMACS text for a 1M-node network is ~100 MB.
class TextFile {
 public:
  explicit TextFile(const std::string& path)
      : path_(path), f_(std::fopen(path.c_str(), "wb")) {
    if (f_ == nullptr) throw std::runtime_error("cannot write " + path);
  }
  TextFile(const TextFile&) = delete;
  TextFile& operator=(const TextFile&) = delete;
  ~TextFile() {
    if (f_ != nullptr) std::fclose(f_);
  }
  template <typename... Args>
  void Printf(const char* fmt, Args... args) {
    if (std::fprintf(f_, fmt, args...) < 0) Fail();
  }
  void Close() {
    const int rc = std::fclose(f_);
    f_ = nullptr;
    if (rc != 0) Fail();
  }

 private:
  [[noreturn]] void Fail() {
    throw std::runtime_error("write failed: " + path_);
  }
  std::string path_;
  std::FILE* f_;
};

}  // namespace

std::string EnsureDataset(const std::string& dir, const std::string& dataset) {
  const std::string base = dir + "/" + dataset;
  const std::string done = base + ".done";
  if (Exists(done)) return base;
  const std::optional<ah::DatasetSpec> spec = ah::FindDataset(dataset);
  if (!spec) throw std::runtime_error("unknown dataset " + dataset);
  const ah::Graph g = ah::MakeScaledDataset(*spec, 1.0);
  {
    TextFile gr(base + ".gr.tmp");
    gr.Printf("c %s stand-in, full scale\np sp %zu %zu\n", dataset.c_str(),
              g.NumNodes(), g.NumArcs());
    for (ah::NodeId v = 0; v < g.NumNodes(); ++v) {
      for (const ah::Arc& a : g.OutArcs(v)) {
        gr.Printf("a %u %u %u\n", v + 1, a.head + 1, a.weight);
      }
    }
    gr.Close();
    TextFile co(base + ".co.tmp");
    co.Printf("c %s stand-in, full scale\np aux sp co %zu\n", dataset.c_str(),
              g.NumNodes());
    for (ah::NodeId v = 0; v < g.NumNodes(); ++v) {
      co.Printf("v %u %d %d\n", v + 1, static_cast<int>(g.Coord(v).x),
                static_cast<int>(g.Coord(v).y));
    }
    co.Close();
  }
  if (std::rename((base + ".gr.tmp").c_str(), (base + ".gr").c_str()) != 0 ||
      std::rename((base + ".co.tmp").c_str(), (base + ".co").c_str()) != 0) {
    throw std::runtime_error("cannot move " + base + " files into place");
  }
  std::ofstream(done) << "ok\n";
  return base;
}

std::vector<std::vector<ArcUpdate>> WriteTrafficBatches(
    const std::string& graph_base, double fraction, std::uint64_t seed,
    const std::vector<std::string>& paths) {
  const ah::Graph g = ah::ReadDimacsFiles(graph_base);
  ah::TrafficFeedParams params;
  params.batch_fraction = fraction;
  params.seed = seed;
  ah::TrafficFeed feed(g, params);
  // The feed's first batch picks the congested arcs; later batches give the
  // same arcs new factors, drawn as the feed draws them, around the arc's
  // base weight (the least over parallel arcs). With fresh arcs in every
  // batch, each ah repair took about 1% longer than the one before, so a
  // median over a run's reloads depended on how many it sent.
  const std::vector<ah::WeightDelta> first = feed.NextBatch();
  std::vector<ah::Weight> base;
  for (const ah::WeightDelta& d : first) {
    ah::Weight w = 0;
    for (const ah::Arc& a : g.OutArcs(d.tail)) {
      if (a.head == d.head && (w == 0 || a.weight < w)) w = a.weight;
    }
    base.push_back(w);
  }
  Rand rand(seed ^ 0x5eedfac7ULL);
  std::vector<std::vector<ArcUpdate>> batches;
  for (const std::string& path : paths) {
    std::vector<ah::WeightDelta> deltas = first;
    if (!batches.empty()) {
      const double lo = std::log(1.0 / params.speedup_factor);
      const double hi = std::log(params.slowdown_factor);
      for (std::size_t i = 0; i < deltas.size(); ++i) {
        const double w = static_cast<double>(base[i]) * std::exp(lo + (hi - lo) * rand.Unit());
        deltas[i].weight = static_cast<ah::Weight>(
            std::clamp(w, 1.0, static_cast<double>(ah::kMaxWeight - 1)));
      }
    }
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot write " + path);
    ah::SaveWeightDeltas(out, deltas);
    if (!out.flush()) throw std::runtime_error("write failed: " + path);
    std::vector<ArcUpdate>& batch = batches.emplace_back();
    for (const ah::WeightDelta& d : deltas) {
      batch.push_back(ArcUpdate{d.tail, d.head, d.weight});
    }
  }
  return batches;
}

}  // namespace pb
