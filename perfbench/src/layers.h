// In-process timings of the program's layers for the traced run: the
// benchmark calls each layer's public functions directly, on the run's own
// inputs, and records a span around every call.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "reference.h"
#include "trace.h"

namespace pb {

struct LayerPlan {
  std::string graph_base;  ///< DIMACS base path the server read.
  std::string backend;
  std::vector<std::pair<Node, Node>> distance_pairs;  ///< Search sample.
  std::vector<std::pair<Node, Node>> path_pairs;
  std::vector<std::pair<std::vector<Node>, std::vector<Node>>> matrices;
  std::vector<std::pair<Node, Node>> batches;  ///< Concatenated batch pairs.
  std::size_t batch_size = 1;
  std::string delta_file;  ///< First AHUD batch of the run.
  /// The distance-key stream the run sent, in order (d, text and batch
  /// cells), for the result-cache replay.
  std::vector<std::pair<Node, Node>> cache_keys;
};

/// Times the layer calls listed in the README (graph.*, index.*, search.*,
/// matrix.*, update.*, cache.*_ns, stack.*, wire.*_ns) and returns them by
/// metric name.
std::map<std::string, double> MeasureLayers(const LayerPlan& plan,
                                            Tracer& tracer,
                                            std::uint64_t parent);

}  // namespace pb
