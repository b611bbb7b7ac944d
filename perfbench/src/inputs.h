// Input files the benchmark feeds the server: the DIMACS stand-in networks
// (generated once per checkout by the repository's road generator and
// written out by the benchmark) and the AHUD weight-update batches (the
// arcs drawn by the repository's TrafficFeed from the run's seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reference.h"

namespace pb {

/// Makes sure `<dir>/<dataset>.gr` and `.co` hold the full-scale catalog
/// stand-in for `dataset` ("DE", "FL", ...); returns the base path
/// `<dir>/<dataset>`. The files depend only on the dataset name.
std::string EnsureDataset(const std::string& dir, const std::string& dataset);

/// Writes one weight-update batch per entry of `paths`, as an AHUD file
/// (the `updf` bulk-ingest format), and returns the batches in order for the
/// reference graph to replay. The first batch is one batch of the
/// repository's TrafficFeed (`fraction` of the arcs of the network at
/// `graph_base`, seeded by `seed`); every later batch sets the same arcs to
/// new weights drawn as the feed draws them (base weight times a
/// log-uniform factor), so the set of arcs ever changed stays that of the
/// first batch.
std::vector<std::vector<ArcUpdate>> WriteTrafficBatches(
    const std::string& graph_base, double fraction, std::uint64_t seed,
    const std::vector<std::string>& paths);

}  // namespace pb
