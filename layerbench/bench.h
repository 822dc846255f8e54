// Shared state of the layered benchmark driver (driver.cc runs the
// timed phases, probe.cc the traced per-layer probes).

#ifndef LAYERBENCH_BENCH_H_
#define LAYERBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen.h"
#include "src/api/grepair_api.h"
#include "src/serve/server.h"
#include "trace.h"

namespace grepair {
namespace layerbench {

/// \brief One workload: how its input is made, how the container is
/// built and opened, and how the run's time is split between phases.
struct Workload {
  const char* name;
  Input (*make)(uint64_t seed);
  int shards;              ///< data shards of the sharded:grepair build
  int compress_threads;    ///< build pool (<= 2)
  bool remote;             ///< serve over loopback, open via OpenRemote, and
                           ///< read in fresh-open cycles
  size_t query_cache_bytes;
  double zipf_s;           ///< skew of the node popularity
  int cycle_queries;       ///< singles per read round (per cycle if remote)
  // Shares of --seconds given to each timed phase (they sum to 1).
  double share_build, share_decompress, share_reopen, share_read,
      share_batch, share_reach, share_edit, share_fold;
};

/// \brief A metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// \brief Counts operations and their failures, and checks answers
/// against the reference.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Self-test hook: the next neighbour check compares against a
  /// deliberately wrong expected answer.
  bool tamper_next = false;

  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  bool SameNeighbors(const Result<std::vector<uint64_t>>& got,
                     const std::vector<uint32_t>& want);
};

/// \brief Everything the phases and probes share.
struct Context {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  Tracer* tracer = nullptr;
  Tally tally;

  Input input;
  Hypergraph graph;
  Alphabet alphabet;
  std::string container_path;
  std::vector<uint8_t> container;
  std::unique_ptr<api::GraphCodec> codec;
  api::CodecOptions build_options;
  /// Compress + SerializeV2 of the input, median of the rebuilds.
  double build_seconds = 0;
  std::unique_ptr<serve::ShardServer> server;
  std::string target;  ///< "host:port/corpus" when remote
  /// The nodes singles and batches draw from, most popular first.
  std::vector<uint32_t> popular;

  /// Opens the container the way the workload does (local mmap or
  /// remote), configured with the workload's cache and pools.
  Result<std::unique_ptr<api::CompressedRep>> Open(size_t cache_bytes) const;
};

/// \brief Times the build's phases (partition, node order, replacement,
/// pruning, encoding) on the run's input and checks their sum against
/// the untraced build wall time (the median rebuild). Runs after the
/// timed passes, in the same warm process as the rebuilds.
Status ProbeBuildPhases(Context* ctx, std::map<std::string, Metric>* out);

/// \brief The remaining traced per-layer probes (probe.cc).
Status RunLayerProbes(Context* ctx, std::map<std::string, Metric>* out);

/// \brief Median of `v` (0 when empty); sorts `v`.
double Median(std::vector<double>* v);

/// \brief Nearest-rank percentile `q` in (0, 1] of `v`; sorts `v`.
double Percentile(std::vector<double>* v, double q);

/// \brief Builds the hypergraph and alphabet of a generated input.
void ToHypergraph(const Input& in, Hypergraph* graph, Alphabet* alphabet);

}  // namespace layerbench
}  // namespace grepair

#endif  // LAYERBENCH_BENCH_H_
