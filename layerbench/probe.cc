// Traced per-layer probes of the layered benchmark.
//
// The library has no internal stage timers, so the traced mode times
// each layer by calling that layer's public functions itself, on the
// run's own input and container, with a span around every call:
//
//   * the build, phase by phase: PartitionGraph, then per shard
//     ComputeNodeOrder, Compress with pruning off, PruneGrammar with
//     the node mapping, and the payload encoding — the same steps the
//     sharded:grepair codec runs inside one Compress call;
//   * the size split: ShardedRep::Inspect and GrammarStats per shard;
//   * the storage and remote path of one shard fault: Connect,
//     FetchShard, HashBytes (the payload checksum), the inner codec's
//     DeserializeSpan (grammar decode) and Decompress (derivation);
//   * a cold first query per shard and warm cache hits.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/grammar/derivation.h"
#include "src/grammar/pruning.h"
#include "src/graph/node_order.h"
#include "src/grepair/compressor.h"
#include "src/serve/pool.h"
#include "src/serve/registry.h"
#include "src/shard/partitioner.h"
#include "src/util/hashing.h"

namespace grepair {
namespace layerbench {
namespace {

double Since(uint64_t t0) { return 1e-9 * static_cast<double>(NowNs() - t0); }

// Repeats fn() until `budget_s` has passed (at least `min_reps` times)
// and returns the median seconds per call.
template <typename Fn>
Result<double> MedianCall(double budget_s, int min_reps, Fn fn) {
  std::vector<double> s;
  uint64_t start = NowNs();
  while (static_cast<int>(s.size()) < min_reps || Since(start) < budget_s) {
    uint64_t t0 = NowNs();
    Status st = fn();
    s.push_back(Since(t0));
    if (!st.ok()) return st;
  }
  return Median(&s);
}

}  // namespace

Status ProbeBuildPhases(Context* ctx, std::map<std::string, Metric>* out) {
  Tracer* tr = ctx->tracer;
  shard::PartitionOptions popt;
  popt.num_shards = ctx->workload->shards;
  uint64_t t0 = NowNs();
  Result<shard::GraphPartition> partition = [&] {
    Span span(tr, "shard.partition");
    return shard::PartitionGraph(ctx->graph, popt);
  }();
  double partition_s = Since(t0);
  if (!partition.ok()) return partition.status();

  double order_s = 0, replace_s = 0, prune_s = 0, encode_s = 0;
  uint64_t rules_created = 0, rules_after = 0;
  for (const shard::Shard& sh : partition.value().shards) {
    if (sh.graph.num_edges() == 0) continue;
    // The grepair codec's defaults, as sharded:grepair runs them.
    CompressOptions options;
    options.track_node_mapping = true;
    t0 = NowNs();
    {
      Span span(tr, "graph.node_order");
      std::vector<NodeId> order =
          ComputeNodeOrder(sh.graph, options.node_order, options.order_seed);
      if (order.size() != sh.graph.num_nodes()) {
        return Status::Internal("node order of the wrong length");
      }
    }
    double shard_order_s = Since(t0);
    order_s += shard_order_s;
    options.prune = false;
    t0 = NowNs();
    Result<CompressResult> compressed = [&] {
      Span span(tr, "grepair.compress_unpruned");
      return Compress(sh.graph, ctx->alphabet, options);
    }();
    // Compress recomputes the same node order internally; the
    // replacement loop is what remains.
    replace_s += std::max(0.0, Since(t0) - shard_order_s);
    if (!compressed.ok()) return compressed.status();
    CompressResult& result = compressed.value();
    rules_created += result.stats.digrams_replaced;
    t0 = NowNs();
    {
      Span span(tr, "grammar.prune");
      PruneGrammar(&result.grammar, &result.mapping, options.prune_options);
      CanonicalizeStartEdgeOrder(&result.grammar, &result.mapping);
    }
    prune_s += Since(t0);
    rules_after += result.grammar.num_rules();
    t0 = NowNs();
    {
      Span span(tr, "encoding.encode");
      std::vector<uint8_t> grammar_bytes = EncodeGrammar(result.grammar);
      std::vector<uint8_t> map_bytes =
          EncodeNodeMapping(result.grammar, result.mapping);
      if (grammar_bytes.empty() || map_bytes.empty()) {
        return Status::Internal("empty encoding");
      }
    }
    encode_s += Since(t0);
  }
  double sum = partition_s + order_s + replace_s + prune_s + encode_s;
  (*out)["shard.partition_s"] = {partition_s, "s"};
  (*out)["graph.node_order_s"] = {order_s, "s"};
  (*out)["grepair.replace_s"] = {replace_s, "s"};
  (*out)["grammar.prune_s"] = {prune_s, "s"};
  (*out)["encoding.encode_s"] = {encode_s, "s"};
  (*out)["grepair.rules_created"] = {static_cast<double>(rules_created),
                                     "count"};
  (*out)["grammar.rules_after_prune"] = {static_cast<double>(rules_after),
                                         "count"};
  std::fprintf(stderr,
               "build phases: partition %.3f + order %.3f + replace %.3f + "
               "prune %.3f + encode %.3f = %.3f s; untraced build %.3f s "
               "on %d thread(s); ratio %.3f\n",
               partition_s, order_s, replace_s, prune_s, encode_s, sum,
               ctx->build_seconds, ctx->workload->compress_threads,
               sum / ctx->build_seconds);
  return Status::OK();
}

namespace {

Status ProbeSizes(Context* ctx, std::map<std::string, Metric>* out) {
  ByteSpan bytes = SpanOf(ctx->container);
  shard::ShardContainerInfo info;
  Result<double> parse = MedianCall(0.2, 5, [&]() -> Status {
    Span span(ctx->tracer, "shard.inspect");
    auto got = shard::ShardedRep::Inspect(bytes);
    if (!got.ok()) return got.status();
    info = std::move(got).ValueOrDie();
    return Status::OK();
  });
  if (!parse.ok()) return parse.status();
  uint64_t payload = 0, start_edges = 0, rule_edges = 0;
  for (const shard::ShardDirEntry& row : info.shards) {
    payload += row.length;
    if (row.length == 0) continue;
    auto g = CompressedGraph::Deserialize(
        ByteSpan(ctx->container.data() + row.offset, row.length));
    if (!g.ok()) return g.status();
    const SlhrGrammar& grammar = g.value().grammar();
    start_edges += ComputeGrammarStats(grammar).start_edges;
    for (uint32_t i = 0; i < grammar.num_rules(); ++i) {
      rule_edges += grammar.rhs_by_index(i).num_edges();
    }
  }
  const uint64_t kMagic = 8;
  (*out)["shard.directory_parse_ms"] = {1e3 * parse.value(), "ms"};
  (*out)["size.payload_bytes"] = {static_cast<double>(payload), "bytes"};
  (*out)["size.directory_bytes"] = {
      static_cast<double>(ctx->container.size() - payload - kMagic), "bytes"};
  (*out)["size.grammar_start_edges"] = {static_cast<double>(start_edges),
                                        "count"};
  (*out)["size.grammar_rule_edges"] = {static_cast<double>(rule_edges),
                                       "count"};
  return Status::OK();
}

Status ProbeFaultPath(Context* ctx, std::map<std::string, Metric>* out) {
  Tracer* tr = ctx->tracer;
  // Local workloads get a loopback server of their own for this probe.
  std::unique_ptr<serve::ShardServer> own_server;
  std::string host_port;
  if (ctx->server != nullptr) {
    host_port = ctx->server->host_port();
  } else {
    serve::CorpusRegistry registry;
    GREPAIR_RETURN_IF_ERROR(registry.AddFile("bench", ctx->container_path));
    auto server = serve::ShardServer::Start(std::move(registry));
    if (!server.ok()) return server.status();
    own_server = std::move(server).ValueOrDie();
    host_port = own_server->host_port();
  }
  serve::RemoteShardSource::Options options;
  options.pool_size = 2;
  std::shared_ptr<serve::RemoteShardSource> source;
  Result<double> connect = MedianCall(0.2, 5, [&]() -> Status {
    Span span(tr, "serve.connect");
    auto got = serve::RemoteShardSource::Connect(host_port, "bench", options);
    if (!got.ok()) return got.status();
    source = std::move(got).ValueOrDie();
    return Status::OK();
  });
  if (!connect.ok()) return connect.status();
  shard::ParsedDirectory dir = source->TakeDirectory();
  auto inner = api::CodecRegistry::Create("grepair");
  if (!inner.ok()) return inner.status();

  double fetch_s = 0, hash_s = 0, decode_s = 0, derive_s = 0;
  uint64_t faults = 0;
  uint64_t start = NowNs();
  do {
    for (size_t i = 0; i < dir.rows.size(); ++i) {
      if (dir.rows[i].length == 0) continue;
      std::vector<uint8_t> owned;
      uint64_t t0 = NowNs();
      Result<ByteSpan> payload = [&] {
        Span span(tr, "serve.fetch_shard");
        return source->FetchShard(i, &owned);
      }();
      fetch_s += Since(t0);
      if (!payload.ok()) return payload.status();
      t0 = NowNs();
      uint64_t sum = [&] {
        Span span(tr, "util.hash_bytes");
        return HashBytes(payload.value().data, payload.value().size);
      }();
      hash_s += Since(t0);
      if (sum != dir.rows[i].checksum) {
        return Status::Corruption("shard checksum mismatch in probe");
      }
      t0 = NowNs();
      auto rep = [&] {
        Span span(tr, "encoding.deserialize_span");
        return inner.value()->DeserializeSpan(payload.value());
      }();
      decode_s += Since(t0);
      if (!rep.ok()) return rep.status();
      t0 = NowNs();
      auto graph = [&] {
        Span span(tr, "grammar.derive");
        return rep.value()->Decompress();
      }();
      derive_s += Since(t0);
      if (!graph.ok()) return graph.status();
      ++faults;
    }
  } while (Since(start) < 0.5);
  double per = 1e6 / static_cast<double>(faults);
  (*out)["serve.connect_ms"] = {1e3 * connect.value(), "ms"};
  (*out)["serve.fetch_us_per_shard"] = {fetch_s * per, "us"};
  (*out)["util.checksum_us_per_shard"] = {hash_s * per, "us"};
  (*out)["encoding.decode_us_per_shard"] = {decode_s * per, "us"};
  (*out)["grammar.derive_us_per_shard"] = {derive_s * per, "us"};
  source.reset();
  if (own_server != nullptr) own_server->Stop();
  return Status::OK();
}

Status ProbeCaches(Context* ctx, std::map<std::string, Metric>* out) {
  Tracer* tr = ctx->tracer;
  const size_t kBudget = 64ull << 20;
  // Cold first query per shard, through the workload's own open.
  std::vector<double> fault_us;
  std::unique_ptr<api::CompressedRep> rep;
  uint64_t start = NowNs();
  do {
    auto opened = ctx->Open(kBudget);
    if (!opened.ok()) return opened.status();
    rep = std::move(opened).ValueOrDie();
    auto* sharded = dynamic_cast<shard::ShardedRep*>(rep.get());
    for (size_t i = 0; i < sharded->num_shards(); ++i) {
      const auto& nodes = sharded->entry(i).nodes;
      if (!sharded->entry(i).has_payload() || nodes.empty()) continue;
      uint64_t faults = rep->query_stats().shard_faults;
      uint64_t t0 = NowNs();
      {
        Span span(tr, "shard.out_neighbors");
        auto got = rep->OutNeighbors(nodes[nodes.size() / 2]);
        if (!got.ok()) return got.status();
      }
      double us = 1e-3 * static_cast<double>(NowNs() - t0);
      if (rep->query_stats().shard_faults > faults) fault_us.push_back(us);
    }
  } while (fault_us.size() < 32 && Since(start) < 1.0);

  // Warm hits: every shard decoded into the cache, then popular nodes.
  std::vector<uint64_t> all(ctx->input.num_nodes);
  for (uint32_t v = 0; v < all.size(); ++v) all[v] = v;
  {
    Span span(tr, "shard.out_neighbors_batch");
    auto swept = rep->OutNeighborsBatch(all);
    if (!swept.ok()) return swept.status();
  }
  uint64_t decoded = rep->query_stats().cache_bytes_used;
  Rng rng(ctx->seed + 11);
  // Popularity as in the read stream: Zipf over its non-hub nodes.
  Zipf zipf(ctx->popular.size(), ctx->workload->zipf_s);
  std::vector<double> hit_ns;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = ctx->popular[zipf.Draw(&rng)];
    uint64_t t0 = NowNs();
    {
      Span span(tr, "shard.out_neighbors");
      auto got = rep->OutNeighbors(v);
      if (!got.ok()) return got.status();
    }
    hit_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  (*out)["shard.fault_us"] = {Median(&fault_us), "us"};
  (*out)["shard.warm_hit_ns"] = {Median(&hit_ns), "ns"};
  (*out)["shard.decoded_bytes"] = {static_cast<double>(decoded), "bytes"};
  std::fprintf(stderr,
               "decoded working set %.1f KiB against a run cache budget of "
               "%.1f KiB\n",
               decoded / 1024.0, ctx->workload->query_cache_bytes / 1024.0);
  return Status::OK();
}

}  // namespace

Status RunLayerProbes(Context* ctx, std::map<std::string, Metric>* out) {
  Span span(ctx->tracer, "bench.layer_probes");
  GREPAIR_RETURN_IF_ERROR(ProbeSizes(ctx, out));
  GREPAIR_RETURN_IF_ERROR(ProbeFaultPath(ctx, out));
  GREPAIR_RETURN_IF_ERROR(ProbeCaches(ctx, out));
  return Status::OK();
}

}  // namespace layerbench
}  // namespace grepair
