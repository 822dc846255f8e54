// The layered benchmark: one workload of one process, end to end,
// through the library's public API.
//
//   layerbench --workload NAME --seed N --seconds S --trace 0|1
//              --work-dir DIR [--trace-out FILE] [--self-test]
//
// A run generates its input from the seed, builds a sharded:grepair
// GRSHARD2 container (Compress + SerializeV2, written through
// WriteFileBytesAtomic), optionally serves it over loopback, opens it,
// and then spends --seconds in timed phases: rebuilds, full
// decompression of a fresh open, reopen-to-first-answer cycles, a
// closed-loop read stream of single queries from one client, neighbour
// batches, reachability, and a write stream of edit batches with folds. Every answer is
// checked against the benchmark's own reference model (gen.h). The
// last line of standard output is one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// --self-test replaces one expected answer by a wrong one; the run
// then succeeds only if it counts exactly that one failure.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "src/serve/registry.h"
#include "src/shard/sharded_codec.h"
#include "src/util/mmap_file.h"

namespace grepair {
namespace layerbench {
namespace {

using api::CompressedRep;
using api::QueryStats;
using shard::ShardedRep;

// --- workloads --------------------------------------------------------------

Input MakeVersions(uint64_t seed) { return VersionGraph(4, 16, 40, 20, seed); }
Input MakeRdf(uint64_t seed) { return RdfRecords(30000, 24, 120, seed); }

// On versions-build the singles draw nodes uniformly: with the query
// cache off popularity changes nothing a skew could show, and a Zipf
// head puts a few seeded nodes' degrees into every latency (the mean
// degree of a Zipf-0.9 mix moved from 14.6 to 20.4 between seeds).
const Workload kWorkloads[] = {
    // name, make, shards, threads, remote, cache, zipf, cycle_q,
    // shares: rebuild, decompress, reopen, read, batch, reach, edit, fold
    {"versions-build", MakeVersions, 4, 1, false, 0, 0.0, 1000, 0.30, 0.08,
     0.06, 0.15, 0.05, 0.08, 0.10, 0.18},
    {"rdf-remote-cold", MakeRdf, 64, 2, true, 512 << 10, 1.0, 2000, 0.15, 0.12,
     0.08, 0.28, 0.10, 0.10, 0.08, 0.09},
};

// The timed phases run in this many interleaved passes, so every
// figure draws its samples from the whole run. On a shared machine a
// core runs up to a third slower while a neighbour is busy, in spells
// of milliseconds to minutes. Every timed figure is therefore the
// run's best pass: a latency is the lowest of the passes' percentiles,
// and work timed as a whole and repeated (a build, a decompression, a
// fold, a pass of the read stream or of batches) reports its fastest
// repeat. The passes do the same work, so the best one is the one a
// spell missed, and a change to the code moves it as much as any other.
constexpr int kPasses = 40;

// Edit batches per edit round, and before each fold of the fold rounds.
constexpr int kEditBatches = 100;
constexpr int kFoldBatches = 10;

// Nodes per OutNeighborsBatch call, and edits per ApplyEdits call.
constexpr int kBatchNodes = 256;
constexpr int kEditBatch = 16;

// --- small helpers ------------------------------------------------------------

double SecondsSince(uint64_t start_ns) {
  return 1e-9 * static_cast<double>(NowNs() - start_ns);
}

void Fatal(const std::string& what, const Status& status) {
  std::fprintf(stderr, "layerbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

ShardedRep* AsSharded(const std::unique_ptr<CompressedRep>& rep) {
  return dynamic_cast<ShardedRep*>(rep.get());
}

/// Counter deltas of one phase.
struct Counters {
  uint64_t cache_hits = 0, cache_misses = 0, shard_decodes = 0;
  uint64_t remote_fetches = 0, remote_bytes = 0, pool_dials = 0;
  uint64_t memo_entries = 0, memo_hits = 0;
  uint64_t shard_folds = 0, folded_edits = 0;

  void Add(const QueryStats& before, const QueryStats& after) {
    cache_hits += after.cache_hits - before.cache_hits;
    cache_misses += after.cache_misses - before.cache_misses;
    shard_decodes += after.shard_decodes - before.shard_decodes;
    remote_fetches += after.remote_fetches - before.remote_fetches;
    remote_bytes += after.remote_bytes - before.remote_bytes;
    pool_dials += after.pool_dials - before.pool_dials;
    memo_entries += after.memo_entries - before.memo_entries;
    memo_hits += after.memo_hits - before.memo_hits;
    shard_folds += after.shard_folds - before.shard_folds;
    folded_edits += after.folded_edits - before.folded_edits;
  }
};

double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}
double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

/// Latency samples of one kind, grouped by the pass that took them.
struct Samples {
  std::vector<double> all;
  std::vector<size_t> starts;  // index of each pass's first sample

  void StartPass() { starts.push_back(all.size()); }
  void Add(double v) { all.push_back(v); }
  /// The lowest per-pass percentile `q` over the passes with samples.
  double BestPass(double q) const {
    std::vector<double> best;
    for (size_t p = 0; p < starts.size(); ++p) {
      size_t end = p + 1 < starts.size() ? starts[p + 1] : all.size();
      if (end == starts[p]) continue;
      std::vector<double> part(all.begin() + starts[p], all.begin() + end);
      best.push_back(Percentile(&part, q));
    }
    return Min(best);
  }
};

/// Samples and counters the phases collect.
struct Results {
  double setup_s = 0;
  std::vector<double> build_s;          // Compress + SerializeV2
  std::vector<double> decompress_rate;  // edges/s per decompress
  Samples first_answer_ms;              // open + first answer
  Samples open_ms;                      // the open call alone
  Samples query_us;                     // read-stream singles
  std::vector<double> query_rate;       // queries/s per read pass
  std::vector<double> batch_rate;       // nodes/s per batch pass
  Samples reach_us;
  Samples edit_batch_us;
  double edits = 0, edit_s = 0;
  Samples overlay_query_us;
  std::vector<double> fold_s;
  Counters read;            // read stream (singles)
  uint64_t read_opens = 0;  // cold-cycle opens of the read stream
  Counters write;           // fold rounds
  uint64_t overlay_merges = 0;  // edit rounds
  uint64_t overlay_queries = 0;
};

/// Query mix: node popularity is Zipf over a seeded permutation of the
/// queried nodes, so hot nodes scatter over the shards.
class Mix {
 public:
  Mix(uint32_t num_nodes, uint64_t seed) : rng_(seed), num_nodes_(num_nodes) {}
  /// Sets the nodes singles and batches draw from, and their skew.
  void SetQueried(std::vector<uint32_t> nodes, double zipf_s) {
    perm_ = std::move(nodes);
    for (size_t i = perm_.size(); i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng_.Below(i)]);
    }
    zipf_ = Zipf(perm_.size(), zipf_s);
  }
  uint32_t Node() { return perm_[zipf_.Draw(&rng_)]; }
  /// The queried nodes, most popular first.
  const std::vector<uint32_t>& popular() const { return perm_; }
  uint32_t Uniform() { return static_cast<uint32_t>(rng_.Below(num_nodes_)); }
  /// A node that lives in one shard only, so every first answer faults
  /// exactly one shard.
  uint32_t Lean() { return lean_[rng_.Below(lean_.size())]; }
  void SetLean(std::vector<uint32_t> lean) { lean_ = std::move(lean); }
  Rng* rng() { return &rng_; }

 private:
  Rng rng_;
  uint32_t num_nodes_;
  Zipf zipf_{1, 1.0};
  std::vector<uint32_t> perm_;
  std::vector<uint32_t> lean_;
};

// --- the run ------------------------------------------------------------------

class Run {
 public:
  explicit Run(Context* ctx)
      : ctx_(*ctx),
        ref_(ctx->input),
        mix_(ctx->input.num_nodes, ctx->seed * 0x9e3779b97f4a7c15ull + 7),
        visited_(ctx->input.num_nodes, 0) {}

  void Setup();
  // Opens a new pass of every latency series.
  void StartPass() {
    for (Samples* s : {&r_.first_answer_ms, &r_.open_ms, &r_.query_us,
                       &r_.reach_us, &r_.edit_batch_us,
                       &r_.overlay_query_us}) {
      s->StartPass();
    }
  }
  void RebuildPhase(int pass);
  void DecompressPhase();
  void ReopenPhase();
  void ReadPhase();
  void BatchPhase();
  void ReachPhase();
  // The write stream's rounds of pass `pass`, within their shares (see
  // Budgeted): edit rounds, then fold rounds.
  void WritePhase(int pass);
  void RemoteMatchesLocal();
  // A local open faults every shard before the timed passes; the
  // remote read stream runs in cold cycles instead.
  void WarmMain() {
    if (!w().remote) Warm(*main_, {});
  }
  void ReleaseMain() { main_.reset(); }

  Results& results() { return r_; }

 private:
  const Workload& w() const { return *ctx_.workload; }
  uint64_t PhaseEnd(double share) const {
    return NowNs() + static_cast<uint64_t>(share * ctx_.seconds * 1e9);
  }
  std::unique_ptr<CompressedRep> MustOpen() {
    auto rep = ctx_.Open(w().query_cache_bytes);
    if (!rep.ok()) Fatal("open", rep.status());
    return std::move(rep).ValueOrDie();
  }
  // Compress + SerializeV2 of the run's input; returns the container.
  std::vector<uint8_t> Build();
  // Repeats `work` while the time it has taken so far stays within
  // `share` of passes 0..pass. A round can outlast one pass's share,
  // so this spreads the rounds evenly over the run; every pass runs at
  // most as many as its share allows, the first pass at least one.
  template <typename Work>
  void Budgeted(double share, int pass, double* spent, Work work) {
    const double budget = share * ctx_.seconds * (pass + 1) / kPasses;
    while (*spent < budget) {
      uint64_t t0 = NowNs();
      work();
      *spent += SecondsSince(t0);
    }
  }
  // One round of the write stream: a fresh open, edit batches with
  // queries on every touched node, and with `fold` a FoldOverlay and a
  // check of every touched node after it. Edit rounds (kEditBatches
  // batches) time the batches and queries; fold rounds (kFoldBatches)
  // time only the fold, so more folds fit in a run.
  void EditRound(bool fold);
  // Faults every shard and caches the decoded neighbourhoods of the
  // shards holding `sweep`: the state a long-lived service reaches.
  void Warm(const CompressedRep& rep, const std::vector<uint64_t>& sweep);
  // One timed single query (out- or in-neighbours), checked.
  double TimedSingle(const CompressedRep& rep, uint32_t node, bool out);
  void CheckNode(const CompressedRep& rep, uint32_t node);
  // Closes a read pass: its queries/s from the singles since `first`.
  void PassRate(size_t first);

  Context& ctx_;
  Reference ref_;
  Mix mix_;
  std::vector<uint8_t> visited_;
  std::unique_ptr<CompressedRep> main_;
  // The edit region: the nodes stored only in the edit shard (list and
  // membership); every edit joins two of them.
  std::vector<uint32_t> region_;
  std::vector<uint8_t> in_region_;
  // Seconds spent so far in rebuilds, edit rounds and fold rounds.
  double build_total_s_ = 0, edit_total_s_ = 0, fold_total_s_ = 0;
  Results r_;
};

double Run::TimedSingle(const CompressedRep& rep, uint32_t node, bool out) {
  uint64_t t0 = NowNs();
  Result<std::vector<uint64_t>> got = [&] {
    Span span(ctx_.tracer,
              out ? "shard.out_neighbors" : "shard.in_neighbors");
    return out ? rep.OutNeighbors(node) : rep.InNeighbors(node);
  }();
  double us = 1e-3 * static_cast<double>(NowNs() - t0);
  ctx_.tally.Op(ctx_.tally.SameNeighbors(got, out ? ref_.Out(node)
                                                  : ref_.In(node)));
  return us;
}

void Run::CheckNode(const CompressedRep& rep, uint32_t node) {
  ctx_.tally.Op(ctx_.tally.SameNeighbors(rep.OutNeighbors(node),
                                         ref_.Out(node)));
  ctx_.tally.Op(ctx_.tally.SameNeighbors(rep.InNeighbors(node),
                                         ref_.In(node)));
}

void Run::Setup() {
  Context& c = ctx_;
  uint64_t t0 = NowNs();
  // The set-up build is the process's first Compress, which pays
  // one-off allocator and page-fault costs; it counts in setup_s only.
  c.container = Build();
  {
    Span span(c.tracer, "util.write_file_atomic");
    Status st = WriteFileBytesAtomic(c.container_path, SpanOf(c.container));
    if (!st.ok()) Fatal("write", st);
  }
  if (w().remote) {
    Span span(c.tracer, "serve.start");
    serve::CorpusRegistry registry;
    Status st = registry.AddFile("bench", c.container_path);
    if (!st.ok()) Fatal("register", st);
    serve::ShardServer::Options options;  // no injected delay
    auto server = serve::ShardServer::Start(std::move(registry), options);
    if (!server.ok()) Fatal("serve", server.status());
    c.server = std::move(server).ValueOrDie();
    c.target = c.server->host_port() + "/bench";
  }
  main_ = MustOpen();
  (void)TimedSingle(*main_, mix_.Uniform(), true);
  r_.setup_s = SecondsSince(t0);
  // Shard membership from the node maps of the open rep.
  const ShardedRep* sharded = AsSharded(main_);
  const size_t shards = sharded->num_shards();
  std::vector<uint32_t> shards_of(ctx_.input.num_nodes, 0);
  for (size_t i = 0; i < shards; ++i) {
    for (NodeId v : sharded->entry(i).nodes) ++shards_of[v];
  }
  // Singles and batches skip hubs, nodes stored in more than half the
  // shards: a hub's answer fans out over every shard, and whether the
  // seeded permutation puts one among the hottest ranks would decide
  // a run's figures.
  std::vector<uint32_t> lean, queried;
  for (uint32_t v = 0; v < shards_of.size(); ++v) {
    if (shards_of[v] == 1) lean.push_back(v);
    if (shards_of[v] > 0 && 2 * shards_of[v] <= shards) queried.push_back(v);
  }
  mix_.SetLean(lean);
  mix_.SetQueried(std::move(queried), w().zipf_s);
  c.popular = mix_.popular();
  // Edits go to one region, as appends to a corpus do: the nodes of
  // the last data shard (the newest records; the shard after it is the
  // cut shard) that are stored in no other shard. Every edit then folds
  // into that one shard, every fold recompresses the same shard, and
  // no edit touches a hub. The region is the same shard on every seed:
  // single-query routing cost depends on a shard's position.
  const size_t edit_shard = shards - 2;
  const auto& edit_nodes = sharded->entry(edit_shard).nodes;
  in_region_.assign(ctx_.input.num_nodes, 0);
  for (uint32_t v : lean) {
    if (std::binary_search(edit_nodes.begin(), edit_nodes.end(), v)) {
      region_.push_back(v);
      in_region_[v] = 1;
    }
  }
}

std::vector<uint8_t> Run::Build() {
  std::unique_ptr<CompressedRep> built;
  {
    Span span(ctx_.tracer, "shard.compress");
    auto rep = ctx_.codec->Compress(ctx_.graph, ctx_.alphabet,
                                    ctx_.build_options);
    if (!rep.ok()) Fatal("build", rep.status());
    built = std::move(rep).ValueOrDie();
  }
  Span span(ctx_.tracer, "shard.serialize_v2");
  return AsSharded(built)->SerializeV2();
}

void Run::RebuildPhase(int pass) {
  Span phase(ctx_.tracer, "bench.rebuild");
  Budgeted(w().share_build, pass, &build_total_s_, [&] {
    uint64_t t0 = NowNs();
    std::vector<uint8_t> bytes = Build();
    r_.build_s.push_back(SecondsSince(t0));
    ctx_.tally.Op(bytes == ctx_.container);  // builds are deterministic
  });
  std::vector<double> builds = r_.build_s;
  ctx_.build_seconds = Median(&builds);
}

void Run::WritePhase(int pass) {
  Budgeted(w().share_edit, pass, &edit_total_s_, [&] { EditRound(false); });
  Budgeted(w().share_fold, pass, &fold_total_s_, [&] { EditRound(true); });
}

void Run::Warm(const CompressedRep& rep, const std::vector<uint64_t>& sweep) {
  Span span(ctx_.tracer, "bench.warm");
  dynamic_cast<const ShardedRep&>(rep).PrefetchAll();
  if (sweep.empty()) return;
  auto swept = rep.OutNeighborsBatch(sweep);
  if (!swept.ok()) Fatal("warm sweep", swept.status());
}

void Run::DecompressPhase() {
  Span phase(ctx_.tracer, "bench.decompress");
  const uint64_t want = Fingerprint(ctx_.input.edges);
  const double edges = static_cast<double>(ctx_.input.edges.size());
  uint64_t end = PhaseEnd(w().share_decompress / kPasses);
  do {
    std::unique_ptr<CompressedRep> rep = MustOpen();
    uint64_t t0 = NowNs();
    Result<Hypergraph> g = [&] {
      Span span(ctx_.tracer, "shard.decompress");
      return rep->Decompress();
    }();
    double s = SecondsSince(t0);
    bool ok = g.ok() && g.value().num_edges() == ctx_.input.edges.size();
    if (ok) {
      uint64_t got = 0;
      for (const HEdge& e : g.value().edges()) {
        if (e.att.size() != 2) {
          ok = false;
          break;
        }
        got += MixEdge(e.label, e.att[0], e.att[1]);
      }
      ok = ok && got == want;
    }
    ctx_.tally.Op(ok);
    r_.decompress_rate.push_back(edges / s);
  } while (NowNs() < end);
}

void Run::ReopenPhase() {
  Span phase(ctx_.tracer, "bench.reopen");
  uint64_t end = PhaseEnd(w().share_reopen / kPasses);
  do {
    uint64_t t0 = NowNs();
    std::unique_ptr<CompressedRep> rep = MustOpen();
    r_.open_ms.Add(1e-6 * static_cast<double>(NowNs() - t0));
    (void)TimedSingle(*rep, mix_.Lean(), true);
    r_.first_answer_ms.Add(1e-6 * static_cast<double>(NowNs() - t0));
  } while (NowNs() < end);
}

void Run::ReadPhase() {
  Span phase(ctx_.tracer, "bench.read");
  uint64_t end = PhaseEnd(w().share_read / kPasses);
  const size_t first = r_.query_us.all.size();
  if (!w().remote) {
    QueryStats before = main_->query_stats();
    do {
      for (int q = 0; q < w().cycle_queries; ++q) {
        uint32_t node = mix_.Node();
        r_.query_us.Add(TimedSingle(*main_, node, q % 3 != 2));
      }
    } while (NowNs() < end);
    r_.read.Add(before, main_->query_stats());
    PassRate(first);
    return;
  }
  // Cold cycles: every cycle opens afresh (empty caches, new pool),
  // then answers a Zipf stream from one closed-loop client.
  do {
    uint64_t t0 = NowNs();
    std::unique_ptr<CompressedRep> rep = MustOpen();
    r_.open_ms.Add(1e-6 * static_cast<double>(NowNs() - t0));
    QueryStats before = rep->query_stats();
    (void)TimedSingle(*rep, mix_.Lean(), true);
    r_.first_answer_ms.Add(1e-6 * static_cast<double>(NowNs() - t0));
    ++r_.read_opens;
    for (int q = 1; q < w().cycle_queries; ++q) {
      uint32_t node = mix_.Node();
      r_.query_us.Add(TimedSingle(*rep, node, q % 3 != 2));
    }
    r_.read.Add(before, rep->query_stats());
  } while (NowNs() < end);
  PassRate(first);
}

void Run::PassRate(size_t first) {
  const std::vector<double>& all = r_.query_us.all;
  double us = 0;
  for (size_t i = first; i < all.size(); ++i) us += all[i];
  r_.query_rate.push_back(1e6 * static_cast<double>(all.size() - first) / us);
}

void Run::BatchPhase() {
  Span phase(ctx_.tracer, "bench.batch");
  uint64_t end = PhaseEnd(w().share_batch / kPasses);
  std::vector<uint64_t> nodes(kBatchNodes);
  double pass_nodes = 0, pass_s = 0;
  do {
    for (auto& n : nodes) n = mix_.Node();
    uint64_t t0 = NowNs();
    auto got = [&] {
      Span span(ctx_.tracer, "shard.out_neighbors_batch");
      return main_->OutNeighborsBatch(nodes);
    }();
    pass_s += SecondsSince(t0);
    pass_nodes += static_cast<double>(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      const auto& want = ref_.Out(static_cast<uint32_t>(nodes[i]));
      bool ok = got.ok() && got.value()[i].size() == want.size() &&
                std::equal(want.begin(), want.end(), got.value()[i].begin());
      ctx_.tally.Op(ok);
    }
  } while (NowNs() < end);
  r_.batch_rate.push_back(pass_nodes / pass_s);
}

void Run::ReachPhase() {
  Span phase(ctx_.tracer, "bench.reach");
  uint64_t end = PhaseEnd(w().share_reach / kPasses);
  Rng* rng = mix_.rng();
  do {
    // A target 1..3 out-hops from a random source (reachable), and
    // one pair in five reversed (often unreachable in a DAG).
    uint32_t u = mix_.Uniform();
    uint32_t v = u;
    int hops = 1 + static_cast<int>(rng->Below(3));
    for (int h = 0; h < hops && !ref_.Out(v).empty(); ++h) {
      v = ref_.Out(v)[rng->Below(ref_.Out(v).size())];
    }
    if (v == u) v = static_cast<uint32_t>(rng->Below(ref_.num_nodes()));
    if (rng->Chance(0.2)) std::swap(u, v);
    uint64_t t0 = NowNs();
    Result<bool> got = [&] {
      Span span(ctx_.tracer, "shard.reachable");
      return main_->Reachable(u, v);
    }();
    r_.reach_us.Add(1e-3 * static_cast<double>(NowNs() - t0));
    ctx_.tally.Op(got.ok() && got.value() == ref_.Reachable(u, v, &visited_));
  } while (NowNs() < end);
}

void Run::EditRound(bool fold) {
  Span round(ctx_.tracer, fold ? "bench.fold_round" : "bench.edit_round");
  Rng* rng = mix_.rng();
  std::vector<uint32_t> touched;
  {
    // Every round starts from the built corpus on a fresh, warmed
    // open and a fresh copy of the reference, so rounds are alike.
    Reference saved = ref_;
    // Writes run on the default cache budget: the cold, small-cache
    // path belongs to the read stream.
    auto opened = ctx_.Open(shard::kDefaultQueryCacheBytes);
    if (!opened.ok()) Fatal("open", opened.status());
    std::unique_ptr<CompressedRep> rep = std::move(opened).ValueOrDie();
    ShardedRep* sharded = AsSharded(rep);
    sharded->set_overlay_budget_bytes(~0ull);  // fold only when asked
    // The round's queries all fall in the edit shard: cache it, so they
    // time the overlay merge over cached answers on every workload.
    Warm(*rep, std::vector<uint64_t>(region_.begin(), region_.end()));
    QueryStats before = rep->query_stats();
    const int batches = fold ? kFoldBatches : kEditBatches;
    for (int b = 0; b < batches; ++b) {
      std::vector<shard::EdgeEdit> edits;
      std::vector<std::pair<uint32_t, uint32_t>> pairs;
      while (static_cast<int>(edits.size()) < kEditBatch) {
        uint32_t u = region_[rng->Below(region_.size())];
        if (rng->Chance(0.3) && !ref_.Out(u).empty()) {
          uint32_t v = ref_.Out(u)[rng->Below(ref_.Out(u).size())];
          if (!in_region_[v]) continue;
          edits.push_back(shard::EdgeEdit::Delete(u, v));
          ref_.Delete(u, v);
          pairs.push_back({u, v});
          continue;
        }
        // Adds close a two-hop path inside the region where there is
        // one, else join another node of the region.
        uint32_t v = u;
        for (int h = 0; h < 2; ++h) {
          const auto& nb = rng->Chance(0.5) ? ref_.Out(v) : ref_.In(v);
          if (nb.empty()) continue;
          uint32_t next = nb[rng->Below(nb.size())];
          if (in_region_[next]) v = next;
        }
        if (v == u) v = region_[rng->Below(region_.size())];
        if (v == u) continue;
        uint32_t label =
            static_cast<uint32_t>(rng->Below(ctx_.input.num_labels));
        edits.push_back(shard::EdgeEdit::Add(u, v, label));
        ref_.Add(u, v);
        pairs.push_back({u, v});
      }
      uint64_t t0 = NowNs();
      Status st = [&] {
        Span span(ctx_.tracer, "shard.apply_edits");
        return sharded->ApplyEdits(edits);
      }();
      double us = 1e-3 * static_cast<double>(NowNs() - t0);
      ctx_.tally.Op(st.ok());
      if (!fold) {
        r_.edit_batch_us.Add(us);
        r_.edits += static_cast<double>(edits.size());
        r_.edit_s += 1e-6 * us;
      }
      for (const auto& [u, v] : pairs) {
        double out_us = TimedSingle(*rep, u, true);
        double in_us = TimedSingle(*rep, v, false);
        touched.push_back(u);
        touched.push_back(v);
        if (fold) continue;
        r_.overlay_query_us.Add(out_us);
        r_.overlay_query_us.Add(in_us);
        r_.overlay_queries += 2;
      }
    }
    if (!fold) {
      r_.overlay_merges += rep->query_stats().overlay_merges -
                           before.overlay_merges;
      ref_ = std::move(saved);
      return;
    }
    uint64_t t0 = NowNs();
    Status st = [&] {
      Span span(ctx_.tracer, "shard.fold_overlay");
      return sharded->FoldOverlay();
    }();
    r_.fold_s.push_back(SecondsSince(t0));
    ctx_.tally.Op(st.ok());
    r_.write.Add(before, rep->query_stats());
    // After every fold, every node the round touched must still
    // answer as the reference does.
    Span check(ctx_.tracer, "bench.check_after_fold");
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    for (uint32_t v : touched) CheckNode(*rep, v);
    ref_ = std::move(saved);
  }
}

void Run::RemoteMatchesLocal() {
  Span phase(ctx_.tracer, "bench.remote_vs_local");
  auto local = ctx_.codec->Open(ctx_.container_path);
  auto remote = ctx_.Open(w().query_cache_bytes);
  if (!local.ok()) Fatal("local open", local.status());
  if (!remote.ok()) Fatal("remote open", remote.status());
  for (int i = 0; i < 256; ++i) {
    uint32_t v = mix_.Node();
    auto a = local.value()->OutNeighbors(v);
    auto b = remote.value()->OutNeighbors(v);
    ctx_.tally.Op(a.ok() && b.ok() && a.value() == b.value());
    auto c = local.value()->InNeighbors(v);
    auto d = remote.value()->InNeighbors(v);
    ctx_.tally.Op(c.ok() && d.ok() && c.value() == d.value());
  }
}

// --- output -------------------------------------------------------------------

void PrintResult(const Tally& tally,
                 const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::map<std::string, Metric> EndToEnd(const Context& ctx, Results* r) {
  const double edges = static_cast<double>(ctx.input.edges.size());
  std::map<std::string, Metric> m;
  m["setup_s"] = {r->setup_s, "s"};
  m["compress_edges_per_s"] = {edges / Min(r->build_s), "edges/s"};
  m["container_bits_per_edge"] = {
      8.0 * static_cast<double>(ctx.container.size()) / edges, "bits/edge"};
  m["decompress_edges_per_s"] = {Max(r->decompress_rate), "edges/s"};
  m["open_first_answer_ms"] = {r->first_answer_ms.BestPass(0.50), "ms"};
  m["queries_per_s"] = {Max(r->query_rate), "queries/s"};
  m["query_us_p50"] = {r->query_us.BestPass(0.50), "us"};
  m["query_us_p99"] = {r->query_us.BestPass(0.99), "us"};
  m["batch_nodes_per_s"] = {Max(r->batch_rate), "nodes/s"};
  m["reach_us_p50"] = {r->reach_us.BestPass(0.50), "us"};
  m["edit_batch_us_p50"] = {r->edit_batch_us.BestPass(0.50), "us"};
  m["overlay_query_us_p50"] = {r->overlay_query_us.BestPass(0.50), "us"};
  m["fold_s"] = {Min(r->fold_s), "s"};
  return m;
}

double PerK(uint64_t count, double per) {
  return per > 0 ? 1000.0 * static_cast<double>(count) / per : 0.0;
}

/// Per-layer metrics the timed phases themselves yield (counters and
/// span-timed calls); RunLayerProbes adds the rest.
void PhaseLayers(Results* r, std::map<std::string, Metric>* m) {
  // The read counters cover the singles and each cold cycle's first
  // answer.
  const double kq =
      static_cast<double>(r->query_us.all.size() + r->read_opens);
  const Counters& c = r->read;
  (*m)["shard.open_ms"] = {r->open_ms.BestPass(0.50), "ms"};
  (*m)["shard.cache_hits"] = {PerK(c.cache_hits, kq), "count/kq"};
  (*m)["shard.cache_misses"] = {PerK(c.cache_misses, kq), "count/kq"};
  uint64_t lookups = c.cache_hits + c.cache_misses;
  (*m)["shard.cache_hit_ratio"] = {
      lookups > 0 ? static_cast<double>(c.cache_hits) / lookups : 0.0,
      "ratio"};
  (*m)["shard.shard_decodes"] = {PerK(c.shard_decodes, kq), "count/kq"};
  (*m)["serve.remote_fetches"] = {PerK(c.remote_fetches, kq), "count/kq"};
  (*m)["serve.remote_bytes"] = {PerK(c.remote_bytes, kq), "bytes/kq"};
  (*m)["serve.pool_dials"] = {
      r->read_opens > 0
          ? static_cast<double>(c.pool_dials) / r->read_opens
          : 0.0,
      "count/open"};
  (*m)["query.memo_entries"] = {PerK(c.memo_entries, kq), "count/kq"};
  (*m)["query.memo_hits"] = {PerK(c.memo_hits, kq), "count/kq"};
  const Counters& w = r->write;
  (*m)["shard.overlay_apply_us_per_edit"] = {1e6 * r->edit_s / r->edits,
                                             "us/edit"};
  (*m)["shard.overlay_merges"] = {
      PerK(r->overlay_merges, static_cast<double>(r->overlay_queries)),
      "count/kq"};
  double folds = static_cast<double>(r->fold_s.size());
  double fold_total = 0;
  for (double s : r->fold_s) fold_total += s;
  (*m)["shard.fold_us_per_shard"] = {
      w.shard_folds > 0 ? 1e6 * fold_total / w.shard_folds : 0.0,
      "us/shard"};
  (*m)["shard.shard_folds"] = {w.shard_folds / folds, "count/fold"};
  (*m)["shard.folded_edits"] = {w.folded_edits / folds, "count/fold"};
}

struct Args {
  std::string workload, work_dir, trace_out;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool self_test = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: layerbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] "
               "[--self-test]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--work-dir") {
      a->work_dir = value;
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || a->seconds <= 0 || a->seconds > 600) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->work_dir.empty() && a->seconds > 0 &&
         a->trace >= 0;
}

}  // namespace

// --- shared helpers (bench.h) -------------------------------------------------

bool Tally::SameNeighbors(const Result<std::vector<uint64_t>>& got,
                          const std::vector<uint32_t>& want) {
  if (!got.ok()) return false;
  std::vector<uint32_t> expect = want;
  if (tamper_next) {
    expect.push_back(0xffffffffu);  // an answer no node can have
    tamper_next = false;
  }
  return got.value().size() == expect.size() &&
         std::equal(expect.begin(), expect.end(), got.value().begin());
}

double Median(std::vector<double>* v) { return Percentile(v, 0.5); }

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()) + 0.5);
  rank = std::min(std::max<size_t>(rank, 1), v->size());
  return (*v)[rank - 1];
}

void ToHypergraph(const Input& in, Hypergraph* graph, Alphabet* alphabet) {
  *alphabet = Alphabet();
  alphabet->AddSimpleLabels(static_cast<int>(in.num_labels));
  *graph = Hypergraph(in.num_nodes);
  for (const Edge& e : in.edges) graph->AddSimpleEdge(e.u, e.v, e.label);
}

Result<std::unique_ptr<CompressedRep>> Context::Open(
    size_t cache_bytes) const {
  Span span(tracer, workload->remote ? "api.open_remote" : "api.open");
  api::RemoteOptions options;
  options.pool_size = 2;
  options.warm_from_histogram = false;  // cold: no open-time prefetch
  Result<std::unique_ptr<CompressedRep>> rep =
      workload->remote ? api::OpenRemote(target, options)
                       : codec->Open(container_path);
  if (!rep.ok()) return rep;
  ShardedRep* sharded = AsSharded(rep.value());
  if (sharded == nullptr) return Status::Internal("not a sharded rep");
  sharded->set_query_cache_bytes(cache_bytes);
  sharded->set_query_threads(1);
  return rep;
}

}  // namespace layerbench
}  // namespace grepair

int main(int argc, char** argv) {
  using namespace grepair;
  using namespace grepair::layerbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "layerbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Tracer tracer(args.trace == 1);
  Context ctx;
  ctx.workload = workload;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.tracer = &tracer;
  ctx.container_path = args.work_dir + "/corpus.grs";
  ctx.input = workload->make(args.seed);
  ToHypergraph(ctx.input, &ctx.graph, &ctx.alphabet);
  ctx.codec = api::CodecRegistry::Create("sharded:grepair").ValueOrDie();
  ctx.build_options.Set("shards", std::to_string(workload->shards));
  ctx.build_options.Set("threads",
                        std::to_string(workload->compress_threads));

  Run run(&ctx);
  run.Setup();
  if (args.self_test) ctx.tally.tamper_next = true;
  run.WarmMain();
  for (int pass = 0; pass < kPasses; ++pass) {
    run.StartPass();
    run.RebuildPhase(pass);
    run.DecompressPhase();
    run.ReopenPhase();
    run.ReadPhase();
    run.BatchPhase();
    run.ReachPhase();
    run.WritePhase(pass);
  }
  run.ReleaseMain();
  if (workload->remote) run.RemoteMatchesLocal();
  std::map<std::string, Metric> out;
  if (args.trace == 1) {
    Status st = ProbeBuildPhases(&ctx, &out);
    if (!st.ok()) Fatal("build phases", st);
  }

  Results& results = run.results();
  std::fprintf(stderr,
               "%s seed %llu: %u nodes, %zu edges, %u labels, %d shards, "
               "container %zu bytes, build %.3f s; samples: %zu decompress, "
               "%zu first answers, %zu singles, %zu reach, %zu edit batches, "
               "%zu folds\n",
               workload->name, static_cast<unsigned long long>(args.seed),
               ctx.input.num_nodes, ctx.input.edges.size(),
               ctx.input.num_labels, workload->shards, ctx.container.size(),
               ctx.build_seconds, results.decompress_rate.size(),
               results.first_answer_ms.all.size(),
               results.query_us.all.size(), results.reach_us.all.size(),
               results.edit_batch_us.all.size(),
               results.fold_s.size());
  std::map<std::string, Metric> e2e = EndToEnd(ctx, &results);
  if (args.trace == 1) {
    PhaseLayers(&results, &out);
    Status st = RunLayerProbes(&ctx, &out);
    if (!st.ok()) Fatal("layer probes", st);
    // The traced run's own end-to-end figures (for the tracing
    // overhead) and each layer's self time go to stderr.
    for (const auto& [name, m] : e2e) {
      std::fprintf(stderr, "traced %s = %.6g %s\n", name.c_str(), m.value,
                   m.unit.c_str());
    }
    for (const auto& [layer, s] : tracer.SelfSecondsByLayer()) {
      std::fprintf(stderr, "self %-10s %.4f s\n", layer.c_str(), s);
    }
    if (!args.trace_out.empty() && !tracer.WriteJsonLines(args.trace_out)) {
      std::fprintf(stderr, "layerbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  } else {
    out = std::move(e2e);
  }
  if (ctx.server != nullptr) ctx.server->Stop();
  PrintResult(ctx.tally, out);
  if (args.self_test) {
    bool caught = ctx.tally.failed == 1;
    std::fprintf(stderr, "self-test: %s\n",
                 caught ? "the wrong reference answer was counted as the "
                          "one failure"
                        : "the wrong reference answer was NOT caught");
    return caught ? 0 : 1;
  }
  return 0;
}
