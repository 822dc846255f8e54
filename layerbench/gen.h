// Input generators and the reference model of the layered benchmark.
//
// Everything here is the benchmark's own code: the graphs are built
// from a seed with a private RNG (never through src/datasets), and the
// reference answers come from plain adjacency lists over the generated
// edge list, so no change to the library can change a workload or its
// expected answers.

#ifndef LAYERBENCH_GEN_H_
#define LAYERBENCH_GEN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace grepair {
namespace layerbench {

/// \brief splitmix64-seeded xoshiro256**: small, fast, and independent
/// of the library's RNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (auto& s : s_) {
      seed += 0x9e3779b97f4a7c15ull;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      s = z ^ (z >> 31);
    }
  }
  uint64_t Next() {
    uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, n), n > 0.
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  double Unit() { return (Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// \brief Exact discrete Zipf sampler over ranks [0, n): rank r has
/// weight 1/(r+1)^s. Inverse CDF by binary search.
class Zipf {
 public:
  Zipf(uint64_t n, double s) : cdf_(n) {
    double sum = 0;
    for (uint64_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint64_t Draw(Rng* rng) const { return At(rng->Unit()); }
  /// The rank at cumulative share `u` in [0, 1).
  uint64_t At(double u) const {
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) return cdf_.size() - 1;
    return static_cast<uint64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// \brief A rank-2 labelled edge u -> v.
struct Edge {
  uint32_t u = 0;
  uint32_t v = 0;
  uint32_t label = 0;
};

/// \brief A generated input: a simple labelled digraph (no self-loops,
/// no repeated (u, v, label)) plus what the README reports about it.
struct Input {
  uint32_t num_nodes = 0;
  uint32_t num_labels = 1;
  std::vector<Edge> edges;
};

inline uint64_t PairKey(uint32_t u, uint32_t v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

/// \brief DBLP-style version graph of one venue: `years` cumulative
/// yearly snapshots of a growing co-authorship network, laid out as a
/// disjoint union from `first_node` on (the family of the paper's
/// version-graph experiments). Each year adds `authors_per_year`
/// authors and `papers_per_year` papers; a paper is a directed clique
/// (both directions) over 2..5 authors, a third of them picked
/// preferentially by past activity.
inline void AppendVenue(uint32_t years, uint32_t authors_per_year,
                        uint32_t papers_per_year, uint64_t seed,
                        Input* in) {
  Rng rng(seed);
  std::vector<uint64_t> pairs;  // cumulative distinct author pairs
  std::unordered_set<uint64_t> seen;
  std::vector<uint32_t> activity;  // author ids, once per authorship
  uint32_t authors = 0;
  uint32_t offset = in->num_nodes;
  for (uint32_t y = 0; y < years; ++y) {
    authors += authors_per_year;
    for (uint32_t p = 0; p < papers_per_year; ++p) {
      // Team sizes cycle 2..5, so the edge count barely depends on
      // the seed; who is on a team is random.
      uint32_t team = 2 + p % 4;
      std::vector<uint32_t> members;
      for (uint32_t a = 0; a < team; ++a) {
        uint32_t who = (!activity.empty() && rng.Chance(0.35))
                           ? activity[rng.Below(activity.size())]
                           : static_cast<uint32_t>(rng.Below(authors));
        members.push_back(who);
      }
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
      for (uint32_t m : members) activity.push_back(m);
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = 0; j < members.size(); ++j) {
          if (i == j) continue;
          uint64_t key = PairKey(members[i], members[j]);
          if (seen.insert(key).second) pairs.push_back(key);
        }
      }
    }
    // Snapshot y: every pair so far, over this year's author range.
    for (uint64_t key : pairs) {
      in->edges.push_back({offset + static_cast<uint32_t>(key >> 32),
                           offset + static_cast<uint32_t>(key), 0});
    }
    offset += authors;
  }
  in->num_nodes = offset;
}

/// \brief `venues` independent venues' version graphs, one after the
/// other. One venue is a single random co-authorship structure copied
/// into every snapshot, so its compression cost swings with the seed by
/// a fifth; the sum over independent venues swings far less.
inline Input VersionGraph(uint32_t venues, uint32_t years,
                          uint32_t authors_per_year,
                          uint32_t papers_per_year, uint64_t seed) {
  Input in;
  in.num_labels = 1;
  for (uint32_t k = 0; k < venues; ++k) {
    AppendVenue(years, authors_per_year, papers_per_year,
                seed * venues + k, &in);
  }
  return in;
}

/// \brief Labelled RDF entity records (the Identica/Jamendo stand-ins):
/// each subject follows one of `templates` record templates (Zipf 0.6
/// popularity), a list of predicate fields whose object is either a
/// Zipf-popular member of a shared pool (types, tags, places) or a
/// fresh private literal node. Template sizes (3..7 fields) and which
/// fields point into a pool (4 in 9) follow a fixed pattern, and
/// entities take templates in a low-discrepancy sequence over the
/// popularity, so every id range (every shard) holds the same template
/// mix. The seed picks predicates, pools and members, not the record
/// shape statistics. Each entity is followed by its literals, so every
/// id range holds whole records.
inline Input RdfRecords(uint32_t entities, uint32_t predicates,
                        uint32_t templates, uint64_t seed) {
  Rng rng(seed);
  struct Field {
    uint32_t predicate;
    int pool;  // -1: private literal
  };
  const uint32_t kPools = 16;
  const uint32_t kPoolSize = 32;
  std::vector<std::vector<Field>> shapes(templates);
  uint32_t field_index = 0;
  for (uint32_t t = 0; t < templates; ++t) {
    uint32_t fields = 3 + t % 5;
    std::vector<uint32_t> preds;
    while (preds.size() < fields) {
      uint32_t p = static_cast<uint32_t>(rng.Below(predicates));
      if (std::find(preds.begin(), preds.end(), p) == preds.end()) {
        preds.push_back(p);
      }
    }
    for (uint32_t p : preds) {
      bool pooled = field_index++ % 9 < 4;
      int pool = pooled ? static_cast<int>(rng.Below(kPools)) : -1;
      shapes[t].push_back({p, pool});
    }
  }
  Zipf pick_shape(templates, 0.6);
  Zipf pick_member(kPoolSize, 1.1);
  Input in;
  in.num_labels = predicates;
  // Pool members first, then each entity followed by its literals.
  uint32_t next = kPools * kPoolSize;
  for (uint32_t e = 0; e < entities; ++e) {
    uint32_t subject = next++;
    double share = std::fmod(0.6180339887498949 * e, 1.0);
    for (const Field& f : shapes[pick_shape.At(share)]) {
      uint32_t object =
          f.pool >= 0 ? static_cast<uint32_t>(f.pool) * kPoolSize +
                            static_cast<uint32_t>(pick_member.Draw(&rng))
                      : next++;
      in.edges.push_back({subject, object, f.predicate});
    }
  }
  in.num_nodes = next;
  return in;
}

/// \brief The reference model: neighbour sets as sorted vectors, the
/// live (u, v) pairs, and edits applied with the overlay's documented
/// set semantics (an add joins the pair; a delete kills every label of
/// the pair).
class Reference {
 public:
  explicit Reference(const Input& in)
      : out_(in.num_nodes), in_(in.num_nodes) {
    for (const Edge& e : in.edges) Add(e.u, e.v);
  }

  uint32_t num_nodes() const { return static_cast<uint32_t>(out_.size()); }
  const std::vector<uint32_t>& Out(uint32_t v) const { return out_[v]; }
  const std::vector<uint32_t>& In(uint32_t v) const { return in_[v]; }

  void Add(uint32_t u, uint32_t v) {
    if (!pairs_.insert(PairKey(u, v)).second) return;
    Insert(&out_[u], v);
    Insert(&in_[v], u);
  }
  void Delete(uint32_t u, uint32_t v) {
    if (pairs_.erase(PairKey(u, v)) == 0) return;
    Erase(&out_[u], v);
    Erase(&in_[v], u);
  }

  /// \brief Plain BFS over the out-lists; `visited` is caller scratch
  /// (sized num_nodes, all zero on entry and on return).
  bool Reachable(uint32_t from, uint32_t to,
                 std::vector<uint8_t>* visited) const {
    if (from == to) return true;
    std::vector<uint32_t> frontier{from};
    std::vector<uint32_t> touched{from};
    (*visited)[from] = 1;
    bool found = false;
    for (size_t head = 0; head < frontier.size() && !found; ++head) {
      for (uint32_t w : out_[frontier[head]]) {
        if ((*visited)[w]) continue;
        if (w == to) {
          found = true;
          break;
        }
        (*visited)[w] = 1;
        touched.push_back(w);
        frontier.push_back(w);
      }
    }
    for (uint32_t w : touched) (*visited)[w] = 0;
    return found;
  }

 private:
  static void Insert(std::vector<uint32_t>* list, uint32_t x) {
    list->insert(std::lower_bound(list->begin(), list->end(), x), x);
  }
  static void Erase(std::vector<uint32_t>* list, uint32_t x) {
    auto it = std::lower_bound(list->begin(), list->end(), x);
    if (it != list->end() && *it == x) list->erase(it);
  }

  std::vector<std::vector<uint32_t>> out_;
  std::vector<std::vector<uint32_t>> in_;
  std::unordered_set<uint64_t> pairs_;
};

/// \brief Order-independent fingerprint of an edge multiset (label, u,
/// v): a sum of mixed 64-bit keys, so a reconstruction can be checked
/// without sorting it.
inline uint64_t MixEdge(uint32_t label, uint32_t u, uint32_t v) {
  uint64_t x = PairKey(u, v) ^ (label * 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline uint64_t Fingerprint(const std::vector<Edge>& edges) {
  uint64_t sum = 0;
  for (const Edge& e : edges) sum += MixEdge(e.label, e.u, e.v);
  return sum;
}

}  // namespace layerbench
}  // namespace grepair

#endif  // LAYERBENCH_GEN_H_
