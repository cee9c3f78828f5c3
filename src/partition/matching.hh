/**
 * @file
 * Greedy maximum-weight matching on a weighted contraction graph,
 * used by the coarsening phase (section 2.3.1, step 1: "a maximum
 * weight matching is identified").
 */

#ifndef CVLIW_PARTITION_MATCHING_HH
#define CVLIW_PARTITION_MATCHING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace cvliw
{

/** One candidate contraction edge between two coarse vertices. */
struct MatchEdge
{
    int a = 0;
    int b = 0;
    long long weight = 0;
};

/**
 * Sort @p edges into greedy visit order: decreasing weight, ties
 * broken by endpoint ids for determinism.
 */
void sortForMatching(std::vector<MatchEdge> &edges);

/**
 * Folds parallel contraction edges into one edge per (a, b) key with
 * the summed weight, in one O(E + V) bucket pass: a counting sort by
 * `a`, then a first-seen slot per `b` within each `a` group. The
 * output is grouped by ascending `a`, each group in the first-arrival
 * order of its `b`s. It is not sorted, but every key is unique, so
 * sortForMatching() orders it totally and the matching does not
 * depend on the order the edges came in; integer sums do not either.
 * The buffers are kept across calls.
 */
class EdgeFolder
{
  public:
    /** Fold @p edges, whose endpoints lie in [0, @p num_vertices). */
    void fold(std::vector<MatchEdge> &edges, int num_vertices);

  private:
    std::vector<int> start_;        //!< per `a`: scatter cursor
    std::vector<int> seen_;         //!< per `b`: last `a` group seen
    std::vector<int> slot_;         //!< per `b`: its kept index there
    std::vector<MatchEdge> sorted_; //!< edges grouped by `a`
};

/**
 * Greedy matching over @p edges already in sortForMatching() order:
 * an edge is matched when both endpoints are free and @p feasible
 * allows the pair. Stops after @p limit pairs; the pairs found are
 * those of an unlimited run, truncated, because later edges never
 * unmatch earlier ones.
 *
 * @param matched per-vertex flags, all zero on entry and at least as
 *        large as the largest endpoint
 * @param pairs receives the matched pairs (cleared first)
 */
template <typename Feasible>
void
matchSorted(const std::vector<MatchEdge> &edges, std::size_t limit,
            const Feasible &feasible, std::vector<char> &matched,
            std::vector<std::pair<int, int>> &pairs)
{
    pairs.clear();
    for (const MatchEdge &e : edges) {
        if (pairs.size() >= limit)
            break;
        if (e.a == e.b || matched[e.a] || matched[e.b])
            continue;
        if (!feasible(e.a, e.b))
            continue;
        matched[e.a] = matched[e.b] = 1;
        pairs.emplace_back(e.a, e.b);
    }
}

/**
 * Greedy maximum-weight matching: edges are visited by decreasing
 * weight (ties broken by endpoint ids for determinism) and matched
 * when both endpoints are free and @p feasible allows the pair.
 *
 * @param num_vertices number of coarse vertices
 * @param edges candidate edges (parallel edges allowed; weights of
 *        duplicates should be pre-accumulated by the caller)
 * @param feasible predicate deciding whether contracting (a, b) is
 *        allowed (e.g. resource-capacity check)
 * @return matched pairs
 */
template <typename Feasible>
std::vector<std::pair<int, int>>
greedyMatching(int num_vertices, std::vector<MatchEdge> edges,
               const Feasible &feasible)
{
    sortForMatching(edges);
    std::vector<char> matched(static_cast<std::size_t>(num_vertices), 0);
    std::vector<std::pair<int, int>> pairs;
    matchSorted(edges, edges.size(), feasible, matched, pairs);
    return pairs;
}

} // namespace cvliw

#endif // CVLIW_PARTITION_MATCHING_HH
