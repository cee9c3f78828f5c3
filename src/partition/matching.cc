#include "partition/matching.hh"

#include <algorithm>
#include <tuple>

namespace cvliw
{

void
sortForMatching(std::vector<MatchEdge> &edges)
{
    std::sort(edges.begin(), edges.end(),
              [](const MatchEdge &x, const MatchEdge &y) {
                  return std::tie(y.weight, x.a, x.b) <
                         std::tie(x.weight, y.a, y.b);
              });
}

void
EdgeFolder::fold(std::vector<MatchEdge> &edges, int num_vertices)
{
    const auto verts = static_cast<std::size_t>(num_vertices);
    start_.assign(verts + 1, 0);
    for (const MatchEdge &e : edges)
        ++start_[static_cast<std::size_t>(e.a) + 1];
    for (std::size_t a = 0; a < verts; ++a)
        start_[a + 1] += start_[a];
    sorted_.resize(edges.size());
    for (const MatchEdge &e : edges)
        sorted_[static_cast<std::size_t>(start_[e.a]++)] = e;

    // Each `a` group is contiguous, so seen_[b] == a means this very
    // key was kept earlier in the group. The kept index never passes
    // the read index, so the fold runs in place.
    seen_.assign(verts, -1);
    slot_.resize(verts);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < sorted_.size(); ++i) {
        const MatchEdge e = sorted_[i];
        if (seen_[e.b] == e.a) {
            sorted_[static_cast<std::size_t>(slot_[e.b])].weight +=
                e.weight;
        } else {
            seen_[e.b] = e.a;
            slot_[e.b] = static_cast<int>(kept);
            sorted_[kept++] = e;
        }
    }
    sorted_.resize(kept);
    edges.swap(sorted_);
}

} // namespace cvliw
