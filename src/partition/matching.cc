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

} // namespace cvliw
