#include "core/weights.hh"

#include <algorithm>
#include <cstdint>

#include "support/logging.hh"

namespace cvliw
{

namespace
{

constexpr auto numKinds =
    static_cast<std::size_t>(ResourceKind::NumResourceKinds);

/** Flat [kind * clusters + c] index. */
std::size_t
cell(std::size_t kind, int clusters, int c)
{
    return kind * static_cast<std::size_t>(clusters) +
           static_cast<std::size_t>(c);
}

/**
 * Exact sum of fractions num/den, kept as one integer numerator per
 * distinct denominator and combined into a Rational only by value():
 * a weight has a handful of distinct denominators (units * II *
 * share), so this replaces a normalizing Rational addition per term
 * with an integer addition.
 */
class FractionSum
{
  public:
    void add(std::int64_t num, std::int64_t den)
    {
        for (int i = 0; i < used_; ++i) {
            if (den_[i] == den) {
                num_[i] += num;
                return;
            }
        }
        if (used_ == slots_)
            fold();
        num_[used_] = num;
        den_[used_] = den;
        ++used_;
    }

    Rational value()
    {
        fold();
        return total_;
    }

  private:
    void fold()
    {
        for (int i = 0; i < used_; ++i)
            total_ += Rational(num_[i], den_[i]);
        used_ = 0;
    }

    static constexpr int slots_ = 8;
    std::int64_t num_[slots_] = {};
    std::int64_t den_[slots_] = {};
    int used_ = 0;
    Rational total_;
};

/** Flatten Partition::usage's nested vectors. */
void
flatten(const std::vector<std::vector<int>> &nested, int clusters,
        std::vector<int> &out)
{
    out.assign(numKinds * static_cast<std::size_t>(clusters), 0);
    for (std::size_t k = 0; k < numKinds; ++k) {
        for (int c = 0; c < clusters; ++c)
            out[cell(k, clusters, c)] = nested[k][c];
    }
}

} // namespace

void
extraOps(const Ddg &ddg, const MachineConfig &mach,
         const ReplicationSubgraph &sg, std::vector<int> &out)
{
    const int clusters = mach.numClusters();
    out.assign(numKinds * static_cast<std::size_t>(clusters), 0);
    for (std::size_t i = 0; i < sg.replicaNodes.size(); ++i) {
        const auto k = static_cast<std::size_t>(
            mach.resourceFor(ddg.node(sg.replicaNodes[i]).cls));
        ++out[cell(k, clusters, sg.replicaClusters[i])];
    }
}

bool
replicationFeasible(const MachineConfig &mach, int ii,
                    const std::vector<int> &usage,
                    const std::vector<int> &extra)
{
    const int clusters = mach.numClusters();
    for (std::size_t k = 0; k < numKinds; ++k) {
        const auto kind = static_cast<ResourceKind>(k);
        if (kind == ResourceKind::Bus)
            continue;
        for (int c = 0; c < clusters; ++c) {
            const int x = extra[cell(k, clusters, c)];
            if (x == 0)
                continue;
            const int avail = mach.available(kind);
            if (avail == 0 ||
                usage[cell(k, clusters, c)] + x > avail * ii)
                return false;
        }
    }
    return true;
}

Rational
subgraphWeight(const Ddg &ddg, const MachineConfig &mach, int ii,
               const ReplicationSubgraph &sg, const ShareTable &share,
               const std::vector<NodeId> &removable,
               const std::vector<int> &usage,
               const std::vector<int> &extra)
{
    const int clusters = mach.numClusters();
    FractionSum weight;

    for (std::size_t i = 0; i < sg.replicaNodes.size(); ++i) {
        const NodeId v = sg.replicaNodes[i];
        const int c = sg.replicaClusters[i];
        const ResourceKind res = mach.resourceFor(ddg.node(v).cls);
        const int avail = mach.available(res);
        if (avail == 0) {
            // No unit of this kind: infeasible, represented by a
            // huge weight (feasibility is reported separately).
            weight.add(1000000, 1);
            continue;
        }
        // Sharing: a copy of v in c serves every subgraph that
        // needs it there (section 3.3, second formula).
        const int shared = share.share(v, c);
        cv_assert(shared >= 1, "subgraph not in its own pool");
        const std::size_t k = static_cast<std::size_t>(res);
        weight.add(usage[cell(k, clusters, c)] +
                       extra[cell(k, clusters, c)],
                   static_cast<std::int64_t>(avail) * ii * shared);
    }

    // Credit for instructions that can eventually be removed from
    // com's cluster: one slot of their resource per II each.
    for (NodeId u : removable) {
        const int avail =
            mach.available(mach.resourceFor(ddg.node(u).cls));
        if (avail == 0)
            continue;
        weight.add(-1, static_cast<std::int64_t>(avail) * ii);
    }

    return weight.value();
}

Rational
subgraphWeight(const Ddg &ddg, const MachineConfig &mach,
               const Partition &part, int ii,
               const ReplicationSubgraph &sg,
               const std::vector<ReplicationSubgraph> &all,
               const std::vector<NodeId> &removable,
               const std::vector<std::vector<int>> *usage_in)
{
    std::vector<int> usage;
    if (usage_in)
        flatten(*usage_in, mach.numClusters(), usage);
    else
        part.usage(ddg, mach, usage);
    std::vector<int> extra;
    extraOps(ddg, mach, sg, extra);
    ShareTable share;
    share.build(all, ddg.numNodeSlots(), mach.numClusters());
    return subgraphWeight(ddg, mach, ii, sg, share, removable, usage,
                          extra);
}

bool
replicationFeasible(const Ddg &ddg, const MachineConfig &mach,
                    const Partition &part, int ii,
                    const ReplicationSubgraph &sg,
                    const std::vector<std::vector<int>> *usage_in)
{
    std::vector<int> usage;
    if (usage_in)
        flatten(*usage_in, mach.numClusters(), usage);
    else
        part.usage(ddg, mach, usage);
    std::vector<int> extra;
    extraOps(ddg, mach, sg, extra);
    return replicationFeasible(mach, ii, usage, extra);
}

} // namespace cvliw
