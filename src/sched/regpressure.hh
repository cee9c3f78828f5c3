/**
 * @file
 * Register pressure (MaxLive) of a modulo schedule. A value is live
 * from its definition (start + latency; bus arrival for copies) to
 * its last use (consumer start + II * distance). Lifetimes longer
 * than the II overlap with later iterations of themselves, which the
 * modulo accumulation accounts for. A partition whose MaxLive exceeds
 * the per-cluster register count forces II to increase with cause
 * "registers" (Figure 1).
 *
 * Starts may be negative: the scheduler measures its schedule before
 * it normalizes the starts into [0, II). A value gets a live range
 * only from its actual readers (same-cluster RegFlow consumers; for a
 * copy, the consumers in each remote cluster); a value nobody reads
 * occupies no register. MaxLive depends only on the modulo phases of
 * the ranges, so shifting every start by a whole number of IIs leaves
 * it unchanged - the scheduler relies on that to reuse the figure it
 * measured before normalizing.
 */

#ifndef CVLIW_SCHED_REGPRESSURE_HH
#define CVLIW_SCHED_REGPRESSURE_HH

#include <vector>

#include "ddg/ddg.hh"
#include "partition/partition.hh"

namespace cvliw
{

/**
 * MaxLive per cluster for the schedule @p start at interval @p ii.
 * @param start absolute start cycle per NodeId (live nodes only; any
 *        integer, see the file comment)
 */
std::vector<int> computeMaxLive(const Ddg &ddg,
                                const MachineConfig &mach,
                                const Partition &part,
                                const std::vector<int> &start, int ii);

/** Buffers of computeMaxLive, reused across calls. */
struct MaxLiveScratch
{
    std::vector<int> diff; //!< per cluster: II + 1 circular deltas
    std::vector<int> last; //!< per cluster: a copy's last read
};

/**
 * Same, writing into @p max_live and reusing @p scratch. Each live
 * range adds its whole turns (length / II) to its cluster's base and
 * its remainder as a circular +1/-1 pair to a difference array, so
 * the cost is O(V + E + clusters * II) whatever the lifetimes.
 */
void computeMaxLive(const Ddg &ddg, const MachineConfig &mach,
                    const Partition &part,
                    const std::vector<int> &start, int ii,
                    MaxLiveScratch &scratch,
                    std::vector<int> &max_live);

} // namespace cvliw

#endif // CVLIW_SCHED_REGPRESSURE_HH
