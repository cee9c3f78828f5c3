/**
 * @file
 * Copy insertion (section 2.3.2: "the new instructions needed to
 * carry out the communications in the clustered architecture are
 * added to the DDG"). One Copy node is created per communicated
 * value; it broadcasts on a bus, so all remote consumers are rewired
 * to the single copy.
 */

#ifndef CVLIW_SCHED_COPIES_HH
#define CVLIW_SCHED_COPIES_HH

#include <vector>

#include "ddg/ddg.hh"
#include "partition/partition.hh"

namespace cvliw
{

/** Result of copy insertion. */
struct CopyInsertion
{
    std::vector<NodeId> copies;     //!< new Copy nodes
    std::vector<NodeId> producerOf; //!< parallel: value producer
};

struct CommInfo;

/**
 * Insert one Copy per communicated value of @p ddg under @p part, and
 * rewire all cross-cluster flow edges through it. The copy lives in
 * the producer's cluster (it reads the source register there and
 * drives the bus).
 */
CopyInsertion insertCopies(Ddg &ddg, Partition &part,
                           const MachineConfig &mach);

/**
 * insertCopies() for a caller that already holds the communications:
 * @p comms must be exactly findCommunications() of (@p ddg, @p part)
 * - the replication pass hands its final CommInfo back for this - so
 * the graph is not scanned again. @p comms describes the graph before
 * the copies and is stale afterwards.
 */
CopyInsertion insertCopies(Ddg &ddg, Partition &part,
                           const MachineConfig &mach,
                           const CommInfo &comms);

} // namespace cvliw

#endif // CVLIW_SCHED_COPIES_HH
