#include "partition/refine.hh"

#include "support/logging.hh"

namespace cvliw
{

Partition
refinePartition(const Ddg &ddg, const MachineConfig &mach,
                const Partition &initial, int ii,
                PseudoScratch *scratch, int max_passes,
                AnalysisCache *analyses)
{
    if (mach.numClusters() == 1)
        return initial;

    PseudoScratch local;
    PseudoScratch &s = scratch ? *scratch : local;

    Partition part = initial;
    // bind() seeds the incremental move-evaluation state and returns
    // the from-scratch result of the starting assignment.
    PseudoResult best = s.bind(ddg, mach, part.vec(), ii, analyses);

    const auto live = ddg.nodes();
    // Visit index of the previous pass's last commit (see refine.hh).
    int prev_last_commit = -1;
    for (int pass = 0; pass < max_passes; ++pass) {
        int last_commit = -1;
        int idx = -1;
        for (NodeId n : live) {
            ++idx;
            if (pass > 0 && last_commit < 0 && idx > prev_last_commit)
                break;
            if (ddg.node(n).cls == OpClass::Copy)
                continue;
            const int home = s.assignment()[n];
            int best_cluster = home;
            for (int c = 0; c < mach.numClusters(); ++c) {
                if (c == home || c == best_cluster)
                    continue;
                PseudoResult r;
                if (s.probeMove(n, c, best, r)) {
                    best = r;
                    best_cluster = c;
                }
            }
            if (best_cluster != home) {
                s.commitMove(n, best_cluster);
                last_commit = idx;
            }
        }
        if (last_commit < 0)
            break;
        prev_last_commit = last_commit;
    }

    for (NodeId n : live)
        part.assign(n, s.assignment()[n]);
    return part;
}

} // namespace cvliw
