/**
 * @file
 * SPEC-MST: speculative Kruskal minimum spanning tree (Section 6.1,
 * after Blelloch et al.). Edges are sorted by weight and fired
 * speculatively; a rule squashes an edge whose endpoint overlaps a
 * smaller in-flight edge (the squashed edge retries). Union-find
 * commits are applied in strict weight order by a ticket check at the
 * commit stage, so the resulting tree is exactly Kruskal's.
 */

#ifndef APIR_APPS_MST_HH
#define APIR_APPS_MST_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "compile/accel_spec.hh"
#include "core/app_spec.hh"
#include "graph/csr.hh"
#include "mem/memsys.hh"

namespace apir {

/** MST result: total weight and edge count (forest if disconnected). */
struct MstResult
{
    uint64_t totalWeight = 0;
    uint64_t edgesInTree = 0;
};

/** Sequential Kruskal reference. */
MstResult mstSequential(const CsrGraph &g);

/** Functional union-find + commit ticket shared with the pipelines. */
struct MstState
{
    std::vector<uint32_t> parent;
    uint64_t nextTicket = 0;
    MstResult result;

    uint32_t
    find(uint32_t x)
    {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        return x;
    }
};

/** A built MST accelerator. */
struct MstAccel
{
    AcceleratorSpec spec;
    std::shared_ptr<MstState> state;
    uint64_t parentBase = 0; //!< parent array in accelerator memory
};

/** SPEC-MST accelerator design. */
MstAccel buildSpecMst(const CsrGraph &g, MemorySystem &mem);

/**
 * Software-abstraction SPEC-MST (AppSpec) for the core/ runtimes,
 * operating on a shared MstState.
 */
AppSpec specMstAppSpec(const CsrGraph &g, std::shared_ptr<MstState> state);

} // namespace apir

#endif // APIR_APPS_MST_HH
