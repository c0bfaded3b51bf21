/**
 * @file
 * Breadth-first search, the paper's motivating benchmark, in all its
 * forms:
 *
 *  - bfsSequential():       the Figure 1(a) reference algorithm (Fig.
 *                           9's native column; the Xeon columns come
 *                           from cpumodel/xeon_model.hh);
 *  - buildSpecBfs():        SPEC-BFS accelerator (Section 4.2's
 *                           speculative rule, squash on conflicting
 *                           earlier writes);
 *  - buildCoorBfs():        COOR-BFS accelerator (level-ordered
 *                           coordination via the otherwise trigger);
 *  - specBfsAppSpec() /
 *    coorBfsAppSpec():      the same designs in the pure-software
 *                           abstraction (core/), for the debugging
 *                           runtimes.
 *
 * Level convention: Level[root] = 0; unreached = kInfDistance.
 */

#ifndef APIR_APPS_BFS_HH
#define APIR_APPS_BFS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "compile/accel_spec.hh"
#include "core/app_spec.hh"
#include "apps/graph_mem.hh"
#include "graph/csr.hh"

namespace apir {

/** Sequential BFS (Figure 1(a)). */
std::vector<uint32_t> bfsSequential(const CsrGraph &g, VertexId root);

/** A built accelerator application: spec + the image it references. */
struct BfsAccel
{
    AcceleratorSpec spec;
    GraphImage img;
};

/** SPEC-BFS accelerator design (two task sets, speculative rule). */
BfsAccel buildSpecBfs(const CsrGraph &g, VertexId root, MemorySystem &mem);

/** COOR-BFS accelerator design (one task set, level coordination). */
BfsAccel buildCoorBfs(const CsrGraph &g, VertexId root, MemorySystem &mem);

/** Read the level array back from accelerator memory. */
std::vector<uint32_t> readLevels(const GraphImage &img,
                                 const MemorySystem &mem);

/**
 * Software-abstraction versions (AppSpec) operating on a host-side
 * level array; `levels` must outlive execution.
 */
AppSpec specBfsAppSpec(const CsrGraph &g, VertexId root,
                       std::shared_ptr<std::vector<uint32_t>> levels);
AppSpec coorBfsAppSpec(const CsrGraph &g, VertexId root,
                       std::shared_ptr<std::vector<uint32_t>> levels);

} // namespace apir

#endif // APIR_APPS_BFS_HH
