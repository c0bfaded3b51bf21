/**
 * @file
 * SPEC-SSSP: speculative single-source shortest paths over
 * Bellman-Ford relaxations (Section 6.1). Each Relax task updates a
 * vertex with the minimum of its current distance and the distance
 * induced by a neighbor; a rule broadcasts committing distances so
 * in-flight tasks that can no longer improve a vertex squash early.
 *
 * Distance convention: dist[root] = 0; unreached = kInfDistance.
 */

#ifndef APIR_APPS_SSSP_HH
#define APIR_APPS_SSSP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "compile/accel_spec.hh"
#include "core/app_spec.hh"
#include "apps/graph_mem.hh"
#include "graph/csr.hh"

namespace apir {

/** Dijkstra reference distances. */
std::vector<uint32_t> ssspSequential(const CsrGraph &g, VertexId root);

/** A built SSSP accelerator. */
struct SsspAccel
{
    AcceleratorSpec spec;
    GraphImage img;
};

/**
 * Task-scheduling policy of the generated SSSP — the
 * ordered/unordered spectrum of Hassaan et al. [21]:
 *  - Unordered: FIFO queues, pure speculative Bellman-Ford (floods
 *    pipelines with dominated relaxations at scale);
 *  - Bucketed:  heap queue ordered by distance/256, delta-stepping
 *    style (the shipped default);
 *  - Strict:    heap queue ordered by exact distance, Dijkstra-like
 *    (minimal work, least parallelism).
 */
enum class SsspOrdering { Unordered, Bucketed, Strict };

/** SPEC-SSSP accelerator design. */
SsspAccel buildSpecSssp(const CsrGraph &g, VertexId root,
                        MemorySystem &mem,
                        SsspOrdering ordering = SsspOrdering::Bucketed);

/** Read distances back from accelerator memory. */
std::vector<uint32_t> readDistances(const GraphImage &img,
                                    const MemorySystem &mem);

/** Software-abstraction SPEC-SSSP (AppSpec). */
AppSpec specSsspAppSpec(const CsrGraph &g, VertexId root,
                        std::shared_ptr<std::vector<uint32_t>> dist);

} // namespace apir

#endif // APIR_APPS_SSSP_HH
