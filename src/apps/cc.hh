/**
 * @file
 * SPEC-CC: speculative connected components by minimum-label
 * propagation. Not one of the paper's six benchmarks — it is the
 * "seventh app" demonstrating that the framework is
 * problem-independent: the whole design is a task set, one hazard
 * rule, and a dozen builder calls, structurally parallel to
 * SPEC-SSSP but over an unweighted, undirected relation.
 *
 * Label convention: every vertex converges to the minimum vertex id
 * of its component.
 */

#ifndef APIR_APPS_CC_HH
#define APIR_APPS_CC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "compile/accel_spec.hh"
#include "core/app_spec.hh"
#include "apps/graph_mem.hh"
#include "graph/csr.hh"

namespace apir {

/** Reference labels via depth-first search. */
std::vector<uint32_t> ccSequential(const CsrGraph &g);

/** Number of distinct components in a label array. */
uint32_t countComponents(const std::vector<uint32_t> &labels);

/** A built CC accelerator. */
struct CcAccel
{
    AcceleratorSpec spec;
    GraphImage img;
};

/** SPEC-CC accelerator design. */
CcAccel buildSpecCc(const CsrGraph &g, MemorySystem &mem);

/** Read labels back from accelerator memory. */
std::vector<uint32_t> readLabels(const GraphImage &img,
                                 const MemorySystem &mem);

/** Software-abstraction SPEC-CC (AppSpec). */
AppSpec specCcAppSpec(const CsrGraph &g,
                      std::shared_ptr<std::vector<uint32_t>> labels);

} // namespace apir

#endif // APIR_APPS_CC_HH
