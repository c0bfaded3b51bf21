/**
 * @file
 * SPEC-DMR: speculative Delaunay mesh refinement (Section 6.1, after
 * Kulkarni et al.). Bad triangles are tasks; a rule squashes a
 * refinement whose cavity may overlap an earlier in-flight one
 * (detected by circumcenter-cell adjacency, the small-field conflict
 * test a hardware rule engine can evaluate); squashed tasks retry and
 * stale tasks die at commit, where the mesh transformation is applied
 * functionally and revalidated.
 */

#ifndef APIR_APPS_DMR_HH
#define APIR_APPS_DMR_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "compile/accel_spec.hh"
#include "core/app_spec.hh"
#include "geometry/refine.hh"
#include "mem/memsys.hh"

namespace apir {

/** Outcome of refining a mesh. */
struct DmrResult
{
    uint64_t refinements = 0;   //!< cavity retriangulations applied
    uint32_t aliveTriangles = 0;
    uint32_t remainingBad = 0;  //!< must be 0 on success
};

/** Sequential FIFO-worklist refinement (geometry/refine.hh). */
DmrResult dmrSequential(Mesh &mesh, const RefineParams &params);

/** Functional state shared with the accelerator pipelines. */
struct DmrState
{
    Mesh mesh{0.0, 1.0};
    RefineParams params;
    uint64_t applied = 0;
    /** New bad triangles produced by each commit, by token serial. */
    std::unordered_map<uint64_t, std::vector<TriId>> produced;
};

/** A built DMR accelerator. */
struct DmrAccel
{
    AcceleratorSpec spec;
    std::shared_ptr<DmrState> state;
    uint64_t recordBase = 0;  //!< triangle records in device memory
    uint64_t recordWords = 0;
};

/**
 * SPEC-DMR accelerator design. The mesh is moved into the returned
 * state; read it back from there after the run.
 */
DmrAccel buildSpecDmr(Mesh mesh, const RefineParams &params,
                      MemorySystem &mem);

/**
 * Software-abstraction SPEC-DMR (AppSpec) refining the mesh held in
 * `state` (set state->mesh and state->params before running).
 */
AppSpec specDmrAppSpec(std::shared_ptr<DmrState> state);

/** Summarize a refined mesh. */
DmrResult summarizeMesh(const Mesh &mesh, const RefineParams &params,
                        uint64_t applied);

} // namespace apir

#endif // APIR_APPS_DMR_HH
