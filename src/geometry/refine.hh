/**
 * @file
 * The single-step primitive of Delaunay mesh refinement (DMR): fix one
 * bad triangle by inserting its circumcenter and retriangulating the
 * cavity. Both the sequential reference and the accelerator-side
 * functional model call this; conflict detection between concurrent
 * refinements compares cavities.
 */

#ifndef APIR_GEOMETRY_REFINE_HH
#define APIR_GEOMETRY_REFINE_HH

#include <vector>

#include "geometry/mesh.hh"

namespace apir {

/** Result of refining one triangle. */
struct RefineResult
{
    bool applied = false;          //!< false: stale task or center outside
    std::vector<TriId> cavity;     //!< triangles consumed
    std::vector<TriId> created;    //!< triangles produced
    std::vector<TriId> newBad;     //!< created triangles that are bad
};

/** Parameters controlling refinement quality and termination. */
struct RefineParams
{
    double minAngleRad = 0.45;     //!< ~26 degrees
    double minArea = 2e-7;         //!< area floor guaranteeing termination
};

/** Refine bad triangle t in place. */
RefineResult refineTriangle(Mesh &mesh, TriId t, const RefineParams &params);

/**
 * Run refinement to completion with a sequential FIFO worklist.
 * Returns the number of refinements applied.
 */
uint64_t refineMesh(Mesh &mesh, const RefineParams &params);

} // namespace apir

#endif // APIR_GEOMETRY_REFINE_HH
