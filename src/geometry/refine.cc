#include "geometry/refine.hh"

#include <deque>

#include "support/logging.hh"

namespace apir {

namespace {

/**
 * The cavity the refinement of t would consume; empty when t is
 * stale, not bad, or its circumcenter falls outside the domain.
 */
std::vector<TriId>
refinementCavity(const Mesh &mesh, TriId t, const RefineParams &params)
{
    if (t >= mesh.triangles().size() || !mesh.alive(t))
        return {};
    if (!isBadTriangle(mesh, t, params.minAngleRad, params.minArea))
        return {};
    const Triangle &tri = mesh.triangle(t);
    Point cc = circumcenter(mesh.point(tri.v[0]), mesh.point(tri.v[1]),
                            mesh.point(tri.v[2]));
    if (!mesh.inDomain(cc))
        return {};
    return mesh.cavity(cc, t);
}

} // namespace

RefineResult
refineTriangle(Mesh &mesh, TriId t, const RefineParams &params)
{
    RefineResult res;
    auto cav = refinementCavity(mesh, t, params);
    if (cav.empty())
        return res;
    const Triangle &tri = mesh.triangle(t);
    Point cc = circumcenter(mesh.point(tri.v[0]), mesh.point(tri.v[1]),
                            mesh.point(tri.v[2]));
    uint32_t v = mesh.addPoint(cc);
    res.created = mesh.retriangulate(v, cav);
    res.cavity = std::move(cav);
    res.applied = true;
    for (TriId nt : res.created)
        if (isBadTriangle(mesh, nt, params.minAngleRad, params.minArea))
            res.newBad.push_back(nt);
    return res;
}

uint64_t
refineMesh(Mesh &mesh, const RefineParams &params)
{
    std::deque<TriId> work;
    for (TriId t : findBadTriangles(mesh, params.minAngleRad,
                                    params.minArea))
        work.push_back(t);
    uint64_t applied = 0;
    while (!work.empty()) {
        TriId t = work.front();
        work.pop_front();
        auto res = refineTriangle(mesh, t, params);
        if (res.applied) {
            ++applied;
            for (TriId nb : res.newBad)
                work.push_back(nb);
        }
    }
    return applied;
}

} // namespace apir
