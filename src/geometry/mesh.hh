/**
 * @file
 * Triangle mesh with full adjacency, incremental Delaunay insertion
 * (Bowyer-Watson), and the cavity operations Delaunay mesh refinement
 * is built from.
 *
 * Triangles store their three vertex ids in CCW order plus the id of
 * the neighbor opposite each vertex. Deleted triangles are tombstoned
 * ("not alive") rather than erased so triangle ids stay stable — the
 * refinement benchmarks identify tasks by triangle id.
 */

#ifndef APIR_GEOMETRY_MESH_HH
#define APIR_GEOMETRY_MESH_HH

#include <cstdint>
#include <vector>

#include "geometry/point.hh"

namespace apir {

using TriId = uint32_t;
inline constexpr TriId kNoTri = 0xffffffffu;

/** One triangle: CCW vertices and opposite neighbors. */
struct Triangle
{
    uint32_t v[3];
    TriId nbr[3]; // nbr[i] shares edge (v[(i+1)%3], v[(i+2)%3])
    bool alive = true;

    /** Checkpoint field list (the struct has padding). */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        ar(v[0], v[1], v[2], nbr[0], nbr[1], nbr[2], alive);
    }
};

/**
 * A 2-D triangulation of a convex region (the bounding square of the
 * input points; its four corners are part of the mesh).
 */
class Mesh
{
  public:
    /** Start from the two triangles of the bounding box [lo,hi]^2. */
    Mesh(double lo, double hi);

    const std::vector<Point> &points() const { return points_; }
    const std::vector<Triangle> &triangles() const { return tris_; }
    const Point &point(uint32_t v) const { return points_[v]; }
    const Triangle &triangle(TriId t) const { return tris_[t]; }
    bool alive(TriId t) const { return tris_[t].alive; }

    /** Number of non-tombstoned triangles. */
    uint32_t numAliveTriangles() const { return numAlive_; }

    /**
     * Replace the whole triangulation with previously captured state
     * (checkpoint restore). The alive count is recomputed; no
     * geometric checks are performed — the caller is trusted to hand
     * back exactly what points()/triangles() returned.
     */
    void restoreTopology(std::vector<Point> points,
                         std::vector<Triangle> tris);

    /** Append a vertex (no triangulation update). */
    uint32_t addPoint(const Point &p);

    /**
     * Locate an alive triangle containing p by walking from hint.
     * Returns kNoTri if p is outside the triangulated region.
     */
    TriId locate(const Point &p, TriId hint = 0) const;

    /**
     * The Bowyer-Watson cavity of p seeded at triangle seed: the
     * connected set of alive triangles whose circumcircle contains p.
     * seed must contain p (or at least be in the cavity).
     */
    std::vector<TriId> cavity(const Point &p, TriId seed) const;

    /**
     * Retriangulate a cavity around new vertex v (already added via
     * addPoint). Removes the cavity triangles and fans new triangles
     * from v to the cavity boundary. Returns the new triangle ids.
     */
    std::vector<TriId> retriangulate(uint32_t v,
                                     const std::vector<TriId> &cav);

    /** Insert point p into the triangulation. Returns new triangles. */
    std::vector<TriId> insertPoint(const Point &p, TriId hint = 0);

    /** True if p is inside (or on) the mesh bounding box. */
    bool
    inDomain(const Point &p) const
    {
        return p.x >= lo_ && p.x <= hi_ && p.y >= lo_ && p.y <= hi_;
    }

    /** Check structural invariants; panics on violation. */
    void checkConsistency() const;

    /** True if every alive triangle is locally Delaunay. */
    bool isDelaunay() const;

  private:
    TriId newTriangle(uint32_t a, uint32_t b, uint32_t c);
    void link(TriId t, int side, TriId u);

    double lo_, hi_;
    std::vector<Point> points_;
    std::vector<Triangle> tris_;
    uint32_t numAlive_ = 0;
};

/**
 * Build a Delaunay triangulation of n jittered-random points in the
 * unit square (plus the four corners).
 */
Mesh randomDelaunayMesh(uint32_t num_points, uint64_t seed = 1);

/** A triangle is "bad" if its minimum angle is below threshold. */
bool isBadTriangle(const Mesh &mesh, TriId t, double min_angle_rad,
                   double min_area = 1e-8);

/** All bad alive triangles of a mesh. */
std::vector<TriId> findBadTriangles(const Mesh &mesh, double min_angle_rad,
                                    double min_area = 1e-8);

} // namespace apir

#endif // APIR_GEOMETRY_MESH_HH
