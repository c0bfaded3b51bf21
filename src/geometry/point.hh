/**
 * @file
 * Plain 2-D points and the geometric predicates used by the Delaunay
 * triangulator: orientation and in-circumcircle tests.
 *
 * Predicates use straight double arithmetic with a relative epsilon
 * guard; inputs in apir are synthetic points drawn away from
 * degeneracy (jittered), for which this is sufficient.
 */

#ifndef APIR_GEOMETRY_POINT_HH
#define APIR_GEOMETRY_POINT_HH

#include <cmath>
#include <cstdint>

namespace apir {

/** A point in the plane. */
struct Point
{
    double x = 0.0;
    double y = 0.0;

    friend Point
    operator-(const Point &a, const Point &b)
    {
        return {a.x - b.x, a.y - b.y};
    }

    friend bool
    operator==(const Point &a, const Point &b)
    {
        return a.x == b.x && a.y == b.y;
    }

    /** Checkpoint field list. */
    template <typename Ar>
    void serialize(Ar &ar) { ar(x, y); }
};

/** Squared Euclidean distance. */
inline double
distSq(const Point &a, const Point &b)
{
    double dx = a.x - b.x, dy = a.y - b.y;
    return dx * dx + dy * dy;
}

/**
 * Twice the signed area of triangle (a, b, c): positive when the
 * points wind counter-clockwise.
 */
double orient2d(const Point &a, const Point &b, const Point &c);

/**
 * In-circumcircle predicate for CCW triangle (a, b, c): positive when
 * d lies strictly inside the circumcircle.
 */
double inCircle(const Point &a, const Point &b, const Point &c,
                const Point &d);

/** Circumcenter of triangle (a, b, c). Triangle must not be flat. */
Point circumcenter(const Point &a, const Point &b, const Point &c);

/** Minimum interior angle of triangle (a, b, c), in radians. */
double minAngle(const Point &a, const Point &b, const Point &c);

} // namespace apir

#endif // APIR_GEOMETRY_POINT_HH
