/**
 * @file
 * Reader/writer for the DIMACS shortest-path challenge format
 * (the format of the USA road graphs the paper evaluates on), so real
 * inputs can be dropped in when available.
 *
 * Format: comment lines start with 'c'; one "p sp <n> <m>" problem
 * line; arc lines "a <src> <dst> <weight>" with 1-based vertex ids.
 */

#ifndef APIR_GRAPH_DIMACS_HH
#define APIR_GRAPH_DIMACS_HH

#include <iosfwd>
#include <string>

#include "graph/csr.hh"

namespace apir {

/** Parse a DIMACS-sp graph from a stream. Throws fatal() on errors. */
CsrGraph readDimacs(std::istream &in);

/** Write a graph in DIMACS-sp format. */
void writeDimacs(const CsrGraph &g, std::ostream &out);

} // namespace apir

#endif // APIR_GRAPH_DIMACS_HH
