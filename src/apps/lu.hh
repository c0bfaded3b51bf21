/**
 * @file
 * COOR-LU: coordinative sparse blocked LU factorization (Section 6.1,
 * after the BOTS sparselu kernel and kinetic-dependence-graph
 * scheduling). Block operations (factor / trsm / gemm) are tasks;
 * successors are activated as their dependences resolve, and a
 * coordination rule orders phases through the otherwise trigger so
 * every block collision is excluded at runtime without barriers.
 */

#ifndef APIR_APPS_LU_HH
#define APIR_APPS_LU_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "compile/accel_spec.hh"
#include "core/app_spec.hh"
#include "mem/memsys.hh"
#include "sparse/block_sparse.hh"

namespace apir {

/** Block-operation kinds, in payload word 0. */
enum LuOpType : Word {
    kLuFactor = 0,
    kLuTrsmRow = 1, //!< solve across block row k (right of diagonal)
    kLuTrsmCol = 2, //!< solve down block column k (below diagonal)
    kLuGemm = 3,
};

/** Functional state shared with the accelerator pipelines. */
struct LuState
{
    BlockSparseMatrix a{1, 1};
    std::vector<uint32_t> trsmLeft;
    std::vector<uint32_t> gemmLeft;
    LuOpCounts ops;
    /** Successor ops produced by each commit, by token serial. */
    std::unordered_map<uint64_t,
                       std::vector<std::array<Word, 4>>> produced;
};

/** A built LU accelerator. */
struct LuAccel
{
    AcceleratorSpec spec;
    std::shared_ptr<LuState> state;
    uint64_t blockBase = 0;
    uint64_t blockWords = 0; //!< words per block
};

/**
 * COOR-LU accelerator design; the matrix is moved into the returned
 * state and factored in place there.
 */
LuAccel buildCoorLu(BlockSparseMatrix a, MemorySystem &mem);

/**
 * Software-abstraction COOR-LU (AppSpec) factoring the matrix held
 * in `state` (set state->a before running).
 */
AppSpec coorLuAppSpec(std::shared_ptr<LuState> state);

} // namespace apir

#endif // APIR_APPS_LU_HH
