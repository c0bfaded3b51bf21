#include "apps/lu.hh"

#include "bdfg/builder.hh"
#include "support/logging.hh"

namespace apir {

namespace {

/** Order: factor(k) < trsm(k,*) < gemm(*,*,k) < factor(k+1) < ... */
uint64_t
luOrderKey(Word type, Word k)
{
    Word phase = (type == kLuFactor) ? 0 : (type == kLuGemm ? 2 : 1);
    return k * 3 + phase;
}

/**
 * Apply one block operation to the matrix and compute its successor
 * operations (the kinetic dependence expansion).
 */
std::vector<std::array<Word, 4>>
applyBlockOp(LuState &s, Word type, uint32_t k, uint32_t i, uint32_t j)
{
    BlockSparseMatrix &a = s.a;
    const uint32_t n = a.numBlockRows();
    std::vector<std::array<Word, 4>> succ;

    auto enqueue_factor_next = [&](uint32_t kk) {
        if (kk + 1 < n)
            succ.push_back({kLuFactor, kk + 1, kk + 1, kk + 1});
    };

    switch (type) {
      case kLuFactor: {
        luFactor(a.block(k, k));
        ++s.ops.factor;
        uint32_t trsms = 0;
        for (uint32_t jj = k + 1; jj < n; ++jj) {
            if (a.present(k, jj)) {
                succ.push_back({kLuTrsmRow, k, k, jj});
                ++trsms;
            }
        }
        for (uint32_t ii = k + 1; ii < n; ++ii) {
            if (a.present(ii, k)) {
                succ.push_back({kLuTrsmCol, k, ii, k});
                ++trsms;
            }
        }
        s.trsmLeft[k] = trsms;
        if (trsms == 0)
            enqueue_factor_next(k);
        break;
      }
      case kLuTrsmRow:
      case kLuTrsmCol: {
        if (type == kLuTrsmRow)
            trsmLowerLeft(a.block(k, k), a.block(k, j));
        else
            trsmUpperRight(a.block(k, k), a.block(i, k));
        ++s.ops.trsm;
        APIR_ASSERT(s.trsmLeft[k] > 0, "trsm accounting underflow");
        if (--s.trsmLeft[k] == 0) {
            // All panels of step k solved: activate the trailing
            // updates (distinct target blocks, so no collisions).
            uint32_t gemms = 0;
            for (uint32_t ii = k + 1; ii < n; ++ii) {
                if (!a.present(ii, k))
                    continue;
                for (uint32_t jj = k + 1; jj < n; ++jj) {
                    if (!a.present(k, jj))
                        continue;
                    succ.push_back({kLuGemm, k, ii, jj});
                    ++gemms;
                }
            }
            s.gemmLeft[k] = gemms;
            if (gemms == 0)
                enqueue_factor_next(k);
        }
        break;
      }
      case kLuGemm: {
        gemmMinus(a.block(i, k), a.block(k, j), a.block(i, j));
        ++s.ops.gemm;
        APIR_ASSERT(s.gemmLeft[k] > 0, "gemm accounting underflow");
        if (--s.gemmLeft[k] == 0)
            enqueue_factor_next(k);
        break;
      }
      default:
        panic("unknown LU op type ", type);
    }
    return succ;
}

} // namespace

LuAccel
buildCoorLu(BlockSparseMatrix a, MemorySystem &mem)
{
    LuAccel app;
    app.state = std::make_shared<LuState>();
    LuState &st = *app.state;
    st.a = std::move(a);
    const uint32_t n = st.a.numBlockRows();
    const uint32_t bs = st.a.blockSize();
    st.trsmLeft.assign(n, 0);
    st.gemmLeft.assign(n, 0);
    std::shared_ptr<LuState> sp = app.state;

    // Device-side block storage: one region per possible block, so
    // fill-in has a stable address.
    app.blockWords = static_cast<uint64_t>(bs) * bs;
    const uint64_t block_words = app.blockWords;
    app.blockBase =
        mem.image().alloc(static_cast<uint64_t>(n) * n * block_words);
    const uint64_t block_base = app.blockBase;
    auto block_addr = [block_base, block_words, n](uint64_t i, uint64_t j,
                                                   uint64_t word) {
        return block_base +
               ((i % n * n + j % n) * block_words + word % block_words) *
                   kWordBytes;
    };
    const uint64_t lines_per_block =
        std::max<uint64_t>(1, (block_words * kWordBytes) / kLineBytes);
    // Each traffic token performs one load and one store, so the
    // token count is half the block-op's line accesses: factor = 2
    // accesses/line (read + write in place), trsm = 3 (read diag,
    // read+write target), gemm = 4 (read A, read B, read+write C).
    auto lines_for = [lines_per_block](Word type) -> uint64_t {
        switch (type) {
          case kLuFactor:  return lines_per_block;
          case kLuTrsmRow:
          case kLuTrsmCol: return (3 * lines_per_block) / 2;
          default:         return 2 * lines_per_block;
        }
    };

    AcceleratorSpec &spec = app.spec;
    spec.name = "coor-lu";
    spec.sets = {{"block_op", TaskSetKind::ForEach, 0, 8}};
    spec.orderKey = [](const SwTask &t) {
        return luOrderKey(t.data[0], t.data[1]);
    };

    // Coordination rule: no clauses; the otherwise trigger admits the
    // current (k, phase) wave. Collisions between waves are excluded
    // because successor activation follows the dependence structure.
    RuleSpec rule;
    rule.name = "phase_order";
    rule.otherwise = true;
    spec.rules.push_back(std::move(rule));

    // BlockOp(type = w0, k = w1, i = w2, j = w3); after commit,
    // w4 = successor count, w5 = producing serial, w6 = fanout index.
    PipelineBuilder b("block_op", 0);
    b.allocRule("mkrule", 0,
                [](const Token &t) {
                    std::array<Word, kMaxPayloadWords> p{};
                    p[0] = t.words[0];
                    p[1] = t.words[1];
                    return p;
                })
     .rendezvous("rdv");
    ActorId sw_verdict = b.switchOn("sw_verdict");
    b.path(sw_verdict, 0)
     .commit("block_kernel", [sp](Token &t) {
         auto succ = applyBlockOp(*sp, t.words[0],
                                  static_cast<uint32_t>(t.words[1]),
                                  static_cast<uint32_t>(t.words[2]),
                                  static_cast<uint32_t>(t.words[3]));
         t.words[4] = succ.size();
         t.words[5] = t.serial;
         sp->produced[t.serial] = std::move(succ);
         t.pred = true;
     }, 32)
     .expand("fanout",
             [lines_for](const Token &t) {
                 return std::pair<uint64_t, uint64_t>(
                     0, t.words[4] + lines_for(t.words[0]));
             },
             6);
    ActorId sw_kind = b.switchOn("sw_kind", [](const Token &t) {
        return t.words[6] < t.words[4]; // successor vs traffic line
    });
    b.path(sw_kind, 0)
     .alu("mk_succ",
          [sp](Token &t) {
              const auto &s = sp->produced[t.words[5]][t.words[6]];
              t.words[0] = s[0];
              t.words[1] = s[1];
              t.words[2] = s[2];
              t.words[3] = s[3];
          })
     .enqueue("act_op", 0,
              [](const Token &t) {
                  std::array<Word, kMaxPayloadWords> p{};
                  p[0] = t.words[0];
                  p[1] = t.words[1];
                  p[2] = t.words[2];
                  p[3] = t.words[3];
                  return p;
              })
     .sink("done_succ");
    // Traffic lines: even lines read operand (i, k), odd lines read
    // operand (k, j); every line writes back to the target (i, j).
    b.path(sw_kind, 1)
     .load("ld_operand",
           [block_addr](const Token &t) {
               uint64_t l = t.words[6] - t.words[4];
               uint64_t k = t.words[1];
               return (l % 2 == 0)
                          ? block_addr(t.words[2], k, l * 8)
                          : block_addr(k, t.words[3], l * 8);
           },
           7)
     .storeTiming("st_result",
                  [block_addr](const Token &t) {
                      uint64_t l = t.words[6] - t.words[4];
                      return block_addr(t.words[2], t.words[3], l * 8);
                  })
     .sink("done_line");
    b.path(sw_verdict, 1).sink("squash_never");
    spec.pipelines.push_back(b.build());

    spec.seed(0, {kLuFactor, 0, 0, 0});
    spec.verify();
    return app;
}


AppSpec
coorLuAppSpec(std::shared_ptr<LuState> state)
{
    APIR_ASSERT(state != nullptr, "LU state required");
    const uint32_t n = state->a.numBlockRows();
    state->trsmLeft.assign(n, 0);
    state->gemmLeft.assign(n, 0);
    state->ops = LuOpCounts{};
    std::shared_ptr<LuState> sp = state;

    AppSpec app;
    app.name = "coor-lu-sw";
    app.sets = {{"block_op", TaskSetKind::ForEach, 0, 4}};
    app.orderKey = [](const SwTask &t) {
        return luOrderKey(t.data[0], t.data[1]);
    };

    RuleSpec rule;
    rule.name = "phase_order";
    rule.otherwise = true;
    app.rules.push_back(std::move(rule));

    TaskBody body;
    body.pre = [](TaskContext &ctx, const SwTask &) {
        ctx.createRule(0, {});
        return true;
    };
    body.post = [sp](TaskContext &ctx, const SwTask &t, bool verdict) {
        APIR_ASSERT(verdict, "coordination never squashes");
        std::vector<std::array<Word, 4>> succ;
        ctx.atomically([&] {
            succ = applyBlockOp(*sp, t.data[0],
                                static_cast<uint32_t>(t.data[1]),
                                static_cast<uint32_t>(t.data[2]),
                                static_cast<uint32_t>(t.data[3]));
        });
        for (const auto &op : succ)
            ctx.activate(0, {op[0], op[1], op[2], op[3]});
    };
    app.bodies = {body};
    app.seed(0, {kLuFactor, 0, 0, 0});
    return app;
}

} // namespace apir
