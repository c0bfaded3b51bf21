#include "apps/bfs.hh"

#include <deque>

#include "bdfg/builder.hh"
#include "support/logging.hh"

namespace apir {

namespace {

constexpr Word kInf = kInfDistance;
constexpr OpId kOpCommitWrite = 1;

} // namespace

std::vector<uint32_t>
bfsSequential(const CsrGraph &g, VertexId root)
{
    std::vector<uint32_t> level(g.numVertices(), kInfDistance);
    level[root] = 0;
    std::deque<VertexId> q{root};
    while (!q.empty()) {
        VertexId v = q.front();
        q.pop_front();
        uint32_t next = level[v] + 1;
        for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e) {
            VertexId u = g.edgeDst(e);
            if (level[u] == kInfDistance) {
                level[u] = next;
                q.push_back(u);
            }
        }
    }
    return level;
}

std::vector<uint32_t>
readLevels(const GraphImage &img, const MemorySystem &mem)
{
    return mem.image().readArray<uint32_t>(img.prop, img.numVertices);
}

// --------------------------------------------------------------- SPEC-BFS

BfsAccel
buildSpecBfs(const CsrGraph &g, VertexId root, MemorySystem &mem)
{
    BfsAccel app;
    app.img = mapGraph(g, mem, kInf);
    const GraphImage img = app.img;
    MemorySystem *m = &mem;
    mem.writeWord(img.propAddr(root), 0);

    AcceleratorSpec &spec = app.spec;
    spec.name = "spec-bfs";
    spec.sets = {
        {"visit", TaskSetKind::ForEach, 0, 2},
        {"update", TaskSetKind::ForAll, 1, 2},
    };

    // Rule: ON another task committing a write to my level address,
    // IF that task orders before me and its level is at least as
    // good, DO squash me (my write could no longer improve the
    // vertex). The value comparison keeps improving writes alive
    // when out-of-order commits have reordered activation.
    RuleSpec rule;
    rule.name = "wr_conflict";
    rule.otherwise = true;
    rule.clauses.push_back(
        {kOpCommitWrite,
         [](const RuleParams &p, const EventData &ev) {
             return ev.words[0] == p.words[0] && ev.index < p.index &&
                    ev.words[1] <= p.words[1];
         },
         false});
    spec.rules.push_back(std::move(rule));

    // Visit(v = w0, assign_level = w1): stream the neighbors of v into
    // Update tasks.
    {
        PipelineBuilder b("visit", 0);
        b.load("ld_rp0",
               [img](const Token &t) { return img.rowPtrAddr(t.words[0]); },
               2)
         .load("ld_rp1",
               [img](const Token &t) {
                   return img.rowPtrAddr(t.words[0] + 1);
               },
               3)
         .expand("nbrs",
                 [](const Token &t) {
                     return std::pair<uint64_t, uint64_t>(t.words[2],
                                                          t.words[3]);
                 },
                 4)
         .load("ld_col",
               [img](const Token &t) { return img.colAddr(t.words[4]); }, 5)
         .enqueue("act_update", 1,
                  [](const Token &t) {
                      std::array<Word, kMaxPayloadWords> p{};
                      p[0] = t.words[5];
                      p[1] = t.words[1];
                      return p;
                  })
         .sink("done");
        spec.pipelines.push_back(b.build());
    }

    // Update(u = w0, assign_level = w1): speculatively set Level[u].
    {
        PipelineBuilder b("update", 1);
        b.allocRule("mkrule", 0,
                    [img](const Token &t) {
                        std::array<Word, kMaxPayloadWords> p{};
                        p[0] = img.propAddr(t.words[0]);
                        p[1] = t.words[1];
                        return p;
                    })
         .load("ld_level",
               [img](const Token &t) { return img.propAddr(t.words[0]); },
               2)
         .alu("chk_new", [](Token &t) {
             t.words[3] = t.words[1] < t.words[2] ? 1 : 0;
         });
        ActorId sw_new = b.switchOn(
            "sw_new", [](const Token &t) { return t.words[3] != 0; });
        // Improving path: await the rule, then commit.
        b.path(sw_new, 0).rendezvous("rdv");
        ActorId sw_verdict = b.switchOn("sw_verdict");
        b.path(sw_verdict, 0)
         .commit("commit",
                 [m, img](Token &t) {
                     // Monotone check-and-set against architectural
                     // state: exactly the address comparison a
                     // handcrafted design performs at commit.
                     Word cur = m->readWord(img.propAddr(t.words[0]));
                     if (t.words[1] < cur) {
                         m->writeWord(img.propAddr(t.words[0]),
                                      t.words[1]);
                         t.pred = true;
                     } else {
                         t.pred = false;
                     }
                 });
        ActorId sw_won = b.switchOn("sw_won");
        b.path(sw_won, 0)
         .event("ev_commit", kOpCommitWrite,
                [img](const Token &t) {
                    std::array<Word, kMaxPayloadWords> p{};
                    p[0] = img.propAddr(t.words[0]);
                    p[1] = t.words[1];
                    return p;
                })
         .storeTiming("st_level",
                      [img](const Token &t) {
                          return img.propAddr(t.words[0]);
                      })
         .enqueue("act_visit", 0,
                  [](const Token &t) {
                      std::array<Word, kMaxPayloadWords> p{};
                      p[0] = t.words[0];
                      p[1] = t.words[1] + 1;
                      return p;
                  })
         .sink("done");
        b.path(sw_won, 1).sink("squash_lost");
        b.path(sw_verdict, 1).sink("squash_rule");
        b.path(sw_new, 1).sink("squash_visited");
        spec.pipelines.push_back(b.build());
    }

    spec.seed(0, {root, 1});
    spec.verify();
    return app;
}

// --------------------------------------------------------------- COOR-BFS

BfsAccel
buildCoorBfs(const CsrGraph &g, VertexId root, MemorySystem &mem)
{
    BfsAccel app;
    app.img = mapGraph(g, mem, kInf);
    const GraphImage img = app.img;
    MemorySystem *m = &mem;

    AcceleratorSpec &spec = app.spec;
    spec.name = "coor-bfs";
    spec.sets = {{"visit", TaskSetKind::ForEach, 0, 2}};

    // Coordination rule: no clauses; the otherwise trigger admits
    // the minimum-level tasks, giving barrier-free level-by-level
    // execution (Leiserson-style).
    RuleSpec rule;
    rule.name = "min_level";
    rule.otherwise = true;
    spec.rules.push_back(std::move(rule));
    spec.orderKey = [](const SwTask &t) { return t.data[1]; };

    PipelineBuilder b("visit", 0);
    b.allocRule("mkrule", 0,
                [](const Token &) {
                    return std::array<Word, kMaxPayloadWords>{};
                })
     .rendezvous("rdv")
     .commit("commit", [m, img](Token &t) {
         Word cur = m->readWord(img.propAddr(t.words[0]));
         if (t.words[1] < cur) {
             m->writeWord(img.propAddr(t.words[0]), t.words[1]);
             t.pred = true;
         } else {
             t.pred = false;
         }
     });
    ActorId sw_won = b.switchOn("sw_won");
    b.path(sw_won, 0)
     .storeTiming("st_level",
                  [img](const Token &t) { return img.propAddr(t.words[0]); })
     .load("ld_rp0",
           [img](const Token &t) { return img.rowPtrAddr(t.words[0]); }, 2)
     .load("ld_rp1",
           [img](const Token &t) { return img.rowPtrAddr(t.words[0] + 1); },
           3)
     .expand("nbrs",
             [](const Token &t) {
                 return std::pair<uint64_t, uint64_t>(t.words[2],
                                                      t.words[3]);
             },
             4)
     .load("ld_col",
           [img](const Token &t) { return img.colAddr(t.words[4]); }, 5)
     .enqueue("act_visit", 0,
              [](const Token &t) {
                  std::array<Word, kMaxPayloadWords> p{};
                  p[0] = t.words[5];
                  p[1] = t.words[1] + 1;
                  return p;
              })
     .sink("done");
    b.path(sw_won, 1).sink("squash_visited");
    spec.pipelines.push_back(b.build());

    spec.seed(0, {root, 0});
    spec.verify();
    return app;
}

// ------------------------------------------------------ software AppSpecs

AppSpec
specBfsAppSpec(const CsrGraph &g, VertexId root,
               std::shared_ptr<std::vector<uint32_t>> levels)
{
    APIR_ASSERT(levels && levels->size() == g.numVertices(),
                "level array size mismatch");
    std::fill(levels->begin(), levels->end(), kInfDistance);
    (*levels)[root] = 0;

    AppSpec app;
    app.name = "spec-bfs-sw";
    app.sets = {
        {"visit", TaskSetKind::ForEach, 0, 2},
        {"update", TaskSetKind::ForAll, 1, 2},
    };

    RuleSpec rule;
    rule.name = "wr_conflict";
    rule.otherwise = true;
    rule.clauses.push_back(
        {kOpCommitWrite,
         [](const RuleParams &p, const EventData &ev) {
             return ev.words[0] == p.words[0] && ev.index < p.index &&
                    ev.words[1] <= p.words[1];
         },
         false});
    app.rules.push_back(std::move(rule));

    const CsrGraph *gp = &g;

    TaskBody visit;
    visit.pre = [gp](TaskContext &ctx, const SwTask &t) {
        VertexId v = static_cast<VertexId>(t.data[0]);
        for (EdgeId e = gp->rowBegin(v); e < gp->rowEnd(v); ++e) {
            std::array<Word, kMaxPayloadWords> p{};
            p[0] = gp->edgeDst(e);
            p[1] = t.data[1];
            ctx.activate(1, p);
        }
        return false;
    };
    visit.post = [](TaskContext &, const SwTask &, bool) {};

    TaskBody update;
    update.pre = [](TaskContext &ctx, const SwTask &t) {
        std::array<Word, kMaxPayloadWords> p{};
        p[0] = t.data[0]; // the contended location (vertex id)
        p[1] = t.data[1];
        ctx.createRule(0, p);
        return true;
    };
    update.post = [levels](TaskContext &ctx, const SwTask &t,
                           bool verdict) {
        if (!verdict)
            return; // squashed by the rule
        VertexId u = static_cast<VertexId>(t.data[0]);
        auto lvl = static_cast<uint32_t>(t.data[1]);
        ctx.atomically([&] {
            if (lvl < (*levels)[u]) {
                (*levels)[u] = lvl;
                std::array<Word, kMaxPayloadWords> ev{};
                ev[0] = u;
                ev[1] = lvl;
                ctx.signalEvent(kOpCommitWrite, ev);
                std::array<Word, kMaxPayloadWords> p{};
                p[0] = u;
                p[1] = lvl + 1;
                ctx.activate(0, p);
            }
        });
    };

    app.bodies = {visit, update};
    app.seed(0, {root, 1});
    return app;
}

AppSpec
coorBfsAppSpec(const CsrGraph &g, VertexId root,
               std::shared_ptr<std::vector<uint32_t>> levels)
{
    APIR_ASSERT(levels && levels->size() == g.numVertices(),
                "level array size mismatch");
    std::fill(levels->begin(), levels->end(), kInfDistance);

    AppSpec app;
    app.name = "coor-bfs-sw";
    app.sets = {{"visit", TaskSetKind::ForEach, 0, 2}};
    RuleSpec rule;
    rule.name = "min_level";
    rule.otherwise = true;
    app.rules.push_back(std::move(rule));
    app.orderKey = [](const SwTask &t) { return t.data[1]; };

    const CsrGraph *gp = &g;
    TaskBody visit;
    visit.pre = [](TaskContext &ctx, const SwTask &) {
        ctx.createRule(0, {});
        return true;
    };
    visit.post = [gp, levels](TaskContext &ctx, const SwTask &t,
                              bool verdict) {
        if (!verdict)
            return;
        VertexId v = static_cast<VertexId>(t.data[0]);
        auto lvl = static_cast<uint32_t>(t.data[1]);
        bool won = false;
        ctx.atomically([&] {
            if (lvl < (*levels)[v]) {
                (*levels)[v] = lvl;
                won = true;
            }
        });
        if (!won)
            return;
        for (EdgeId e = gp->rowBegin(v); e < gp->rowEnd(v); ++e) {
            std::array<Word, kMaxPayloadWords> p{};
            p[0] = gp->edgeDst(e);
            p[1] = lvl + 1;
            ctx.activate(0, p);
        }
    };
    app.bodies = {visit};
    app.seed(0, {root, 0});
    return app;
}

} // namespace apir
