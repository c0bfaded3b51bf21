#include "apps/sssp.hh"

#include <queue>

#include "bdfg/builder.hh"
#include "support/logging.hh"

namespace apir {

namespace {

constexpr Word kInf = kInfDistance;
constexpr OpId kOpCommitDist = 2;

} // namespace

std::vector<uint32_t>
ssspSequential(const CsrGraph &g, VertexId root)
{
    std::vector<uint32_t> dist(g.numVertices(), kInfDistance);
    dist[root] = 0;
    using Item = std::pair<uint32_t, VertexId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    pq.push({0, root});
    while (!pq.empty()) {
        auto [d, v] = pq.top();
        pq.pop();
        if (d != dist[v])
            continue;
        for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e) {
            VertexId u = g.edgeDst(e);
            uint32_t nd = d + g.edgeWeight(e);
            if (nd < dist[u]) {
                dist[u] = nd;
                pq.push({nd, u});
            }
        }
    }
    return dist;
}

std::vector<uint32_t>
readDistances(const GraphImage &img, const MemorySystem &mem)
{
    return mem.image().readArray<uint32_t>(img.prop, img.numVertices);
}

SsspAccel
buildSpecSssp(const CsrGraph &g, VertexId root, MemorySystem &mem,
              SsspOrdering ordering)
{
    SsspAccel app;
    app.img = mapGraph(g, mem, kInf);
    const GraphImage img = app.img;
    MemorySystem *m = &mem;

    AcceleratorSpec &spec = app.spec;
    spec.name = "spec-sssp";
    // Scheduling policy (see SsspOrdering). The default bucketed
    // order (bucket = distance / 256) is delta-stepping style: the
    // heap queue and the otherwise trigger admit low buckets first,
    // bounding speculative flooding on weighted road networks while
    // keeping intra-bucket relaxations parallel.
    bool heap = ordering != SsspOrdering::Unordered;
    spec.sets = {{"relax", TaskSetKind::ForEach, 0, 6, heap}};
    switch (ordering) {
      case SsspOrdering::Unordered:
        break; // FIFO, well-order by activation index
      case SsspOrdering::Bucketed:
        spec.orderKey = [](const SwTask &t) { return t.data[1] >> 8; };
        break;
      case SsspOrdering::Strict:
        spec.orderKey = [](const SwTask &t) { return t.data[1]; };
        break;
    }

    // Rule: ON a committing write of a distance to my vertex, IF that
    // distance already beats (or matches) mine, DO squash me. This is
    // the paper's "distance of committing vertices broadcast to all
    // running tasks to avoid data hazard" — order-free because the
    // update is monotone.
    RuleSpec rule;
    rule.name = "dist_hazard";
    rule.otherwise = true;
    rule.clauses.push_back(
        {kOpCommitDist,
         [](const RuleParams &p, const EventData &ev) {
             return ev.words[0] == p.words[0] && ev.words[1] <= p.words[1];
         },
         false});
    spec.rules.push_back(std::move(rule));

    // Relax(u = w0, cand_dist = w1).
    PipelineBuilder b("relax", 0);
    b.allocRule("mkrule", 0,
                [img](const Token &t) {
                    std::array<Word, kMaxPayloadWords> p{};
                    p[0] = img.propAddr(t.words[0]);
                    p[1] = t.words[1];
                    return p;
                })
     .load("ld_dist",
           [img](const Token &t) { return img.propAddr(t.words[0]); }, 2)
     .alu("chk_improve", [](Token &t) {
         t.words[3] = t.words[1] < t.words[2] ? 1 : 0;
     });
    ActorId sw_improve = b.switchOn(
        "sw_improve", [](const Token &t) { return t.words[3] != 0; });
    b.path(sw_improve, 0).rendezvous("rdv");
    ActorId sw_verdict = b.switchOn("sw_verdict");
    b.path(sw_verdict, 0)
     .commit("commit",
             [m, img](Token &t) {
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
     .event("ev_commit", kOpCommitDist,
            [img](const Token &t) {
                std::array<Word, kMaxPayloadWords> p{};
                p[0] = img.propAddr(t.words[0]);
                p[1] = t.words[1];
                return p;
            })
     .storeTiming("st_dist",
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
     .load("ld_wgt",
           [img](const Token &t) { return img.weightAddr(t.words[4]); }, 2)
     .enqueue("act_relax", 0,
              [](const Token &t) {
                  std::array<Word, kMaxPayloadWords> p{};
                  p[0] = t.words[5];
                  p[1] = t.words[1] + t.words[2];
                  return p;
              })
     .sink("done");
    b.path(sw_won, 1).sink("squash_lost");
    b.path(sw_verdict, 1).sink("squash_rule");
    b.path(sw_improve, 1).sink("squash_stale");
    spec.pipelines.push_back(b.build());

    spec.seed(0, {root, 0});
    spec.verify();
    return app;
}

AppSpec
specSsspAppSpec(const CsrGraph &g, VertexId root,
                std::shared_ptr<std::vector<uint32_t>> dist)
{
    APIR_ASSERT(dist && dist->size() == g.numVertices(),
                "distance array size mismatch");
    std::fill(dist->begin(), dist->end(), kInfDistance);

    AppSpec app;
    app.name = "spec-sssp-sw";
    app.sets = {{"relax", TaskSetKind::ForEach, 0, 2}};
    RuleSpec rule;
    rule.name = "dist_hazard";
    rule.otherwise = true;
    rule.clauses.push_back(
        {kOpCommitDist,
         [](const RuleParams &p, const EventData &ev) {
             return ev.words[0] == p.words[0] && ev.words[1] <= p.words[1];
         },
         false});
    app.rules.push_back(std::move(rule));

    const CsrGraph *gp = &g;
    TaskBody relax;
    relax.pre = [](TaskContext &ctx, const SwTask &t) {
        std::array<Word, kMaxPayloadWords> p{};
        p[0] = t.data[0];
        p[1] = t.data[1];
        ctx.createRule(0, p);
        return true;
    };
    relax.post = [gp, dist](TaskContext &ctx, const SwTask &t,
                            bool verdict) {
        if (!verdict)
            return;
        VertexId u = static_cast<VertexId>(t.data[0]);
        auto d = static_cast<uint32_t>(t.data[1]);
        bool won = false;
        ctx.atomically([&] {
            if (d < (*dist)[u]) {
                (*dist)[u] = d;
                won = true;
            }
        });
        if (!won)
            return;
        std::array<Word, kMaxPayloadWords> ev{};
        ev[0] = u;
        ev[1] = d;
        ctx.signalEvent(kOpCommitDist, ev);
        for (EdgeId e = gp->rowBegin(u); e < gp->rowEnd(u); ++e) {
            std::array<Word, kMaxPayloadWords> p{};
            p[0] = gp->edgeDst(e);
            p[1] = d + gp->edgeWeight(e);
            ctx.activate(0, p);
        }
    };
    app.bodies = {relax};
    app.seed(0, {root, 0});
    return app;
}

} // namespace apir
