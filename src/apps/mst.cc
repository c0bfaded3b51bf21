#include "apps/mst.hh"

#include <algorithm>

#include "bdfg/builder.hh"
#include "support/logging.hh"

namespace apir {

namespace {

constexpr OpId kOpCommitUnion = 3;

/** One undirected edge of the sorted schedule. */
struct SortedEdge
{
    uint32_t a, b, w;
};

/** Deduplicated, weight-sorted edge list. */
std::vector<SortedEdge>
sortedEdges(const CsrGraph &g)
{
    std::vector<SortedEdge> edges;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e) {
            VertexId u = g.edgeDst(e);
            if (v < u)
                edges.push_back({v, u, g.edgeWeight(e)});
        }
    }
    std::sort(edges.begin(), edges.end(),
              [](const SortedEdge &x, const SortedEdge &y) {
                  return std::tie(x.w, x.a, x.b) <
                         std::tie(y.w, y.a, y.b);
              });
    return edges;
}

uint32_t
findRoot(std::vector<uint32_t> &parent, uint32_t x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

} // namespace

MstResult
mstSequential(const CsrGraph &g)
{
    auto edges = sortedEdges(g);
    std::vector<uint32_t> parent(g.numVertices());
    for (uint32_t v = 0; v < g.numVertices(); ++v)
        parent[v] = v;
    MstResult res;
    for (const SortedEdge &e : edges) {
        uint32_t ra = findRoot(parent, e.a);
        uint32_t rb = findRoot(parent, e.b);
        if (ra != rb) {
            parent[ra] = rb;
            res.totalWeight += e.w;
            ++res.edgesInTree;
        }
    }
    return res;
}

MstAccel
buildSpecMst(const CsrGraph &g, MemorySystem &mem)
{
    MstAccel app;
    app.state = std::make_shared<MstState>();
    MstState *st = app.state.get();
    st->parent.resize(g.numVertices());
    for (uint32_t v = 0; v < g.numVertices(); ++v)
        st->parent[v] = v;
    app.parentBase = mem.image().mapArray(st->parent);
    const uint64_t parent_base = app.parentBase;
    std::shared_ptr<MstState> sp = app.state;

    AcceleratorSpec &spec = app.spec;
    spec.name = "spec-mst";
    // Heap-banked task queue: squashed edges re-enter in weight
    // order, keeping the ticket window tight.
    spec.sets = {{"add_edge", TaskSetKind::ForEach, 0, 6, true}};
    // Commits happen in weight (= ticket) order.
    spec.orderKey = [](const SwTask &t) { return t.data[3]; };

    // Rule: ON a smaller edge committing a union touching one of my
    // endpoints, DO squash me (I will retry with fresh finds).
    RuleSpec rule;
    rule.name = "endpoint_overlap";
    rule.otherwise = true;
    rule.clauses.push_back(
        {kOpCommitUnion,
         [](const RuleParams &p, const EventData &ev) {
             bool overlap = ev.words[0] == p.words[0] ||
                            ev.words[0] == p.words[1] ||
                            ev.words[1] == p.words[0] ||
                            ev.words[1] == p.words[1];
             return overlap && ev.words[2] < p.words[2];
         },
         false});
    spec.rules.push_back(std::move(rule));

    // AddEdge(a = w0, b = w1, weight = w2, ticket = w3).
    PipelineBuilder b("add_edge", 0);
    b.allocRule("mkrule", 0,
                [](const Token &t) {
                    std::array<Word, kMaxPayloadWords> p{};
                    p[0] = t.words[0];
                    p[1] = t.words[1];
                    p[2] = t.words[3];
                    return p;
                })
     .load("ld_pa",
           [parent_base](const Token &t) {
               return parent_base + t.words[0] * kWordBytes;
           },
           4)
     .load("ld_pb",
           [parent_base](const Token &t) {
               return parent_base + t.words[1] * kWordBytes;
           },
           5)
     .rendezvous("rdv");
    ActorId sw_verdict = b.switchOn("sw_verdict");
    b.path(sw_verdict, 0)
     .commit("commit", [sp](Token &t) {
         MstState &s = *sp;
         if (t.words[3] != s.nextTicket) {
             t.pred = false; // arrived out of order: retry
             return;
         }
         auto a = static_cast<uint32_t>(t.words[0]);
         auto bb = static_cast<uint32_t>(t.words[1]);
         uint32_t ra = s.find(a);
         uint32_t rb = s.find(bb);
         if (ra != rb) {
             s.parent[ra] = rb;
             s.result.totalWeight += t.words[2];
             ++s.result.edgesInTree;
             t.words[4] = 1;
             t.words[5] = ra;
             t.words[2] = rb; // store value for the timed write
         } else {
             t.words[4] = 0;
         }
         ++s.nextTicket;
         t.pred = true;
     });
    ActorId sw_done = b.switchOn("sw_done");
    {
        // Processed: announce the union (if any) and write the parent.
        ActorId sw_added = b.path(sw_done, 0)
                               .switchOn("sw_added", [](const Token &t) {
                                   return t.words[4] != 0;
                               });
        b.path(sw_added, 0)
         .event("ev_union", kOpCommitUnion,
                [](const Token &t) {
                    std::array<Word, kMaxPayloadWords> p{};
                    p[0] = t.words[0];
                    p[1] = t.words[1];
                    p[2] = t.words[3];
                    return p;
                })
         .storeTiming("st_parent",
                      [parent_base](const Token &t) {
                          return parent_base + t.words[5] * kWordBytes;
                      })
         .sink("done_union");
        b.path(sw_added, 1).sink("done_cycle");
    }
    b.path(sw_done, 1)
     .enqueueRetry("act_retry", 0,
                   [](const Token &t) {
                       std::array<Word, kMaxPayloadWords> p = t.words;
                       return p;
                   })
     .sink("squash_ticket");
    b.path(sw_verdict, 1)
     .enqueueRetry("act_retry2", 0,
                   [](const Token &t) {
                       std::array<Word, kMaxPayloadWords> p = t.words;
                       return p;
                   })
     .sink("squash_overlap");
    spec.pipelines.push_back(b.build());

    auto edges = sortedEdges(g);
    for (size_t i = 0; i < edges.size(); ++i) {
        spec.seed(0, {edges[i].a, edges[i].b, edges[i].w,
                      static_cast<Word>(i)});
    }
    spec.verify();
    return app;
}


AppSpec
specMstAppSpec(const CsrGraph &g, std::shared_ptr<MstState> state)
{
    APIR_ASSERT(state != nullptr, "MST state required");
    state->parent.resize(g.numVertices());
    for (uint32_t v = 0; v < g.numVertices(); ++v)
        state->parent[v] = v;
    state->nextTicket = 0;
    state->result = MstResult{};

    AppSpec app;
    app.name = "spec-mst-sw";
    app.sets = {{"add_edge", TaskSetKind::ForEach, 0, 4}};
    app.orderKey = [](const SwTask &t) { return t.data[3]; };

    RuleSpec rule;
    rule.name = "endpoint_overlap";
    rule.otherwise = true;
    rule.clauses.push_back(
        {kOpCommitUnion,
         [](const RuleParams &p, const EventData &ev) {
             bool overlap = ev.words[0] == p.words[0] ||
                            ev.words[0] == p.words[1] ||
                            ev.words[1] == p.words[0] ||
                            ev.words[1] == p.words[1];
             return overlap && ev.words[2] < p.words[2];
         },
         false});
    app.rules.push_back(std::move(rule));

    TaskBody body;
    body.pre = [](TaskContext &ctx, const SwTask &t) {
        std::array<Word, kMaxPayloadWords> p{};
        p[0] = t.data[0];
        p[1] = t.data[1];
        p[2] = t.data[3];
        ctx.createRule(0, p);
        return true;
    };
    body.post = [state](TaskContext &ctx, const SwTask &t, bool verdict) {
        if (!verdict) {
            // Squashed by an earlier overlapping union: retry with
            // fresh finds (the ticket keeps the edge's weight order).
            ctx.activate(0, t.data);
            return;
        }
        bool retry = false;
        bool added = false;
        ctx.atomically([&] {
            MstState &s = *state;
            if (t.data[3] != s.nextTicket) {
                retry = true; // arrived out of weight order
                return;
            }
            auto a = static_cast<uint32_t>(t.data[0]);
            auto b = static_cast<uint32_t>(t.data[1]);
            uint32_t ra = s.find(a);
            uint32_t rb = s.find(b);
            if (ra != rb) {
                s.parent[ra] = rb;
                s.result.totalWeight += t.data[2];
                ++s.result.edgesInTree;
                added = true;
            }
            ++s.nextTicket;
        });
        if (retry) {
            ctx.activate(0, t.data);
        } else if (added) {
            std::array<Word, kMaxPayloadWords> ev{};
            ev[0] = t.data[0];
            ev[1] = t.data[1];
            ev[2] = t.data[3];
            ctx.signalEvent(kOpCommitUnion, ev);
        }
    };
    app.bodies = {body};

    auto edges = sortedEdges(g);
    for (size_t i = 0; i < edges.size(); ++i) {
        app.seed(0, {edges[i].a, edges[i].b, edges[i].w,
                     static_cast<Word>(i)});
    }
    return app;
}

} // namespace apir
