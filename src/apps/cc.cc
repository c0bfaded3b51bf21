#include "apps/cc.hh"

#include "bdfg/builder.hh"
#include "support/logging.hh"

namespace apir {

namespace {

constexpr Word kNoLabel = 0xffffffffu;
constexpr OpId kOpCommitLabel = 5;

} // namespace

std::vector<uint32_t>
ccSequential(const CsrGraph &g)
{
    std::vector<uint32_t> label(g.numVertices(), kNoLabel);
    for (VertexId root = 0; root < g.numVertices(); ++root) {
        if (label[root] != kNoLabel)
            continue;
        // Vertices are visited in increasing id, so `root` is the
        // minimum id of its (undirected) component.
        std::vector<VertexId> stack{root};
        label[root] = root;
        while (!stack.empty()) {
            VertexId v = stack.back();
            stack.pop_back();
            for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e) {
                VertexId u = g.edgeDst(e);
                if (label[u] == kNoLabel) {
                    label[u] = root;
                    stack.push_back(u);
                }
            }
        }
    }
    return label;
}

uint32_t
countComponents(const std::vector<uint32_t> &labels)
{
    uint32_t count = 0;
    for (size_t v = 0; v < labels.size(); ++v)
        if (labels[v] == v)
            ++count;
    return count;
}

std::vector<uint32_t>
readLabels(const GraphImage &img, const MemorySystem &mem)
{
    return mem.image().readArray<uint32_t>(img.prop, img.numVertices);
}

CcAccel
buildSpecCc(const CsrGraph &g, MemorySystem &mem)
{
    CcAccel app;
    app.img = mapGraph(g, mem, 0);
    const GraphImage img = app.img;
    MemorySystem *m = &mem;
    // Initial labels: own vertex id.
    for (VertexId v = 0; v < g.numVertices(); ++v)
        mem.writeWord(img.propAddr(v), v);

    AcceleratorSpec &spec = app.spec;
    spec.name = "spec-cc";
    spec.sets = {{"prop", TaskSetKind::ForEach, 0, 6}};

    // Rule: squash me if an at-least-as-good label already committed
    // to my vertex (monotone min, order-free — the SSSP hazard form).
    RuleSpec rule;
    rule.name = "label_hazard";
    rule.otherwise = true;
    rule.clauses.push_back(
        {kOpCommitLabel,
         [](const RuleParams &p, const EventData &ev) {
             return ev.words[0] == p.words[0] && ev.words[1] <= p.words[1];
         },
         false});
    spec.rules.push_back(std::move(rule));

    // Prop(u = w0, cand_label = w1).
    PipelineBuilder b("prop", 0);
    b.allocRule("mkrule", 0,
                [img](const Token &t) {
                    std::array<Word, kMaxPayloadWords> p{};
                    p[0] = img.propAddr(t.words[0]);
                    p[1] = t.words[1];
                    return p;
                })
     .load("ld_label",
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
     .event("ev_commit", kOpCommitLabel,
            [img](const Token &t) {
                std::array<Word, kMaxPayloadWords> p{};
                p[0] = img.propAddr(t.words[0]);
                p[1] = t.words[1];
                return p;
            })
     .storeTiming("st_label",
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
     .enqueue("act_prop", 0,
              [](const Token &t) {
                  std::array<Word, kMaxPayloadWords> p{};
                  p[0] = t.words[5];
                  p[1] = t.words[1];
                  return p;
              })
     .sink("done");
    b.path(sw_won, 1).sink("squash_lost");
    b.path(sw_verdict, 1).sink("squash_rule");
    b.path(sw_improve, 1).sink("squash_stale");
    spec.pipelines.push_back(b.build());

    // Seed: every vertex propagates its own id to its neighbors.
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e)
            spec.seed(0, {g.edgeDst(e), v});
    }
    spec.verify();
    return app;
}

AppSpec
specCcAppSpec(const CsrGraph &g,
              std::shared_ptr<std::vector<uint32_t>> labels)
{
    APIR_ASSERT(labels && labels->size() == g.numVertices(),
                "label array size mismatch");
    for (VertexId v = 0; v < g.numVertices(); ++v)
        (*labels)[v] = v;

    AppSpec app;
    app.name = "spec-cc-sw";
    app.sets = {{"prop", TaskSetKind::ForEach, 0, 2}};
    RuleSpec rule;
    rule.name = "label_hazard";
    rule.otherwise = true;
    rule.clauses.push_back(
        {kOpCommitLabel,
         [](const RuleParams &p, const EventData &ev) {
             return ev.words[0] == p.words[0] && ev.words[1] <= p.words[1];
         },
         false});
    app.rules.push_back(std::move(rule));

    const CsrGraph *gp = &g;
    TaskBody prop;
    prop.pre = [](TaskContext &ctx, const SwTask &t) {
        std::array<Word, kMaxPayloadWords> p{};
        p[0] = t.data[0];
        p[1] = t.data[1];
        ctx.createRule(0, p);
        return true;
    };
    prop.post = [gp, labels](TaskContext &ctx, const SwTask &t,
                             bool verdict) {
        if (!verdict)
            return;
        VertexId u = static_cast<VertexId>(t.data[0]);
        auto lbl = static_cast<uint32_t>(t.data[1]);
        bool won = false;
        ctx.atomically([&] {
            if (lbl < (*labels)[u]) {
                (*labels)[u] = lbl;
                won = true;
            }
        });
        if (!won)
            return;
        std::array<Word, kMaxPayloadWords> ev{};
        ev[0] = u;
        ev[1] = lbl;
        ctx.signalEvent(kOpCommitLabel, ev);
        for (EdgeId e = gp->rowBegin(u); e < gp->rowEnd(u); ++e) {
            std::array<Word, kMaxPayloadWords> p{};
            p[0] = gp->edgeDst(e);
            p[1] = lbl;
            ctx.activate(0, p);
        }
    };
    app.bodies = {prop};
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e)
            app.seed(0, {g.edgeDst(e), v});
    }
    return app;
}

} // namespace apir
