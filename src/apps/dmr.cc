#include "apps/dmr.hh"

#include <algorithm>

#include "bdfg/builder.hh"
#include "support/logging.hh"

namespace apir {

namespace {

constexpr OpId kOpCavity = 4;

/** Quantize a circumcenter to a coarse grid cell (+2: 0 = stale). */
std::pair<Word, Word>
cellOf(const Mesh &mesh, TriId t, const RefineParams &params)
{
    if (t >= mesh.triangles().size() || !mesh.alive(t))
        return {0, 0};
    if (!isBadTriangle(mesh, t, params.minAngleRad, params.minArea))
        return {0, 0};
    const Triangle &tri = mesh.triangle(t);
    Point cc = circumcenter(mesh.point(tri.v[0]), mesh.point(tri.v[1]),
                            mesh.point(tri.v[2]));
    auto q = [](double c) {
        c = std::clamp(c, 0.0, 1.0);
        return static_cast<Word>(c * 32.0) + 2;
    };
    return {q(cc.x), q(cc.y)};
}

} // namespace

DmrResult
dmrSequential(Mesh &mesh, const RefineParams &params)
{
    uint64_t applied = refineMesh(mesh, params);
    return summarizeMesh(mesh, params, applied);
}

DmrResult
summarizeMesh(const Mesh &mesh, const RefineParams &params,
              uint64_t applied)
{
    DmrResult res;
    res.refinements = applied;
    res.aliveTriangles = mesh.numAliveTriangles();
    res.remainingBad = static_cast<uint32_t>(
        findBadTriangles(mesh, params.minAngleRad, params.minArea).size());
    return res;
}

DmrAccel
buildSpecDmr(Mesh mesh, const RefineParams &params, MemorySystem &mem)
{
    DmrAccel app;
    app.state = std::make_shared<DmrState>();
    app.state->mesh = std::move(mesh);
    app.state->params = params;
    std::shared_ptr<DmrState> sp = app.state;

    // Device-side triangle records (4 words each) for timed accesses;
    // triangles created during refinement hash into the same region.
    // One cache line (8 words) per triangle record: production
    // meshes are far larger than the 64 KB device cache, so cavity
    // walks miss; the modulo keeps triangles created during
    // refinement inside the region.
    app.recordWords =
        8ull * std::max<size_t>(app.state->mesh.triangles().size() * 4, 64);
    app.recordBase = mem.image().alloc(app.recordWords);
    const uint64_t rec_base = app.recordBase;
    const uint64_t rec_words = app.recordWords;
    auto rec_addr = [rec_base, rec_words](uint64_t tri, uint64_t word) {
        return rec_base +
               ((tri * 8 + word % 8) % rec_words) * kWordBytes;
    };

    AcceleratorSpec &spec = app.spec;
    spec.name = "spec-dmr";
    spec.sets = {{"refine", TaskSetKind::ForEach, 0, 6}};

    // Rule: squash me if an earlier task commits a cavity whose
    // circumcenter cell is adjacent to mine.
    RuleSpec rule;
    rule.name = "cavity_overlap";
    rule.otherwise = true;
    rule.clauses.push_back(
        {kOpCavity,
         [](const RuleParams &p, const EventData &ev) {
             if (p.words[0] == 0)
                 return false; // stale at rule creation
             auto dx = static_cast<int64_t>(ev.words[0]) -
                       static_cast<int64_t>(p.words[0]);
             auto dy = static_cast<int64_t>(ev.words[1]) -
                       static_cast<int64_t>(p.words[1]);
             return dx >= -1 && dx <= 1 && dy >= -1 && dy <= 1 &&
                    ev.index < p.index;
         },
         false});
    spec.rules.push_back(std::move(rule));

    // Refine(t = w0).
    PipelineBuilder b("refine", 0);
    b.allocRule("mkrule", 0,
                [sp](const Token &t) {
                    std::array<Word, kMaxPayloadWords> p{};
                    auto [cx, cy] = cellOf(sp->mesh,
                                           static_cast<TriId>(t.words[0]),
                                           sp->params);
                    p[0] = cx;
                    p[1] = cy;
                    return p;
                })
     .load("ld_v0",
           [rec_addr](const Token &t) { return rec_addr(t.words[0], 0); },
           2)
     .load("ld_v1",
           [rec_addr](const Token &t) { return rec_addr(t.words[0], 1); },
           3)
     .load("ld_v2",
           [rec_addr](const Token &t) { return rec_addr(t.words[0], 2); },
           4)
     .alu("circum", [](Token &) {}, 8)
     .rendezvous("rdv");
    ActorId sw_verdict = b.switchOn("sw_verdict");
    b.path(sw_verdict, 0)
     .commit("commit", [sp](Token &t) {
         auto tri = static_cast<TriId>(t.words[0]);
         auto [cx, cy] = cellOf(sp->mesh, tri, sp->params);
         auto res = refineTriangle(sp->mesh, tri, sp->params);
         if (res.applied) {
             ++sp->applied;
             sp->produced[t.serial] = res.newBad;
             t.words[1] =
                 res.cavity.size() + res.created.size(); // traffic
             t.words[2] = cx; // committed cavity cell, for the event
             t.words[3] = cy;
             t.words[4] = t.serial; // key into `produced` for children
             t.pred = true;
         } else {
             t.pred = false; // stale or unrefinable: die quietly
         }
     }, 24);
    ActorId sw_applied = b.switchOn("sw_applied");
    b.path(sw_applied, 0)
     .event("ev_cavity", kOpCavity,
            [](const Token &t) {
                std::array<Word, kMaxPayloadWords> p{};
                p[0] = t.words[2]; // committed cavity cell
                p[1] = t.words[3];
                return p;
            })
     .storeTiming("st_tri",
                  [rec_addr](const Token &t) {
                      return rec_addr(t.words[0], 3);
                  })
     // Fan out into the new-bad successors followed by the cavity's
     // memory traffic (w1 = triangles consumed + produced, each with
     // a record read and write).
     .alu("succ_count",
          [sp](Token &t) {
              auto it = sp->produced.find(t.words[4]);
              t.words[2] =
                  it == sp->produced.end() ? 0 : it->second.size();
          })
     .expand("fanout",
             [](const Token &t) {
                 return std::pair<uint64_t, uint64_t>(
                     0, t.words[2] + 4 * t.words[1]);
             },
             5);
    ActorId sw_kind = b.switchOn("sw_kind", [](const Token &t) {
        return t.words[5] < t.words[2];
    });
    b.path(sw_kind, 0)
     .alu("map_bad",
          [sp](Token &t) {
              // Children carry the producing commit's serial in w4.
              t.words[1] = sp->produced[t.words[4]][t.words[5]];
          })
     .enqueue("act_refine", 0,
              [](const Token &t) {
                  std::array<Word, kMaxPayloadWords> p{};
                  p[0] = t.words[1];
                  return p;
              })
     .sink("done");
    b.path(sw_kind, 1)
     .load("ld_cavity",
           [rec_addr](const Token &t) {
               uint64_t l = t.words[5] - t.words[2];
               return rec_addr(t.words[0] + l, l);
           },
           3)
     .storeTiming("st_cavity",
                  [rec_addr](const Token &t) {
                      uint64_t l = t.words[5] - t.words[2];
                      return rec_addr(t.words[0] + l, l + 2);
                  })
     .sink("done_line");
    b.path(sw_applied, 1).sink("done_stale");
    b.path(sw_verdict, 1)
     .enqueueRetry("act_retry", 0,
                   [](const Token &t) {
                       std::array<Word, kMaxPayloadWords> p{};
                       p[0] = t.words[0];
                       return p;
                   })
     .sink("squash_conflict");
    spec.pipelines.push_back(b.build());

    for (TriId t : findBadTriangles(app.state->mesh, params.minAngleRad,
                                    params.minArea))
        spec.seed(0, {t});
    spec.verify();
    return app;
}


AppSpec
specDmrAppSpec(std::shared_ptr<DmrState> state)
{
    APIR_ASSERT(state != nullptr, "DMR state required");
    std::shared_ptr<DmrState> sp = state;

    AppSpec app;
    app.name = "spec-dmr-sw";
    app.sets = {{"refine", TaskSetKind::ForEach, 0, 3}};

    RuleSpec rule;
    rule.name = "cavity_overlap";
    rule.otherwise = true;
    rule.clauses.push_back(
        {kOpCavity,
         [](const RuleParams &p, const EventData &ev) {
             if (p.words[0] == 0)
                 return false;
             auto dx = static_cast<int64_t>(ev.words[0]) -
                       static_cast<int64_t>(p.words[0]);
             auto dy = static_cast<int64_t>(ev.words[1]) -
                       static_cast<int64_t>(p.words[1]);
             return dx >= -1 && dx <= 1 && dy >= -1 && dy <= 1 &&
                    ev.index < p.index;
         },
         false});
    app.rules.push_back(std::move(rule));

    TaskBody body;
    body.pre = [sp](TaskContext &ctx, const SwTask &t) {
        std::array<Word, kMaxPayloadWords> p{};
        // Speculative read of geometry: safe under atomically-guarded
        // commits only in the single-threaded executors; the threaded
        // runtime must take the commit lock for the mesh read too.
        ctx.atomically([&] {
            auto [cx, cy] = cellOf(sp->mesh,
                                   static_cast<TriId>(t.data[0]),
                                   sp->params);
            p[0] = cx;
            p[1] = cy;
        });
        ctx.createRule(0, p);
        return true;
    };
    body.post = [sp](TaskContext &ctx, const SwTask &t, bool verdict) {
        if (!verdict) {
            ctx.activate(0, t.data); // conflict: retry
            return;
        }
        std::vector<TriId> new_bad;
        Word cx = 0, cy = 0;
        bool applied = false;
        ctx.atomically([&] {
            auto tri = static_cast<TriId>(t.data[0]);
            auto cell = cellOf(sp->mesh, tri, sp->params);
            auto res = refineTriangle(sp->mesh, tri, sp->params);
            if (res.applied) {
                ++sp->applied;
                applied = true;
                cx = cell.first;
                cy = cell.second;
                new_bad = std::move(res.newBad);
            }
        });
        if (!applied)
            return; // stale or unrefinable
        std::array<Word, kMaxPayloadWords> ev{};
        ev[0] = cx;
        ev[1] = cy;
        ctx.signalEvent(kOpCavity, ev);
        for (TriId nb : new_bad)
            ctx.activate(0, {nb});
    };
    app.bodies = {body};

    for (TriId t : findBadTriangles(state->mesh, state->params.minAngleRad,
                                    state->params.minArea))
        app.seed(0, {t});
    return app;
}

} // namespace apir
