/**
 * @file
 * The bench app table: one row per benchmark, in kAllBenches order,
 * read by runAccelerator, the benches and apird. These tests pin what
 * its consumers rely on: row order and names, the name lookups, the
 * app list apird's errors print, and that the resource model reads
 * only a built spec's shape, so a bench may prune with the spec of
 * whatever workload it simulates.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "resource/resource.hh"
#include "server/protocol.hh"
#include "server/service.hh"

namespace apir {
namespace bench {
namespace {

std::vector<std::string>
tableNames()
{
    std::vector<std::string> names;
    for (Bench b : kAllBenches)
        names.push_back(appRow(b).name);
    return names;
}

/** Split "A, B or C" into its names. */
std::vector<std::string>
splitNameList(std::string list)
{
    std::vector<std::string> names;
    for (;;) {
        size_t comma = list.find(", ");
        size_t orSep = list.find(" or ");
        size_t cut = std::min(comma, orSep);
        if (cut == std::string::npos) {
            names.push_back(list);
            return names;
        }
        names.push_back(list.substr(0, cut));
        list.erase(0, cut + (cut == comma ? 2 : 4));
    }
}

/** The text between `open` and the next ')' in `s`. */
std::string
between(const std::string &s, const std::string &open)
{
    size_t a = s.find(open);
    EXPECT_NE(a, std::string::npos) << s;
    if (a == std::string::npos)
        return {};
    a += open.size();
    return s.substr(a, s.find(')', a) - a);
}

TEST(AppTable, RowsFollowAllBenchesWithUniqueNames)
{
    const Workloads w = makeWorkloads(0.02);
    std::set<std::string> seen;
    for (size_t i = 0; i < std::size(kAllBenches); ++i) {
        // appRow indexes the table by enumerator value.
        Bench b = kAllBenches[i];
        EXPECT_EQ(static_cast<size_t>(b), i);
        const AppRow &row = appRow(b);
        EXPECT_EQ(row.bench, b) << row.name;
        EXPECT_TRUE(seen.insert(row.name).second)
            << "duplicate name " << row.name;
        EXPECT_NE(row.build, nullptr);
        EXPECT_NE(row.sequential, nullptr);
        EXPECT_GT(row.sequential(w), 0.0) << row.name;
    }
}

TEST(AppTable, NamesRoundTripThroughBenchFromName)
{
    for (Bench b : kAllBenches) {
        std::optional<Bench> back = benchFromName(benchName(b));
        ASSERT_TRUE(back.has_value()) << benchName(b);
        EXPECT_EQ(*back, b);
    }
    EXPECT_FALSE(benchFromName("SPEC-CC").has_value());
    EXPECT_FALSE(benchFromName("spec-bfs").has_value());
    EXPECT_FALSE(benchFromName("").has_value());
}

TEST(AppTable, ApirdErrorsNameExactlyTheTableApps)
{
    EXPECT_EQ(benchNameList(), "SPEC-BFS, COOR-BFS, SPEC-SSSP, SPEC-MST, "
                               "SPEC-DMR or COOR-LU");
    try {
        server::parseRequest("{}");
        ADD_FAILURE() << "a sim request without 'app' parsed";
    } catch (const std::exception &e) {
        EXPECT_EQ(splitNameList(between(e.what(), "require 'app' (")),
                  tableNames());
    }

    server::SimService service(APIR_SCENARIO_DIR);
    server::SimRequest req;
    req.app = "NOT-AN-APP";
    std::string resp = service.handle(req);
    EXPECT_EQ(resp.rfind("{\"status\":\"error\"", 0), 0u) << resp;
    EXPECT_EQ(splitNameList(between(resp, "(expected ")), tableNames());
}

void
expectSameResources(const Resources &a, const Resources &b,
                    const char *part, const char *app)
{
    EXPECT_EQ(a.registers, b.registers) << app << " " << part;
    EXPECT_EQ(a.alms, b.alms) << app << " " << part;
    EXPECT_EQ(a.bramBits, b.bramBits) << app << " " << part;
}

TEST(AppTable, ResourceReportDoesNotDependOnWorkloadScale)
{
    Workloads small = makeWorkloads(0.02);
    Workloads large = makeWorkloads(0.25);
    for (Bench bench : kAllBenches) {
        const AppRow &row = appRow(bench);
        MemorySystem memSmall, memLarge;
        std::unique_ptr<App> a = row.build(small, memSmall);
        std::unique_ptr<App> b = row.build(large, memLarge);
        AccelConfig cfg = defaultAccelConfig();
        uint32_t fit = fitPipelinesToDevice(a->spec(), cfg);
        EXPECT_EQ(fit, fitPipelinesToDevice(b->spec(), cfg)) << row.name;
        cfg.pipelinesPerSet = fit;
        ResourceReport ra = estimateResources(a->spec(), cfg);
        ResourceReport rb = estimateResources(b->spec(), cfg);
        expectSameResources(ra.pipelines, rb.pipelines, "pipelines",
                            row.name);
        expectSameResources(ra.taskQueues, rb.taskQueues, "taskQueues",
                            row.name);
        expectSameResources(ra.ruleEngines, rb.ruleEngines, "ruleEngines",
                            row.name);
        expectSameResources(ra.memSystem, rb.memSystem, "memSystem",
                            row.name);
    }
}

} // namespace
} // namespace bench
} // namespace apir
