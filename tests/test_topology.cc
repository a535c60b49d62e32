/**
 * @file
 * Unit and property tests for the three interconnect topologies: route
 * validity (every route is a connected minimal path), dimension-ordered
 * routing properties, bisection link counts, and the mesh shape rule.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "net/topology.hh"

namespace {

using namespace absim::net;

TEST(TopologyFactory, RejectsNonPowerOfTwo)
{
    EXPECT_THROW(Topology::make(TopologyKind::Full, 3),
                 std::invalid_argument);
    EXPECT_THROW(Topology::make(TopologyKind::Hypercube, 0),
                 std::invalid_argument);
    EXPECT_THROW(Topology::make(TopologyKind::Mesh2D, 24),
                 std::invalid_argument);
}

TEST(TopologyFactory, ToStringNames)
{
    EXPECT_EQ(toString(TopologyKind::Full), "full");
    EXPECT_EQ(toString(TopologyKind::Hypercube), "cube");
    EXPECT_EQ(toString(TopologyKind::Mesh2D), "mesh");
}

TEST(FullTopology, SingleHopRoutes)
{
    FullTopology full(8);
    for (NodeId s = 0; s < 8; ++s) {
        for (NodeId d = 0; d < 8; ++d) {
            if (s == d)
                continue;
            std::vector<LinkId> path;
            full.route(s, d, path);
            ASSERT_EQ(path.size(), 1u);
            EXPECT_EQ(full.hops(s, d), 1u);
            EXPECT_EQ(full.linkEndpoints(path[0]),
                      std::make_pair(s, d));
        }
    }
}

TEST(FullTopology, DistinctPairsUseDistinctLinks)
{
    FullTopology full(4);
    std::set<LinkId> seen;
    for (NodeId s = 0; s < 4; ++s) {
        for (NodeId d = 0; d < 4; ++d) {
            if (s == d)
                continue;
            std::vector<LinkId> path;
            full.route(s, d, path);
            EXPECT_TRUE(seen.insert(path[0]).second)
                << "link shared between pairs";
        }
    }
}

TEST(FullTopology, BisectionLinks)
{
    // 2 * (p/2)^2 links cross the cut.
    EXPECT_EQ(FullTopology(2).bisectionLinks(), 2u);
    EXPECT_EQ(FullTopology(4).bisectionLinks(), 8u);
    EXPECT_EQ(FullTopology(16).bisectionLinks(), 128u);
}

TEST(HypercubeTopology, HopsIsHammingDistance)
{
    HypercubeTopology cube(16);
    EXPECT_EQ(cube.hops(0b0000, 0b1111), 4u);
    EXPECT_EQ(cube.hops(0b0101, 0b0100), 1u);
    EXPECT_EQ(cube.hops(3, 3), 0u);
}

TEST(HypercubeTopology, EcubeFixesBitsLowToHigh)
{
    HypercubeTopology cube(8);
    std::vector<LinkId> path;
    cube.route(0b000, 0b101, path);
    ASSERT_EQ(path.size(), 2u);
    // First hop flips bit 0 (0 -> 1), second flips bit 2 (1 -> 5).
    EXPECT_EQ(cube.linkEndpoints(path[0]), std::make_pair(NodeId{0},
                                                          NodeId{1}));
    EXPECT_EQ(cube.linkEndpoints(path[1]), std::make_pair(NodeId{1},
                                                          NodeId{5}));
}

TEST(HypercubeTopology, BisectionLinks)
{
    EXPECT_EQ(HypercubeTopology(8).bisectionLinks(), 8u);
    EXPECT_EQ(HypercubeTopology(32).bisectionLinks(), 32u);
}

TEST(MeshTopology, ShapeRule)
{
    std::uint32_t r = 0, c = 0;
    MeshTopology::shapeFor(16, r, c);
    EXPECT_EQ(r, 4u);
    EXPECT_EQ(c, 4u);
    MeshTopology::shapeFor(32, r, c);
    EXPECT_EQ(r, 4u);
    EXPECT_EQ(c, 8u); // Odd power of two: cols = 2 x rows.
    MeshTopology::shapeFor(2, r, c);
    EXPECT_EQ(r, 1u);
    EXPECT_EQ(c, 2u);
}

TEST(MeshTopology, HopsIsManhattanDistance)
{
    MeshTopology mesh(16); // 4x4
    EXPECT_EQ(mesh.hops(0, 15), 6u);
    EXPECT_EQ(mesh.hops(5, 6), 1u);
    EXPECT_EQ(mesh.hops(1, 13), 3u);
}

TEST(MeshTopology, XyRoutesColumnFirst)
{
    MeshTopology mesh(16); // 4x4, node = 4*row + col.
    std::vector<LinkId> path;
    mesh.route(0, 10, path); // (0,0) -> (2,2)
    ASSERT_EQ(path.size(), 4u);
    // Two east hops, then two south hops.
    EXPECT_EQ(mesh.linkEndpoints(path[0]).second, 1u);
    EXPECT_EQ(mesh.linkEndpoints(path[1]).second, 2u);
    EXPECT_EQ(mesh.linkEndpoints(path[2]).second, 6u);
    EXPECT_EQ(mesh.linkEndpoints(path[3]).second, 10u);
}

TEST(MeshTopology, BisectionLinks)
{
    EXPECT_EQ(MeshTopology(16).bisectionLinks(), 8u);  // 4x4: 2*4 rows.
    EXPECT_EQ(MeshTopology(32).bisectionLinks(), 8u);  // 4x8: 2*4 rows.
    EXPECT_EQ(MeshTopology(4).bisectionLinks(), 4u);   // 2x2.
}

/**
 * Property test over all topologies and sizes: every route is a connected
 * path from src to dst with exactly hops() links and no repeated links.
 */
class RouteProperty
    : public ::testing::TestWithParam<std::tuple<TopologyKind,
                                                 std::uint32_t>>
{
};

TEST_P(RouteProperty, RoutesAreConnectedMinimalPaths)
{
    const auto [kind, p] = GetParam();
    const auto topo = Topology::make(kind, p);
    for (NodeId s = 0; s < p; ++s) {
        for (NodeId d = 0; d < p; ++d) {
            if (s == d)
                continue;
            std::vector<LinkId> path;
            topo->route(s, d, path);
            ASSERT_EQ(path.size(), topo->hops(s, d));
            std::set<LinkId> unique(path.begin(), path.end());
            EXPECT_EQ(unique.size(), path.size()) << "repeated link";
            NodeId cur = s;
            for (const LinkId link : path) {
                ASSERT_LT(link, topo->linkCount());
                const auto [from, to] = topo->linkEndpoints(link);
                ASSERT_EQ(from, cur) << "disconnected path";
                cur = to;
            }
            EXPECT_EQ(cur, d);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, RouteProperty,
    ::testing::Combine(::testing::Values(TopologyKind::Full,
                                         TopologyKind::Hypercube,
                                         TopologyKind::Mesh2D),
                       ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u, 64u)),
    [](const auto &info) {
        return toString(std::get<0>(info.param)) +
               std::to_string(std::get<1>(info.param));
    });

/**
 * Dimension-ordered routing is deadlock-free under incremental link
 * acquisition iff link usage respects a global order along every path.
 * Check the sufficient condition we rely on: along any route, link ids
 * grouped by routing phase never go "backwards" in dimension order.
 */
TEST(RouteProperty, MeshXyNeverTurnsBackToX)
{
    MeshTopology mesh(64); // 8x8
    for (NodeId s = 0; s < 64; ++s) {
        for (NodeId d = 0; d < 64; ++d) {
            if (s == d)
                continue;
            std::vector<LinkId> path;
            mesh.route(s, d, path);
            bool seen_y = false;
            for (const LinkId link : path) {
                const bool is_y = (link % 4) >= 2;
                if (seen_y) {
                    EXPECT_TRUE(is_y) << "route turned back to X";
                }
                seen_y = seen_y || is_y;
            }
        }
    }
}

} // namespace
