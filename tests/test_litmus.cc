/**
 * @file
 * Sequential-consistency litmus tests on the target machine.
 *
 * The paper's machines are sequentially consistent; the simulator
 * achieves SC by executing all shared accesses in global time order with
 * blocking per-access semantics.  These are the classic litmus shapes
 * (store buffering, message passing, coherence order), each swept over
 * many relative timings so the interesting interleavings actually occur.
 */

#include <gtest/gtest.h>

#include "machine_fixture.hh"

namespace {

using namespace absim;
using absim::test::MachineHarness;
using mach::MachineKind;
using net::TopologyKind;

/** Sweep both writers across relative skews; kind x skew parameter. */
class Litmus
    : public ::testing::TestWithParam<
          std::tuple<mach::MachineKind, std::uint64_t>>
{
};

TEST_P(Litmus, StoreBuffering)
{
    // SB: P0: x=1; r0=y.   P1: y=1; r1=x.
    // SC forbids r0 == 0 && r1 == 0.
    const auto [kind, skew] = GetParam();
    MachineHarness h(kind, TopologyKind::Mesh2D, 4);
    rt::SharedArray<std::uint64_t> x(h.heap, 4, rt::Placement::OnNode, 2);
    rt::SharedArray<std::uint64_t> y(h.heap, 4, rt::Placement::OnNode, 3);
    x.raw(0) = 0;
    y.raw(0) = 0;
    std::uint64_t r0 = 9, r1 = 9;
    h.run([&, kind = kind, skew = skew](rt::Proc &p) {
        (void)kind;
        if (p.node() == 0) {
            x.write(p, 0, 1);
            r0 = y.read(p, 0);
        } else if (p.node() == 1) {
            p.compute(skew);
            y.write(p, 0, 1);
            r1 = x.read(p, 0);
        }
    });
    EXPECT_FALSE(r0 == 0 && r1 == 0)
        << "SC violation at skew " << skew;
}

TEST_P(Litmus, MessagePassing)
{
    // MP: P0: data=42; flag=1.   P1: r0=flag; r1=data.
    // SC forbids r0 == 1 && r1 != 42.
    const auto [kind, skew] = GetParam();
    MachineHarness h(kind, TopologyKind::Mesh2D, 4);
    rt::SharedArray<std::uint64_t> data(h.heap, 4, rt::Placement::OnNode,
                                        2);
    rt::SharedArray<std::uint64_t> flag(h.heap, 4, rt::Placement::OnNode,
                                        3);
    data.raw(0) = 0;
    flag.raw(0) = 0;
    std::uint64_t r0 = 9, r1 = 9;
    h.run([&, skew = skew](rt::Proc &p) {
        if (p.node() == 0) {
            data.write(p, 0, 42);
            flag.write(p, 0, 1);
        } else if (p.node() == 1) {
            p.compute(skew);
            r0 = flag.read(p, 0);
            r1 = data.read(p, 0);
        }
    });
    if (r0 == 1) {
        EXPECT_EQ(r1, 42u) << "MP violation at skew " << skew;
    }
}

TEST_P(Litmus, CoherenceSameLocation)
{
    // CoRR: two reads of the same location by the same processor must
    // not see a newer then an older value.
    const auto [kind, skew] = GetParam();
    MachineHarness h(kind, TopologyKind::Mesh2D, 4);
    rt::SharedArray<std::uint64_t> x(h.heap, 4, rt::Placement::OnNode, 3);
    x.raw(0) = 0;
    std::uint64_t r0 = 0, r1 = 0;
    h.run([&, skew = skew](rt::Proc &p) {
        if (p.node() == 0) {
            p.compute(skew);
            x.write(p, 0, 1);
        } else if (p.node() == 1) {
            r0 = x.read(p, 0);
            r1 = x.read(p, 0);
        }
    });
    EXPECT_LE(r0, r1) << "CoRR violation at skew " << skew;
}

TEST_P(Litmus, IndependentReadsIndependentWrites)
{
    // IRIW: P0: x=1.  P1: y=1.  P2: r0=x; r1=y.  P3: r2=y; r3=x.
    // SC forbids the two readers observing the writes in opposite
    // orders: r0==1 && r1==0 && r2==1 && r3==0.
    const auto [kind, skew] = GetParam();
    MachineHarness h(kind, TopologyKind::Mesh2D, 4);
    rt::SharedArray<std::uint64_t> x(h.heap, 4, rt::Placement::OnNode, 0);
    rt::SharedArray<std::uint64_t> y(h.heap, 4, rt::Placement::OnNode, 1);
    x.raw(0) = 0;
    y.raw(0) = 0;
    std::uint64_t r0 = 9, r1 = 9, r2 = 9, r3 = 9;
    h.run([&, skew = skew](rt::Proc &p) {
        switch (p.node()) {
          case 0:
            p.compute(skew);
            x.write(p, 0, 1);
            break;
          case 1:
            y.write(p, 0, 1);
            break;
          case 2:
            p.compute(skew / 2);
            r0 = x.read(p, 0);
            r1 = y.read(p, 0);
            break;
          default:
            p.compute(skew / 3);
            r2 = y.read(p, 0);
            r3 = x.read(p, 0);
        }
    });
    EXPECT_FALSE(r0 == 1 && r1 == 0 && r2 == 1 && r3 == 0)
        << "IRIW violation at skew " << skew;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Litmus,
    ::testing::Combine(::testing::Values(MachineKind::Target,
                                         MachineKind::LogPC),
                       ::testing::Values(0u, 1u, 2u, 5u, 13u, 40u, 67u,
                                         150u, 500u)),
    [](const auto &info) {
        return mach::toString(std::get<0>(info.param)).substr(0, 4) +
               (std::get<0>(info.param) == MachineKind::LogPC ? "C" : "") +
               "_skew" + std::to_string(std::get<1>(info.param));
    });

} // namespace
