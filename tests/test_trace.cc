/**
 * @file
 * Tests for the tracing subsystem and its wiring into the machines.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "machine_fixture.hh"
#include "sim/trace.hh"

namespace {

using namespace absim;
using absim::test::MachineHarness;

/** Restores global trace state around each test. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::Trace::instance().disableAll();
        sim::Trace::instance().setSink(&buffer_);
    }

    void
    TearDown() override
    {
        sim::Trace::instance().disableAll();
        sim::Trace::instance().setSink(nullptr); // Back to cerr.
    }

    std::ostringstream buffer_;
};

TEST_F(TraceTest, DisabledByDefault)
{
    sim::EventQueue eq;
    ABSIM_TRACE(eq, Protocol, "should not appear");
    EXPECT_TRUE(buffer_.str().empty());
}

TEST_F(TraceTest, EnabledCategoryEmitsTimestampedLines)
{
    sim::Trace::instance().enable(sim::TraceCategory::Protocol);
    sim::EventQueue eq;
    eq.schedule(123, [&] { ABSIM_TRACE(eq, Protocol, "hello " << 7); });
    eq.run();
    EXPECT_EQ(buffer_.str(), "123: Protocol: hello 7\n");
}

TEST_F(TraceTest, CategoriesAreIndependent)
{
    sim::Trace::instance().enable(sim::TraceCategory::Network);
    sim::EventQueue eq;
    ABSIM_TRACE(eq, Protocol, "nope");
    ABSIM_TRACE(eq, Network, "yes");
    EXPECT_EQ(buffer_.str(), "0: Network: yes\n");
    sim::Trace::instance().disable(sim::TraceCategory::Network);
    ABSIM_TRACE(eq, Network, "gone");
    EXPECT_EQ(buffer_.str(), "0: Network: yes\n");
}

TEST_F(TraceTest, ProtocolTransactionsAreTraced)
{
    sim::Trace::instance().enable(sim::TraceCategory::Protocol);
    MachineHarness h(mach::MachineKind::Target, net::TopologyKind::Full,
                     2);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 1);
    h.run([&](rt::Proc &p) {
        if (p.node() == 0) {
            a.read(p, 0);
            a.write(p, 0, 1);
        }
    });
    const std::string log = buffer_.str();
    EXPECT_NE(log.find("read miss node=0"), std::string::npos);
    EXPECT_NE(log.find("upgrade node=0"), std::string::npos);
}

TEST_F(TraceTest, NetworkTransfersAreTraced)
{
    sim::Trace::instance().enable(sim::TraceCategory::Network);
    MachineHarness h(mach::MachineKind::Target, net::TopologyKind::Full,
                     2);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 1);
    h.run([&](rt::Proc &p) {
        if (p.node() == 0)
            a.read(p, 0);
    });
    const std::string log = buffer_.str();
    EXPECT_NE(log.find("transfer 0->1 8B"), std::string::npos);
    EXPECT_NE(log.find("transfer 1->0 32B"), std::string::npos);
}

TEST_F(TraceTest, LogPMessagesAreTraced)
{
    sim::Trace::instance().enable(sim::TraceCategory::LogP);
    MachineHarness h(mach::MachineKind::LogP, net::TopologyKind::Full, 2);
    rt::SharedArray<std::uint64_t> a(h.heap, 4, rt::Placement::OnNode, 1);
    h.run([&](rt::Proc &p) {
        if (p.node() == 0)
            a.read(p, 0);
    });
    const std::string log = buffer_.str();
    EXPECT_NE(log.find("msg 0->1"), std::string::npos);
    EXPECT_NE(log.find("msg 1->0"), std::string::npos);
}

TEST(BoundedTraceSink, SingleCharacterWritesKeepTheBoundedTail)
{
    sim::BoundedTraceSink sink(4);
    std::ostream &os = sink.stream();
    for (const char c : std::string("ab\ncdef"))
        os.put(c);
    EXPECT_TRUE(sink.truncated());
    EXPECT_EQ(sink.excerpt(),
              "[trace tail; head dropped at 4 bytes]\ncdef");
    os.put('\n');
    os.put('g');
    EXPECT_EQ(sink.excerpt(),
              "[trace tail; head dropped at 4 bytes]\ng");
}

} // namespace
