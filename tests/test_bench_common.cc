/**
 * @file
 * The microbench harness (bench/bench_common.hh): the BENCH_*.json it
 * writes carries every counter exactly, so bench_compare's value_sum*
 * checksums compare the simulated results bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "json/json.hh"

namespace {

using namespace absim;

TEST(MicroSuite, CountersReadBackAsTheExactDouble)
{
    const std::vector<double> values = {
        0.1 + 0.2,           // 0.30000000000000004
        744272.123456789012, // a figure checksum's magnitude
        3722259.0,           // an event count
        1.0 / 3.0,
    };
    std::vector<std::string> args = {"bench_test", "--repeats", "1",
                                     "--warmup",   "0",         "--json-dir",
                                     testing::TempDir()};
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    bench::MicroSuite suite("counters_exact", static_cast<int>(argv.size()),
                            argv.data());
    suite.run("counters", "x", false, [&] {
        for (std::size_t i = 0; i < values.size(); ++i)
            suite.setCounter("value_sum_" + std::to_string(i), values[i]);
        return 1.0;
    });
    ASSERT_EQ(suite.finish(), 0);

    const std::string path = testing::TempDir() + "/BENCH_counters_exact.json";
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::ostringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    json::Value doc;
    ASSERT_TRUE(json::parse(text.str(), doc)) << text.str();
    const json::Value *benches = doc.find("benches");
    ASSERT_NE(benches, nullptr);
    ASSERT_EQ(benches->items.size(), 1u);
    const json::Value *counters = benches->items[0].find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_EQ(counters->members.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        const json::Value *counter =
            counters->find("value_sum_" + std::to_string(i));
        ASSERT_NE(counter, nullptr) << i;
        double read = 0.0;
        ASSERT_TRUE(json::toDouble(*counter, read)) << counter->text;
        EXPECT_EQ(read, values[i]) << counter->text;
    }
}

} // namespace
