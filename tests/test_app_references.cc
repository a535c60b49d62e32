/**
 * @file
 * Tests of the applications' native reference computations and input
 * generators — the ground truth the simulated runs are checked against.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <type_traits>

#include "apps/cg.hh"
#include "apps/cholesky.hh"
#include "apps/ep.hh"
#include "apps/fft.hh"
#include "apps/stencil.hh"

namespace {

using namespace absim;

TEST(FftReference, MatchesNaiveDftOnSmallInput)
{
    const std::uint64_t n = 64;
    const auto input = apps::FftApp::makeInput(n, 99);
    const auto fast = apps::FftApp::referenceFft(input);

    for (std::uint64_t k = 0; k < n; ++k) {
        std::complex<double> sum{0, 0};
        for (std::uint64_t t = 0; t < n; ++t) {
            const double ang = -2.0 * std::numbers::pi *
                               static_cast<double>(k * t) /
                               static_cast<double>(n);
            sum += input[t] * std::complex<double>{std::cos(ang),
                                                   std::sin(ang)};
        }
        ASSERT_NEAR(std::abs(fast[k] - sum), 0.0, 1e-9) << "bin " << k;
    }
}

TEST(FftReference, LinearityHolds)
{
    const std::uint64_t n = 128;
    auto a = apps::FftApp::makeInput(n, 1);
    auto b = apps::FftApp::makeInput(n, 2);
    std::vector<std::complex<double>> sum(n);
    for (std::uint64_t i = 0; i < n; ++i)
        sum[i] = a[i] + b[i];
    const auto fa = apps::FftApp::referenceFft(a);
    const auto fb = apps::FftApp::referenceFft(b);
    const auto fsum = apps::FftApp::referenceFft(sum);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_NEAR(std::abs(fsum[i] - (fa[i] + fb[i])), 0.0, 1e-9);
}

/** The twiddle a butterfly at @p pos of a @p len stage used to
 *  compute for itself, in precision T. */
template <typename T>
std::complex<T>
perButterflyTwiddle(std::uint64_t pos, std::uint64_t len)
{
    const T ang = static_cast<T>(-2.0 * std::numbers::pi *
                                 static_cast<double>(pos) /
                                 static_cast<double>(len));
    return {std::cos(ang), std::sin(ang)};
}

template <typename T>
void
expectTwiddlesAreThePerButterflyOnes()
{
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                    std::uint64_t>;
    for (std::uint64_t n = 2; n <= 8192; n <<= 1) {
        const auto table = apps::FftApp::twiddles<T>(n);
        ASSERT_EQ(table.size(), n / 2);
        for (std::uint64_t len = 2; len <= n; len <<= 1) {
            for (std::uint64_t pos = 0; pos < len / 2; ++pos) {
                const std::complex<T> got = table[pos * (n / len)];
                const std::complex<T> want =
                    perButterflyTwiddle<T>(pos, len);
                ASSERT_EQ(std::bit_cast<Bits>(got.real()),
                          std::bit_cast<Bits>(want.real()))
                    << "n=" << n << " len=" << len << " pos=" << pos;
                ASSERT_EQ(std::bit_cast<Bits>(got.imag()),
                          std::bit_cast<Bits>(want.imag()))
                    << "n=" << n << " len=" << len << " pos=" << pos;
            }
        }
    }
}

TEST(FftReference, TwiddleTableIsBitForBitThePerButterflyTwiddle)
{
    // The app's float table and the reference's double table: a
    // stage's lookup must be exactly the twiddle it once computed.
    expectTwiddlesAreThePerButterflyOnes<float>();
    expectTwiddlesAreThePerButterflyOnes<double>();
}

TEST(EpReference, SliceSumInvariantToProcessorCount)
{
    // The total pair count is fixed, so the aggregate tally must only
    // depend on how slices partition the stream... which it does NOT in
    // general (each proc has its own stream).  What must hold: the same
    // (pairs, seed, procs) triple is deterministic, and counts sum to at
    // most the pair count.
    const auto counts = apps::EpApp::referenceCounts(4096, 7, 4);
    const auto again = apps::EpApp::referenceCounts(4096, 7, 4);
    std::uint64_t total = 0;
    for (std::uint32_t a = 0; a < apps::EpApp::kAnnuli; ++a) {
        EXPECT_EQ(counts[a], again[a]);
        total += counts[a];
    }
    EXPECT_LE(total, 4096u);
    EXPECT_GT(total, 4096u / 2); // Polar method accepts ~78.5%.
    // Gaussian mass concentrates in the first annulus.
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[2]);
}

TEST(CgReference, MatrixIsSymmetricDiagonallyDominant)
{
    const auto a = apps::CgApp::makeMatrix(64, 3);
    ASSERT_EQ(a.n, 64u);
    // Dense mirror for symmetry checking.
    std::vector<std::vector<double>> dense(64,
                                           std::vector<double>(64, 0.0));
    for (std::uint64_t i = 0; i < 64; ++i)
        for (std::uint64_t k = a.rowPtr[i]; k < a.rowPtr[i + 1]; ++k)
            dense[i][a.col[k]] = a.val[k];
    for (std::uint64_t i = 0; i < 64; ++i) {
        double offdiag = 0.0;
        for (std::uint64_t j = 0; j < 64; ++j) {
            EXPECT_DOUBLE_EQ(dense[i][j], dense[j][i]);
            if (i != j)
                offdiag += std::abs(dense[i][j]);
        }
        EXPECT_GT(dense[i][i], offdiag) << "row " << i;
    }
}

TEST(CholeskyReference, FillPatternIsClosed)
{
    // The right-looking fan-out update requires the fill closure:
    // L[k][j] and L[i][j] nonzero with i >= k > j  =>  L[i][k] nonzero.
    const auto sym = apps::CholeskyApp::makeProblem(48, 9);
    const std::uint64_t n = sym.n;
    for (std::uint64_t j = 0; j < n; ++j) {
        for (std::uint64_t s = sym.colPtr[j]; s < sym.colPtr[j + 1];
             ++s) {
            const std::uint32_t k = sym.rowIdx[s];
            if (k == j)
                continue;
            for (std::uint64_t t = s; t < sym.colPtr[j + 1]; ++t) {
                const std::uint32_t i = sym.rowIdx[t];
                ASSERT_GE(sym.rowPos[k][i], 0)
                    << "missing fill at (" << i << "," << k << ")";
            }
        }
    }
}

TEST(CholeskyReference, DependencyCountsMatchPattern)
{
    const auto sym = apps::CholeskyApp::makeProblem(32, 4);
    // depCount[k] = number of structural nonzeros left of the diagonal
    // in row k == number of columns whose struct contains k.
    std::vector<std::uint32_t> expect(sym.n, 0);
    for (std::uint64_t j = 0; j < sym.n; ++j)
        for (std::uint64_t s = sym.colPtr[j]; s < sym.colPtr[j + 1]; ++s)
            if (sym.rowIdx[s] > j)
                ++expect[sym.rowIdx[s]];
    for (std::uint64_t k = 0; k < sym.n; ++k)
        EXPECT_EQ(sym.depCount[k], expect[k]) << "column " << k;
    // Column 0 never has dependencies.
    EXPECT_EQ(sym.depCount[0], 0u);
}

TEST(StencilReference, BoundaryIsFixed)
{
    const std::uint64_t n = 16;
    const auto before = apps::StencilApp::reference(n, 5, 0);
    const auto after = apps::StencilApp::reference(n, 5, 6);
    for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t j = 0; j < n; ++j) {
            if (i == 0 || j == 0 || i == n - 1 || j == n - 1) {
                EXPECT_EQ(after[i * n + j], before[i * n + j]);
            }
        }
    }
}

TEST(StencilReference, InteriorIsNeighborMean)
{
    const std::uint64_t n = 8;
    const auto zero = apps::StencilApp::reference(n, 3, 0);
    const auto one = apps::StencilApp::reference(n, 3, 1);
    for (std::uint64_t i = 1; i + 1 < n; ++i) {
        for (std::uint64_t j = 1; j + 1 < n; ++j) {
            const double mean =
                0.25 * (zero[(i - 1) * n + j] + zero[(i + 1) * n + j] +
                        zero[i * n + j - 1] + zero[i * n + j + 1]);
            EXPECT_DOUBLE_EQ(one[i * n + j], mean);
        }
    }
}

TEST(StencilReference, SweepsContractTowardBoundaryRange)
{
    // Jacobi iteration with fixed boundary keeps values within the
    // initial min/max (maximum principle).
    const std::uint64_t n = 12;
    const auto init = apps::StencilApp::reference(n, 8, 0);
    const auto relaxed = apps::StencilApp::reference(n, 8, 10);
    const auto [lo, hi] =
        std::minmax_element(init.begin(), init.end());
    for (const double v : relaxed) {
        EXPECT_GE(v, *lo - 1e-12);
        EXPECT_LE(v, *hi + 1e-12);
    }
}

TEST(CholeskyReference, DiagonalFirstInEveryColumn)
{
    const auto sym = apps::CholeskyApp::makeProblem(32, 4);
    for (std::uint64_t j = 0; j < sym.n; ++j) {
        ASSERT_LT(sym.colPtr[j], sym.colPtr[j + 1]);
        EXPECT_EQ(sym.rowIdx[sym.colPtr[j]], j);
    }
}

} // namespace
