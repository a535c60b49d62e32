#include "apps/fft.hh"

#include <cmath>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "sim/rng.hh"

namespace absim::apps {

namespace {

constexpr std::uint64_t kDefaultPoints = 1024;

/** Cycle charge per butterfly output: a complex multiply-add plus the
 *  twiddle evaluation, ~20 cycles of the 33 MHz FPU. */
constexpr std::uint64_t kCyclesPerButterfly = 20;

std::uint32_t
log2u(std::uint64_t x)
{
    std::uint32_t r = 0;
    while ((std::uint64_t{1} << r) < x)
        ++r;
    return r;
}

std::uint64_t
bitReverse(std::uint64_t x, std::uint32_t bits)
{
    std::uint64_t r = 0;
    for (std::uint32_t b = 0; b < bits; ++b)
        r |= ((x >> b) & 1u) << (bits - 1 - b);
    return r;
}

} // namespace

std::vector<std::complex<double>>
FftApp::makeInput(std::uint64_t n, std::uint64_t seed)
{
    sim::Rng rng(seed * 7919 + 17);
    std::vector<std::complex<double>> input(n);
    for (auto &v : input)
        v = {2.0 * rng.uniform() - 1.0, 2.0 * rng.uniform() - 1.0};
    return input;
}

template <typename T>
std::vector<std::complex<T>>
FftApp::twiddles(std::uint64_t n)
{
    std::vector<std::complex<T>> table(n / 2);
    for (std::uint64_t k = 0; k < n / 2; ++k) {
        const T ang = static_cast<T>(-2.0 * std::numbers::pi *
                                     static_cast<double>(k) /
                                     static_cast<double>(n));
        table[k] = {std::cos(ang), std::sin(ang)};
    }
    return table;
}

template std::vector<std::complex<float>> FftApp::twiddles(std::uint64_t);
template std::vector<std::complex<double>> FftApp::twiddles(std::uint64_t);

std::vector<std::complex<double>>
FftApp::referenceFft(std::vector<std::complex<double>> a)
{
    const std::uint64_t n = a.size();
    const std::uint32_t bits = log2u(n);
    const auto twiddle = twiddles<double>(n);
    std::vector<std::complex<double>> b(n);
    for (std::uint64_t t = 0; t < n; ++t)
        b[t] = a[bitReverse(t, bits)];
    a.swap(b);
    for (std::uint64_t len = 2; len <= n; len <<= 1) {
        const std::uint64_t half = len / 2;
        const std::uint64_t stride = n / len;
        for (std::uint64_t t = 0; t < n; ++t) {
            const std::uint64_t pos = t & (len - 1);
            if (pos < half)
                b[t] = a[t] + twiddle[pos * stride] * a[t + half];
            else
                b[t] = a[t - half] - twiddle[(pos - half) * stride] * a[t];
        }
        a.swap(b);
    }
    return a;
}

void
FftApp::setup(rt::Runtime &rt, rt::SharedHeap &heap, const AppParams &params)
{
    n_ = params.n ? params.n : kDefaultPoints;
    if ((n_ & (n_ - 1)) != 0 || n_ < 2)
        throw std::invalid_argument("FFT size must be a power of two >= 2");
    seed_ = params.seed;
    procs_ = rt.procs();
    stages_ = log2u(n_);
    if (n_ % procs_ != 0)
        throw std::invalid_argument("FFT size must be divisible by P");

    bufA_ = rt::SharedArray<Cplx>(heap, n_, rt::Placement::Blocked);
    bufB_ = rt::SharedArray<Cplx>(heap, n_, rt::Placement::Blocked);
    barrier_ = std::make_unique<rt::Barrier>(heap, procs_);
    twiddle_ = twiddles<float>(n_);

    const auto input = makeInput(n_, seed_);
    for (std::uint64_t i = 0; i < n_; ++i)
        bufA_.raw(i) = Cplx(static_cast<float>(input[i].real()),
                            static_cast<float>(input[i].imag()));

    // Permutation + log2(n) butterfly stages; result lands in A when the
    // number of ping-pong transfers is even.
    resultInA_ = ((stages_ + 1) % 2) == 0;
}

void
FftApp::worker(rt::Proc &p)
{
    const std::uint64_t chunk = n_ / procs_;
    const std::uint64_t lo = p.node() * chunk;
    const std::uint64_t hi = lo + chunk;

    rt::SharedArray<Cplx> *src = &bufA_;
    rt::SharedArray<Cplx> *dst = &bufB_;

    // Phase 0: bit-reversal permutation (static, scattered reads).
    p.beginPhase("bit-reverse");
    for (std::uint64_t t = lo; t < hi; ++t) {
        const Cplx v = src->read(p, bitReverse(t, stages_));
        dst->write(p, t, v);
        p.compute(4);
    }
    std::swap(src, dst);
    barrier_->arrive(p);

    p.beginPhase("butterflies");
    for (std::uint64_t len = 2; len <= n_; len <<= 1) {
        const std::uint64_t half = len / 2;
        const std::uint64_t stride = n_ / len;
        for (std::uint64_t t = lo; t < hi; ++t) {
            const std::uint64_t pos = t & (len - 1);
            Cplx out;
            if (pos < half) {
                // Partner above: for exchange stages (half >= chunk) this
                // is a remote gather of consecutive items.
                const Cplx u = src->read(p, t);
                const Cplx v = src->read(p, t + half);
                out = u + twiddle_[pos * stride] * v;
            } else {
                const Cplx u = src->read(p, t - half);
                const Cplx v = src->read(p, t);
                out = u - twiddle_[(pos - half) * stride] * v;
            }
            dst->write(p, t, out);
            p.compute(kCyclesPerButterfly);
        }
        std::swap(src, dst);
        barrier_->arrive(p);
    }
}

void
FftApp::check() const
{
    const auto expect = referenceFft(makeInput(n_, seed_));
    const rt::SharedArray<Cplx> &result = resultInA_ ? bufA_ : bufB_;

    double max_err = 0.0, scale = 0.0;
    for (std::uint64_t i = 0; i < n_; ++i) {
        const std::complex<double> got{result.raw(i).real(),
                                       result.raw(i).imag()};
        max_err = std::max(max_err, std::abs(got - expect[i]));
        scale = std::max(scale, std::abs(expect[i]));
    }
    if (max_err > 1e-3 * std::max(scale, 1.0)) {
        std::ostringstream msg;
        msg << "FFT result error " << max_err << " exceeds tolerance"
            << " (scale " << scale << ")";
        throw std::runtime_error(msg.str());
    }
}

} // namespace absim::apps
