/**
 * @file
 * FFT — 1-D radix-2 Cooley-Tukey transform with binary-exchange
 * parallelization.
 *
 * The array of complex single-precision points (8 bytes each, so a
 * 32-byte cache block holds exactly four data items — the ratio behind
 * the paper's Figure 1 observation) is block-distributed.  The transform
 * ping-pongs between two shared arrays; each stage every processor
 * writes its own contiguous chunk and gathers its butterfly partners,
 * which for the first log2(P) exchange stages live in another
 * processor's chunk and are read as *consecutive* remote items (spatial
 * locality).  A barrier separates stages.  Communication is regular and
 * statically determinable, with a lower compute-to-communication ratio
 * than EP.
 */

#ifndef ABSIM_APPS_FFT_HH
#define ABSIM_APPS_FFT_HH

#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/app.hh"
#include "runtime/sync.hh"

namespace absim::apps {

class FftApp : public App
{
  public:
    using Cplx = std::complex<float>;

    std::string name() const override { return "fft"; }
    void setup(rt::Runtime &rt, rt::SharedHeap &heap,
               const AppParams &params) override;
    void worker(rt::Proc &p) override;
    void check() const override;

    /** The deterministic input signal. */
    static std::vector<std::complex<double>>
    makeInput(std::uint64_t n, std::uint64_t seed);

    /** Native double-precision reference transform (same algorithm). */
    static std::vector<std::complex<double>>
    referenceFft(std::vector<std::complex<double>> a);

    /**
     * The n/2 twiddles of an n-point transform in precision T: entry k
     * is e^{-2πik/n}, its angle computed in double and rounded to T.
     * A stage of length len reads entry pos·(n/len), which is bit for
     * bit the twiddle it would compute from pos and len (scaling both
     * by a power of two leaves the rounded quotient unchanged).
     */
    template <typename T>
    static std::vector<std::complex<T>> twiddles(std::uint64_t n);

  private:
    std::uint64_t n_ = 0;
    std::uint64_t seed_ = 0;
    std::uint32_t procs_ = 0;
    std::uint32_t stages_ = 0;

    rt::SharedArray<Cplx> bufA_;
    rt::SharedArray<Cplx> bufB_;
    std::unique_ptr<rt::Barrier> barrier_;
    /// Host-side only: compute() still charges the twiddle each use.
    std::vector<Cplx> twiddle_;
    bool resultInA_ = false; ///< Which buffer holds the final result.
};

} // namespace absim::apps

#endif // ABSIM_APPS_FFT_HH
