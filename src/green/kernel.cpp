#include "green/kernel.hpp"

#include "common/check.hpp"
#include "fft/freq.hpp"

namespace lc::green {

ComplexField KernelSpectrum::materialize(const Grid3& g) const {
  ComplexField out(g);
  for_each_point(Box3::of(g), [&](const Index3& p) { out(p) = eval(p, g); });
  return out;
}

DenseSpectrum::DenseSpectrum(const ComplexField& spectrum, std::string name)
    : hat_(Grid3{spectrum.grid().nx / 2 + 1, spectrum.grid().ny,
                 spectrum.grid().nz}),
      full_(spectrum.grid()),
      name_(std::move(name)) {
  for_each_point(Box3::of(hat_.grid()), [&](const Index3& p) {
    const cplx mirror = spectrum(fft::mirror_bin(p, full_));
    hat_(p) = 0.5 * (spectrum(p) + std::conj(mirror));
  });
}

cplx DenseSpectrum::eval(const Index3& bin, const Grid3& g) const {
  LC_CHECK_ARG(g == full_, "dense spectrum grid mismatch");
  if (bin.x <= full_.nx / 2) return hat_(bin);
  return std::conj(hat_(fft::mirror_bin(bin, full_)));
}

void DenseSpectrum::eval_z_run(const Index3& start, const Grid3& g,
                               std::span<cplx> out) const {
  LC_CHECK_ARG(g == full_, "dense spectrum grid mismatch");
  if (start.x <= full_.nx / 2) {
    // Stored half: the z run reads straight off the table.
    for (std::size_t t = 0; t < out.size(); ++t) {
      out[t] = hat_({start.x, start.y, start.z + static_cast<i64>(t)});
    }
    return;
  }
  for (std::size_t t = 0; t < out.size(); ++t) {
    out[t] = eval({start.x, start.y, start.z + static_cast<i64>(t)}, g);
  }
}

}  // namespace lc::green
