#include "tensor/init.h"

#include <cmath>

#include "common/rng.h"

namespace dbg4eth {
namespace ag {

Matrix XavierUniform(int fan_in, int fan_out, Rng* rng) {
  const double a = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  return Matrix::Random(fan_in, fan_out, rng, -a, a);
}

}  // namespace ag
}  // namespace dbg4eth
