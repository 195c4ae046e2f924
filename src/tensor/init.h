#ifndef DBG4ETH_TENSOR_INIT_H_
#define DBG4ETH_TENSOR_INIT_H_

#include "tensor/matrix.h"

namespace dbg4eth {

class Rng;

namespace ag {

/// Glorot/Xavier uniform initialization: U(-a, a), a = sqrt(6/(fan_in+fan_out)).
Matrix XavierUniform(int fan_in, int fan_out, Rng* rng);

}  // namespace ag
}  // namespace dbg4eth

#endif  // DBG4ETH_TENSOR_INIT_H_
