#include "core/gebp.hpp"

#include "core/gebp_impl.hpp"

namespace ag {

void gebp(index_t mc, index_t nc, index_t kc, double alpha, const double* packed_a,
          const double* packed_b, double beta, double* c, index_t ldc,
          const Microkernel& kernel) {
  detail::gebp_t<double>(mc, nc, kc, alpha, packed_a, packed_b, beta, c, ldc, kernel.fn,
                         kernel.shape.mr, kernel.shape.nr);
}

}  // namespace ag
