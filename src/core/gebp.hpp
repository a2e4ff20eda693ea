// GEBP: the inner kernel of the Goto algorithm (layers 4-6 of Figure 2).
//
// Multiplies a packed mc x kc block of A by a packed kc x nc panel of B,
// updating an mc x nc panel of C as C = beta*C + alpha*A*B (the fused-beta
// microkernel contract; drivers pass the caller's beta for the first
// k-panel and 1 afterwards). The double loop over nr-slivers of B (layer
// 5, "GEBS") and mr-slivers of A (layer 6, "GESS") dispatches to the
// register kernel; edge tiles go through a local padded tile so
// microkernels never see partial shapes.
#pragma once

#include <cstdint>

#include "kernels/microkernel.hpp"

namespace ag {

/// `packed_a`: pack_a output for an mc x kc block (mr-padded).
/// `packed_b`: pack_b output for a kc x nc panel (nr-padded).
/// `c`: column-major mc x nc panel with leading dimension ldc.
void gebp(index_t mc, index_t nc, index_t kc, double alpha, const double* packed_a,
          const double* packed_b, double beta, double* c, index_t ldc,
          const Microkernel& kernel);

}  // namespace ag
