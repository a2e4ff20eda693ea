#include "core/packing.hpp"

#include "core/packing_impl.hpp"

namespace ag {

const char* packing_isa() { return detail::pack_isa_name(); }

index_t packed_a_size(index_t mc, index_t kc, int mr) {
  return detail::packed_a_size_t<double>(mc, kc, mr);
}

index_t packed_b_size(index_t kc, index_t nc, int nr) {
  return detail::packed_b_size_t<double>(kc, nc, nr);
}

void pack_a(Trans trans, const double* a, index_t lda, index_t row0, index_t col0, index_t mc,
            index_t kc, int mr, double* dst) {
  detail::pack_a_t(trans, a, lda, row0, col0, mc, kc, mr, dst);
}

void pack_b_slivers(Trans trans, const double* b, index_t ldb, index_t row0, index_t col0,
                    index_t kc, index_t nc, int nr, index_t sliver_begin, index_t sliver_end,
                    double* dst) {
  detail::pack_b_slivers_t(trans, b, ldb, row0, col0, kc, nc, nr, sliver_begin, sliver_end,
                           dst);
}

void pack_b(Trans trans, const double* b, index_t ldb, index_t row0, index_t col0, index_t kc,
            index_t nc, int nr, double* dst) {
  pack_b_slivers(trans, b, ldb, row0, col0, kc, nc, nr, 0,
                 ceil_div(nc, static_cast<index_t>(nr)), dst);
}

void pack_a_reference(Trans trans, const double* a, index_t lda, index_t row0, index_t col0,
                      index_t mc, index_t kc, int mr, double* dst) {
  detail::pack_a_scalar_t(trans, a, lda, row0, col0, mc, kc, mr, dst);
}

void pack_b_reference(Trans trans, const double* b, index_t ldb, index_t row0, index_t col0,
                      index_t kc, index_t nc, int nr, double* dst) {
  detail::pack_b_slivers_scalar_t(trans, b, ldb, row0, col0, kc, nc, nr, 0,
                                  ceil_div(nc, static_cast<index_t>(nr)), dst);
}

}  // namespace ag
