/* The C API compiled as C11: the knob entry points and one cblas_dgemm.
 * Every C++ construct in capi/armgemm_cblas.h fails this build. */
#include <stdio.h>
#include <string.h>

#include "capi/armgemm_cblas.h"

static int failures = 0;

static void check(int ok, const char* what) {
  if (ok) return;
  fprintf(stderr, "capi_c_smoke: FAILED: %s\n", what);
  ++failures;
}

int main(void) {
  char buf[32];
  check(armgemm_config_set("ARMGEMM_SMALL_MNK", "0") == 0, "config_set accepts 0");
  check(armgemm_config_get("ARMGEMM_SMALL_MNK", buf, sizeof buf) == 1, "config_get length");
  check(strcmp(buf, "0") == 0, "config_get text");
  check(armgemm_config_set("ARMGEMM_SMALL_MNK", "six") == -1, "config_set rejects text");
  check(armgemm_config_get("ARMGEMM_NO_SUCH_KNOB", NULL, 0) == -1, "unknown name");

  /* 2x2 times 2x2, column-major, on the blocked path (SMALL_MNK=0). */
  const double a[4] = {1, 2, 3, 4};
  const double b[4] = {5, 6, 7, 8};
  double c[4] = {1, 1, 1, 1};
  cblas_dgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, 2, 2, 2, 1.0, a, 2, b, 2, 1.0, c, 2);
  const double want[4] = {24, 35, 32, 47};
  for (int i = 0; i < 4; ++i) check(c[i] == want[i], "cblas_dgemm result");

  if (failures == 0) printf("capi_c_smoke: ok\n");
  return failures == 0 ? 0 : 1;
}
