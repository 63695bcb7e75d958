// Lint fixture: OpenMP reductions in library code. Expected findings:
// 2 × omp-reduction (lines 8 and 16: on the pragma line, and on a
// backslash-continued line of a pragma).
#include <cstdint>

double fixture_sum(const double* a, std::int64_t n) {
  double s = 0.0;
#pragma omp parallel for reduction(+ : s)
  for (std::int64_t i = 0; i < n; ++i) s += a[i];
  return s;
}

double fixture_sum_continued(const double* a, std::int64_t n) {
  double s = 0.0;
#pragma omp parallel for schedule(static) \
    reduction(+ : s) if (n > 1024)
  for (std::int64_t i = 0; i < n; ++i) s += a[i];
  return s;
}

// Allowed: a function that happens to be called reduction, outside any
// pragma, and a parallel loop without a reduction clause.
double reduction(double x) { return x; }

void fixture_scale(double* a, std::int64_t n) {
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) a[i] = reduction(a[i]);
}
