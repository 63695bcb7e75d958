// Lint fixture: a file every check must stay quiet on, even when mapped
// as a serialization AND kernel TU by the test config.
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

void fixture_write_sorted(std::ostream& os,
                          const std::map<std::string, std::uint64_t>& stats) {
  for (const auto& [name, value] : stats)  // ordered container: fine
    os << name << '=' << value << '\n';
}

double fixture_kernel_mul_add(double a, double x, double y) {
  return a * x + y;  // two roundings: fine
}
