#include "ptsbe/circuit/gates.hpp"

#include <cmath>

namespace ptsbe::gates {

namespace {
constexpr double kInvSqrt2 = 0.7071067811865475244;
const cplx kI{0.0, 1.0};
}  // namespace

Matrix I() { return Matrix(2, 2, {1, 0, 0, 1}); }
Matrix X() { return Matrix(2, 2, {0, 1, 1, 0}); }
Matrix Y() { return Matrix(2, 2, {0, -kI, kI, 0}); }
Matrix Z() { return Matrix(2, 2, {1, 0, 0, -1}); }
Matrix H() {
  return Matrix(2, 2, {kInvSqrt2, kInvSqrt2, kInvSqrt2, -kInvSqrt2});
}
Matrix S() { return Matrix(2, 2, {1, 0, 0, kI}); }
Matrix Sdg() { return Matrix(2, 2, {1, 0, 0, -kI}); }
Matrix T() { return Matrix(2, 2, {1, 0, 0, std::polar(1.0, M_PI / 4)}); }
Matrix Tdg() { return Matrix(2, 2, {1, 0, 0, std::polar(1.0, -M_PI / 4)}); }

Matrix SX() {
  const cplx a{0.5, 0.5}, b{0.5, -0.5};
  return Matrix(2, 2, {a, b, b, a});
}
Matrix SXdg() { return SX().dagger(); }
Matrix SY() { return S() * SX() * Sdg(); }
Matrix SYdg() { return SY().dagger(); }

Matrix RX(double theta) {
  const double c = std::cos(theta / 2), s = std::sin(theta / 2);
  return Matrix(2, 2, {c, -kI * s, -kI * s, c});
}
Matrix RY(double theta) {
  const double c = std::cos(theta / 2), s = std::sin(theta / 2);
  return Matrix(2, 2, {c, -s, s, c});
}
Matrix RZ(double theta) {
  return Matrix(2, 2,
                {std::polar(1.0, -theta / 2), 0, 0, std::polar(1.0, theta / 2)});
}
Matrix P(double theta) { return Matrix(2, 2, {1, 0, 0, std::polar(1.0, theta)}); }

Matrix U3(double theta, double phi, double lambda) {
  const double c = std::cos(theta / 2), s = std::sin(theta / 2);
  // std::polar requires a non-negative magnitude, and c or s is negative
  // for some angles, so scale the unit phase instead. The product has the
  // bits of (ρ·cos θ, ρ·sin θ): double * complex scales each part.
  return Matrix(2, 2,
                {cplx{c, 0.0}, -s * std::polar(1.0, lambda),
                 s * std::polar(1.0, phi), c * std::polar(1.0, phi + lambda)});
}

// Basis ordering: index = q1_bit * 2 + q0_bit, with q0 = first listed qubit.
// CX: control = q0 (LSB). States |q1 q0>: 00,01,10,11 → control=1 flips q1:
// |01> -> |11>, |11> -> |01>.
Matrix CX() {
  return Matrix(4, 4,
                {1, 0, 0, 0,
                 0, 0, 0, 1,
                 0, 0, 1, 0,
                 0, 1, 0, 0});
}

Matrix CZ() {
  return Matrix(4, 4,
                {1, 0, 0, 0,
                 0, 1, 0, 0,
                 0, 0, 1, 0,
                 0, 0, 0, -1});
}

Matrix CY() {
  return Matrix(4, 4,
                {1, 0, 0, 0,
                 0, 0, 0, -kI,
                 0, 0, 1, 0,
                 0, kI, 0, 0});
}

Matrix SWAP() {
  return Matrix(4, 4,
                {1, 0, 0, 0,
                 0, 0, 1, 0,
                 0, 1, 0, 0,
                 0, 0, 0, 1});
}

Matrix ISWAP() {
  return Matrix(4, 4,
                {1, 0, 0, 0,
                 0, 0, kI, 0,
                 0, kI, 0, 0,
                 0, 0, 0, 1});
}

Matrix pauli(unsigned index) {
  switch (index & 3u) {
    case 0: return I();
    case 1: return X();
    case 2: return Y();
    default: return Z();
  }
}

std::string pauli_name(unsigned index) {
  switch (index & 3u) {
    case 0: return "I";
    case 1: return "X";
    case 2: return "Y";
    default: return "Z";
  }
}

}  // namespace ptsbe::gates
