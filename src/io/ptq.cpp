#include "ptsbe/io/ptq.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "ptsbe/circuit/gates.hpp"
#include "ptsbe/noise/channels.hpp"

namespace ptsbe::io {

namespace {

// ---------------------------------------------------------------------------
// Number formatting/equality: 17 significant digits round-trip every finite
// double exactly, which is what makes parse(write(c)) == c bit-precise.
// ---------------------------------------------------------------------------

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool exact_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i)
    if (da[i].real() != db[i].real() || da[i].imag() != db[i].imag())
      return false;
  return true;
}

bool channels_equal(const KrausChannel& a, const KrausChannel& b) {
  if (a.name() != b.name() || a.arity() != b.arity() ||
      a.num_branches() != b.num_branches())
    return false;
  for (std::size_t i = 0; i < a.num_branches(); ++i)
    if (!exact_equal(a.kraus(i), b.kraus(i))) return false;
  return true;
}

bool token_safe(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s)
    if (std::isspace(static_cast<unsigned char>(c)) || c == '#') return false;
  return true;
}

// ---------------------------------------------------------------------------
// Gate and channel tables — the single place the text format learns the
// libraries' vocabularies.
// ---------------------------------------------------------------------------

struct GateKind {
  unsigned arity;
  unsigned nparams;
  Matrix (*make)(const std::vector<double>& p);
};

const std::unordered_map<std::string, GateKind>& gate_table() {
  static const std::unordered_map<std::string, GateKind> table = {
      {"i", {1, 0, [](const std::vector<double>&) { return gates::I(); }}},
      {"x", {1, 0, [](const std::vector<double>&) { return gates::X(); }}},
      {"y", {1, 0, [](const std::vector<double>&) { return gates::Y(); }}},
      {"z", {1, 0, [](const std::vector<double>&) { return gates::Z(); }}},
      {"h", {1, 0, [](const std::vector<double>&) { return gates::H(); }}},
      {"s", {1, 0, [](const std::vector<double>&) { return gates::S(); }}},
      {"sdg", {1, 0, [](const std::vector<double>&) { return gates::Sdg(); }}},
      {"t", {1, 0, [](const std::vector<double>&) { return gates::T(); }}},
      {"tdg", {1, 0, [](const std::vector<double>&) { return gates::Tdg(); }}},
      {"sx", {1, 0, [](const std::vector<double>&) { return gates::SX(); }}},
      {"sxdg", {1, 0, [](const std::vector<double>&) { return gates::SXdg(); }}},
      {"sy", {1, 0, [](const std::vector<double>&) { return gates::SY(); }}},
      {"sydg", {1, 0, [](const std::vector<double>&) { return gates::SYdg(); }}},
      {"rx", {1, 1, [](const std::vector<double>& p) { return gates::RX(p[0]); }}},
      {"ry", {1, 1, [](const std::vector<double>& p) { return gates::RY(p[0]); }}},
      {"rz", {1, 1, [](const std::vector<double>& p) { return gates::RZ(p[0]); }}},
      {"p", {1, 1, [](const std::vector<double>& p) { return gates::P(p[0]); }}},
      {"u3",
       {1, 3,
        [](const std::vector<double>& p) { return gates::U3(p[0], p[1], p[2]); }}},
      {"cx", {2, 0, [](const std::vector<double>&) { return gates::CX(); }}},
      {"cy", {2, 0, [](const std::vector<double>&) { return gates::CY(); }}},
      {"cz", {2, 0, [](const std::vector<double>&) { return gates::CZ(); }}},
      {"swap", {2, 0, [](const std::vector<double>&) { return gates::SWAP(); }}},
      {"iswap", {2, 0, [](const std::vector<double>&) { return gates::ISWAP(); }}},
  };
  return table;
}

struct ChannelKind {
  unsigned nparams;
  ChannelPtr (*make)(const std::vector<double>& p);
};

const std::unordered_map<std::string, ChannelKind>& channel_table() {
  static const std::unordered_map<std::string, ChannelKind> table = {
      {"depolarizing",
       {1, [](const std::vector<double>& p) { return channels::depolarizing(p[0]); }}},
      {"depolarizing2",
       {1, [](const std::vector<double>& p) { return channels::depolarizing2(p[0]); }}},
      {"bit_flip",
       {1, [](const std::vector<double>& p) { return channels::bit_flip(p[0]); }}},
      {"phase_flip",
       {1, [](const std::vector<double>& p) { return channels::phase_flip(p[0]); }}},
      {"bit_phase_flip",
       {1, [](const std::vector<double>& p) { return channels::bit_phase_flip(p[0]); }}},
      {"pauli",
       {3,
        [](const std::vector<double>& p) {
          return channels::pauli_channel(p[0], p[1], p[2]);
        }}},
      {"amplitude_damping",
       {1,
        [](const std::vector<double>& p) { return channels::amplitude_damping(p[0]); }}},
      {"phase_damping",
       {1, [](const std::vector<double>& p) { return channels::phase_damping(p[0]); }}},
      {"correlated_xx_zz",
       {1,
        [](const std::vector<double>& p) { return channels::correlated_xx_zz(p[0]); }}},
      {"thermal_relaxation",
       {3,
        [](const std::vector<double>& p) {
          return channels::thermal_relaxation(p[0], p[1], p[2]);
        }}},
      {"coherent_overrotation",
       {2,
        [](const std::vector<double>& p) {
          return channels::coherent_overrotation(p[0], p[1]);
        }}},
  };
  return table;
}

// ---------------------------------------------------------------------------
// Tokenizer: one line at a time, tracking the 1-based start column of every
// token so diagnostics can point at the exact offender.
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  std::size_t column = 1;
};

std::vector<Token> tokenize(std::string_view line) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (c == '#') break;  // comment to end of line
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i])) &&
           line[i] != '#')
      ++i;
    out.push_back({std::string(line.substr(start, i - start)), start + 1});
  }
  return out;
}

/// Parser state for one `.ptq` document. Line-oriented recursive descent:
/// each body line dispatches on its first token.
class Parser {
 public:
  Parser(std::string_view text, std::string source)
      : source_(std::move(source)) {
    std::size_t begin = 0;
    while (begin <= text.size()) {
      std::size_t end = text.find('\n', begin);
      if (end == std::string_view::npos) end = text.size();
      lines_.push_back(text.substr(begin, end - begin));
      if (end == text.size()) break;
      begin = end + 1;
    }
  }

  NoisyCircuit parse() {
    parse_header();
    parse_qubits();
    for (; line_no_ <= lines_.size(); ++line_no_) {
      tokens_ = tokenize(lines_[line_no_ - 1]);
      cursor_ = 0;
      if (tokens_.empty()) continue;
      parse_body_line();
      reject_trailing();
    }
    return NoisyCircuit(std::move(circuit_), std::move(sites_));
  }

 private:
  [[noreturn]] void fail(std::size_t column, const std::string& msg) const {
    // Clamp past-EOF positions (e.g. a missing 'qubits' line) to the last
    // real line so diagnostics always point into the input.
    const std::size_t line =
        line_no_ > lines_.size() ? std::max<std::size_t>(lines_.size(), 1)
                                 : line_no_;
    throw ParseError(source_, line, column, msg);
  }

  /// Column just past the last token of the current line (where a missing
  /// token would have started).
  [[nodiscard]] std::size_t end_column() const {
    if (tokens_.empty()) return 1;
    const Token& last = tokens_.back();
    return last.column + last.text.size();
  }

  const Token& need(const std::string& what) {
    if (cursor_ >= tokens_.size())
      fail(end_column(), "expected " + what);
    return tokens_[cursor_++];
  }

  std::uint64_t need_uint(const std::string& what, std::uint64_t max) {
    const Token& tok = need(what);
    const char* begin = tok.text.c_str();
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(begin, &end, 10);
    if (end != begin + tok.text.size() || tok.text[0] == '-' || errno == ERANGE)
      fail(tok.column, "expected " + what + ", got '" + tok.text + "'");
    if (v > max)
      fail(tok.column, what + " " + tok.text + " out of range (max " +
                           std::to_string(max) + ")");
    return v;
  }

  double need_double(const std::string& what) {
    const Token& tok = need(what);
    const char* begin = tok.text.c_str();
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end != begin + tok.text.size())
      fail(tok.column, "expected " + what + ", got '" + tok.text + "'");
    // nan, inf and overflow (1e999) parse, but describe no physical program.
    if (!std::isfinite(v))
      fail(tok.column, what + " '" + tok.text + "' is not finite");
    return v;
  }

  void reject_trailing() {
    if (cursor_ < tokens_.size())
      fail(tokens_[cursor_].column,
           "unexpected trailing token '" + tokens_[cursor_].text + "'");
  }

  /// Advance to the next line holding any tokens; false at end of input.
  bool next_meaningful_line() {
    for (; line_no_ <= lines_.size(); ++line_no_) {
      tokens_ = tokenize(lines_[line_no_ - 1]);
      cursor_ = 0;
      if (!tokens_.empty()) return true;
    }
    return false;
  }

  void parse_header() {
    if (!next_meaningful_line())
      throw ParseError(source_, 1, 1,
                       "empty .ptq input (missing 'ptq 1' header)");
    const Token& tok = need("'ptq <version>' header");
    if (tok.text != "ptq")
      fail(tok.column, "expected 'ptq <version>' header, got '" + tok.text + "'");
    const std::uint64_t version = need_uint("ptq format version", 1u << 20);
    if (version != 1)
      fail(tokens_[cursor_ - 1].column,
           "unsupported ptq format version " + std::to_string(version) +
               " (this parser reads version 1)");
    reject_trailing();
    ++line_no_;
  }

  void parse_qubits() {
    if (!next_meaningful_line()) fail(1, "missing 'qubits <n>' line");
    const Token& tok = need("'qubits <n>' line");
    if (tok.text != "qubits")
      fail(tok.column, "expected 'qubits <n>' line, got '" + tok.text + "'");
    // Records are 64-bit, so 64 qubits is the honest ceiling of every
    // sampler in the codebase.
    num_qubits_ = static_cast<unsigned>(need_uint("qubit count", 64));
    circuit_ = Circuit(num_qubits_);
    reject_trailing();
    ++line_no_;
  }

  unsigned need_qubit() {
    const std::size_t col =
        cursor_ < tokens_.size() ? tokens_[cursor_].column : end_column();
    const auto q = static_cast<unsigned>(
        need_uint("qubit index", std::numeric_limits<std::uint32_t>::max()));
    if (q >= num_qubits_)
      fail(col, "qubit " + std::to_string(q) + " out of range (circuit has " +
                    std::to_string(num_qubits_) + " qubits)");
    return q;
  }

  void parse_body_line() {
    const Token& head = tokens_[cursor_];
    if (head.text == "channel") return parse_channel();
    if (head.text == "noise") return parse_noise();
    if (head.text == "measure") return parse_measure();
    if (head.text == "unitary") return parse_unitary();
    const auto it = gate_table().find(head.text);
    if (it == gate_table().end())
      fail(head.column, "unknown directive or gate '" + head.text + "'");
    parse_gate(head, it->second);
  }

  void parse_gate(const Token& head, const GateKind& kind) {
    ++cursor_;  // consume the mnemonic
    // Arity mismatches are the common hand-editing error; report them as
    // such instead of as a generic "expected qubit index".
    const std::size_t args = tokens_.size() - cursor_;
    if (args != kind.arity + kind.nparams)
      fail(head.column,
           "gate '" + head.text + "' expects " + std::to_string(kind.arity) +
               " qubit(s) and " + std::to_string(kind.nparams) +
               " parameter(s), got " + std::to_string(args) + " token(s)");
    std::vector<unsigned> qubits;
    for (unsigned i = 0; i < kind.arity; ++i) qubits.push_back(need_qubit());
    std::vector<double> params;
    for (unsigned i = 0; i < kind.nparams; ++i)
      params.push_back(need_double("gate parameter"));
    // Build the matrix before the call: argument evaluation order is
    // unspecified, and std::move(params) must not drain the vector first.
    const Matrix matrix = kind.make(params);
    append_gate(head, head.text, matrix, std::move(qubits), std::move(params));
  }

  void parse_unitary() {
    const Token& head = tokens_[cursor_++];
    const Token& name = need("gate name");
    // Cap the arity *before* allocating: text is tenant-controlled at the
    // serve boundary, and an unchecked k would let a 70-byte line demand a
    // 2^k × 2^k zero-initialized matrix. 6 qubits (a 64×64 matrix, 4096
    // entries) is already far beyond what any backend sweeps as one gate.
    const auto k = static_cast<unsigned>(need_uint("unitary qubit count", 6));
    if (k == 0) fail(head.column, "unitary needs at least one qubit");
    std::vector<unsigned> qubits;
    for (unsigned i = 0; i < k; ++i) qubits.push_back(need_qubit());
    const auto nparams = static_cast<unsigned>(need_uint("parameter count", 64));
    std::vector<double> params;
    for (unsigned i = 0; i < nparams; ++i)
      params.push_back(need_double("gate parameter"));
    const std::size_t dim = std::size_t{1} << k;
    // Count the remaining tokens before touching memory: a short line must
    // fail as "expected matrix entry", not allocate first.
    if (tokens_.size() - cursor_ != dim * dim * 2)
      fail(head.column, "unitary on " + std::to_string(k) + " qubit(s) needs " +
                            std::to_string(dim * dim * 2) +
                            " matrix-entry tokens, got " +
                            std::to_string(tokens_.size() - cursor_));
    Matrix m(dim, dim);
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c) {
        const double re = need_double("matrix entry");
        const double im = need_double("matrix entry");
        m(r, c) = cplx{re, im};
      }
    // KrausChannel's tolerance: a gate is held to the same standard as a
    // one-operator channel.
    if (!is_unitary(m, 1e-9))
      fail(head.column, "unitary '" + name.text + "' is not unitary");
    append_gate(head, name.text, m, std::move(qubits), std::move(params));
  }

  void append_gate(const Token& head, const std::string& name, const Matrix& m,
                   std::vector<unsigned> qubits, std::vector<double> params) {
    try {
      circuit_.gate(name, m, std::move(qubits), std::move(params));
    } catch (const std::exception& e) {
      // Circuit validation (duplicate targets etc.) — re-anchor to the line.
      fail(head.column, e.what());
    }
  }

  void parse_measure() {
    ++cursor_;
    circuit_.measure(need_qubit());
  }

  void parse_channel() {
    ++cursor_;
    const Token& id = need("channel id");
    if (channels_.count(id.text) != 0)
      fail(id.column, "duplicate channel id '" + id.text + "'");
    const Token& kind = need("channel kind");
    ChannelPtr channel;
    if (kind.text == "kraus") {
      channel = parse_raw_kraus(kind);
    } else {
      const auto it = channel_table().find(kind.text);
      if (it == channel_table().end())
        fail(kind.column, "unknown channel kind '" + kind.text + "'");
      std::vector<double> params;
      for (unsigned i = 0; i < it->second.nparams; ++i)
        params.push_back(need_double("channel parameter"));
      try {
        channel = it->second.make(params);
      } catch (const std::exception& e) {
        fail(kind.column, std::string("invalid channel parameters: ") + e.what());
      }
    }
    channels_.emplace(id.text, std::move(channel));
  }

  ChannelPtr parse_raw_kraus(const Token& kind) {
    const Token& name = need("channel name");
    const auto num_ops =
        static_cast<std::size_t>(need_uint("Kraus operator count", 4096));
    if (num_ops == 0) fail(kind.column, "channel needs at least one Kraus operator");
    const auto dim = static_cast<std::size_t>(need_uint("Kraus dimension", 64));
    if (dim != 2 && dim != 4)
      fail(tokens_[cursor_ - 1].column,
           "Kraus dimension must be 2 (1-qubit) or 4 (2-qubit), got " +
               std::to_string(dim));
    std::vector<Matrix> ops;
    ops.reserve(num_ops);
    for (std::size_t o = 0; o < num_ops; ++o) {
      Matrix m(dim, dim);
      for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c) {
          const double re = need_double("Kraus matrix entry");
          const double im = need_double("Kraus matrix entry");
          m(r, c) = cplx{re, im};
        }
      ops.push_back(std::move(m));
    }
    try {
      return std::make_shared<const KrausChannel>(name.text, std::move(ops));
    } catch (const std::exception& e) {
      fail(kind.column, std::string("invalid Kraus set: ") + e.what());
    }
  }

  void parse_noise() {
    ++cursor_;
    const Token& id = need("channel id");
    const auto it = channels_.find(id.text);
    if (it == channels_.end())
      fail(id.column, "unknown channel '" + id.text +
                          "' (declare it with a 'channel' line first)");
    const unsigned arity = it->second->arity();
    const std::size_t args = tokens_.size() - cursor_;
    if (args != arity)
      fail(id.column, "channel '" + id.text + "' (" + it->second->name() +
                          ") has arity " + std::to_string(arity) + " but " +
                          std::to_string(args) + " qubit(s) listed");
    NoiseSite site;
    site.after_op =
        circuit_.size() == 0 ? NoiseSite::kBeforeCircuit : circuit_.size() - 1;
    for (unsigned i = 0; i < arity; ++i) {
      const std::size_t col =
          cursor_ < tokens_.size() ? tokens_[cursor_].column : end_column();
      const unsigned q = need_qubit();
      // Aliased targets would corrupt backend kernels (apply_matrix2 with
      // q==q reads amplitudes it already overwrote) — reject like gates do.
      for (unsigned seen : site.qubits)
        if (seen == q)
          fail(col, "duplicate qubit " + std::to_string(q) + " in noise site");
      site.qubits.push_back(q);
    }
    site.channel = it->second;
    sites_.push_back(std::move(site));
  }

  std::string source_;
  std::vector<std::string_view> lines_;
  std::size_t line_no_ = 1;
  std::vector<Token> tokens_;
  std::size_t cursor_ = 0;

  unsigned num_qubits_ = 0;
  Circuit circuit_{0};
  std::vector<NoiseSite> sites_;
  std::map<std::string, ChannelPtr> channels_;
};

void write_matrix_entries(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      os << ' ' << fmt(m(r, c).real()) << ' ' << fmt(m(r, c).imag());
}

void write_site(std::ostream& os, const NoiseSite& site,
                const std::map<const KrausChannel*, std::string>& ids) {
  os << "noise " << ids.at(site.channel.get());
  for (unsigned q : site.qubits) os << ' ' << q;
  os << '\n';
}

}  // namespace

ParseError::ParseError(const std::string& source, std::size_t line,
                       std::size_t column, const std::string& message)
    : runtime_failure((source.empty() ? "" : source + ":") +
                      std::to_string(line) + ":" + std::to_string(column) +
                      ": " + message),
      line_(line),
      column_(column) {}

NoisyCircuit parse_circuit(std::string_view text,
                           const std::string& source_name) {
  return Parser(text, source_name).parse();
}

NoisyCircuit parse_circuit_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw runtime_failure("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (is.bad()) throw runtime_failure("error while reading '" + path + "'");
  return parse_circuit(buffer.str(), path);
}

void write_circuit(std::ostream& os, const NoisyCircuit& noisy) {
  const Circuit& circuit = noisy.circuit();
  os << "ptq 1\n";
  os << "qubits " << circuit.num_qubits() << '\n';

  // One declaration per distinct channel handle, named in order of first
  // appearance. Raw Kraus form: the factory parameters that built a channel
  // are not stored on it, but its matrices round-trip exactly.
  std::map<const KrausChannel*, std::string> ids;
  for (const NoiseSite& site : noisy.sites()) {
    const KrausChannel* ch = site.channel.get();
    if (ids.count(ch) != 0) continue;
    const std::string bad_channel_name =
        "channel name '" + ch->name() +
        "' contains whitespace/#/empty and cannot be written";
    PTSBE_REQUIRE(token_safe(ch->name()), bad_channel_name);
    // Mirror the parser's limits: emitting a declaration it would reject
    // (dim other than 2/4) must fail here, not when the file is read back.
    PTSBE_REQUIRE(ch->kraus(0).rows() == 2 || ch->kraus(0).rows() == 4,
                  "channel '" + ch->name() +
                      "' has a Kraus dimension .ptq cannot represent "
                      "(only 1- and 2-qubit channels)");
    std::string id = "c";
    id += std::to_string(ids.size());  // two steps: gcc-12 -Wrestrict FP on
                                       // char* + to_string temporaries
    ids.emplace(ch, id);
    os << "channel " << id << " kraus " << ch->name() << ' '
       << ch->num_branches() << ' ' << ch->kraus(0).rows();
    for (std::size_t k = 0; k < ch->num_branches(); ++k)
      write_matrix_entries(os, ch->kraus(k));
    os << '\n';
  }

  // Interleave ops with their trailing noise sites. The emitted site order
  // must reproduce sites() exactly — a program whose site list is not in
  // program order has no representation that preserves site indices.
  std::size_t next_site = 0;
  const auto emit_bucket = [&](const std::vector<std::size_t>& bucket) {
    for (std::size_t s : bucket) {
      PTSBE_REQUIRE(s == next_site,
                    "noise sites are not in program order; .ptq cannot "
                    "represent this program without renumbering sites");
      write_site(os, noisy.sites()[s], ids);
      ++next_site;
    }
  };
  emit_bucket(noisy.sites_after(NoiseSite::kBeforeCircuit));
  for (std::size_t i = 0; i < circuit.ops().size(); ++i) {
    const Operation& op = circuit.ops()[i];
    if (op.kind == OpKind::kMeasure) {
      os << "measure " << op.qubits.front() << '\n';
    } else {
      const std::string bad_gate_name =
          "gate name '" + op.name +
          "' contains whitespace/#/empty and cannot be written";
      PTSBE_REQUIRE(token_safe(op.name), bad_gate_name);
      // The parser caps `unitary` arity at 6; refuse at write time so the
      // round-trip contract (output always parses back) stays honest.
      PTSBE_REQUIRE(op.qubits.size() <= 6,
                    "gate '" + op.name +
                        "' acts on more than 6 qubits; .ptq cannot "
                        "represent it");
      const auto it = gate_table().find(op.name);
      const bool short_form = it != gate_table().end() &&
                              op.qubits.size() == it->second.arity &&
                              op.params.size() == it->second.nparams &&
                              exact_equal(op.matrix, it->second.make(op.params));
      if (short_form) {
        os << op.name;
        for (unsigned q : op.qubits) os << ' ' << q;
        for (double p : op.params) os << ' ' << fmt(p);
        os << '\n';
      } else {
        os << "unitary " << op.name << ' ' << op.qubits.size();
        for (unsigned q : op.qubits) os << ' ' << q;
        os << ' ' << op.params.size();
        for (double p : op.params) os << ' ' << fmt(p);
        write_matrix_entries(os, op.matrix);
        os << '\n';
      }
    }
    emit_bucket(noisy.sites_after(i));
  }
}

std::string write_circuit(const NoisyCircuit& noisy) {
  std::ostringstream os;
  write_circuit(os, noisy);
  return os.str();
}

bool circuits_equal(const Circuit& a, const Circuit& b) {
  if (a.num_qubits() != b.num_qubits() || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Operation& x = a.ops()[i];
    const Operation& y = b.ops()[i];
    if (x.kind != y.kind || x.name != y.name || x.qubits != y.qubits)
      return false;
    if (x.params.size() != y.params.size()) return false;
    for (std::size_t j = 0; j < x.params.size(); ++j)
      if (x.params[j] != y.params[j]) return false;
    if (x.kind == OpKind::kGate && !exact_equal(x.matrix, y.matrix))
      return false;
  }
  return true;
}

bool programs_equal(const NoisyCircuit& a, const NoisyCircuit& b) {
  if (!circuits_equal(a.circuit(), b.circuit())) return false;
  if (a.num_sites() != b.num_sites()) return false;
  for (std::size_t i = 0; i < a.num_sites(); ++i) {
    const NoiseSite& x = a.sites()[i];
    const NoiseSite& y = b.sites()[i];
    if (x.after_op != y.after_op || x.qubits != y.qubits) return false;
    if (!channels_equal(*x.channel, *y.channel)) return false;
  }
  return true;
}

}  // namespace ptsbe::io
