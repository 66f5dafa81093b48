#include "src/netlist/verilog.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <unordered_map>

#include "src/util/strcat.hpp"

namespace tp {
namespace {

// --- shared cell descriptions ------------------------------------------------

struct PinNames {
  const char* type;                 // Verilog cell type
  std::vector<const char*> inputs;  // in pin order of CellKind
  const char* output;
};

const PinNames* pin_names(CellKind kind) {
  static const std::map<CellKind, PinNames> kTable = {
      {CellKind::kBuf, {"TP_BUF", {"A"}, "Y"}},
      {CellKind::kInv, {"TP_INV", {"A"}, "Y"}},
      {CellKind::kAnd2, {"TP_AND2", {"A", "B"}, "Y"}},
      {CellKind::kAnd3, {"TP_AND3", {"A", "B", "C"}, "Y"}},
      {CellKind::kOr2, {"TP_OR2", {"A", "B"}, "Y"}},
      {CellKind::kOr3, {"TP_OR3", {"A", "B", "C"}, "Y"}},
      {CellKind::kNand2, {"TP_NAND2", {"A", "B"}, "Y"}},
      {CellKind::kNand3, {"TP_NAND3", {"A", "B", "C"}, "Y"}},
      {CellKind::kNor2, {"TP_NOR2", {"A", "B"}, "Y"}},
      {CellKind::kNor3, {"TP_NOR3", {"A", "B", "C"}, "Y"}},
      {CellKind::kXor2, {"TP_XOR2", {"A", "B"}, "Y"}},
      {CellKind::kXnor2, {"TP_XNOR2", {"A", "B"}, "Y"}},
      {CellKind::kMux2, {"TP_MUX2", {"A", "B", "S"}, "Y"}},
      {CellKind::kAoi21, {"TP_AOI21", {"A", "B", "C"}, "Y"}},
      {CellKind::kOai21, {"TP_OAI21", {"A", "B", "C"}, "Y"}},
      {CellKind::kMaj3, {"TP_MAJ3", {"A", "B", "C"}, "Y"}},
      {CellKind::kDff, {"TP_DFF", {"D", "CK"}, "Q"}},
      {CellKind::kDffEn, {"TP_DFFEN", {"D", "EN", "CK"}, "Q"}},
      {CellKind::kLatchH, {"TP_LATCHH", {"D", "G"}, "Q"}},
      {CellKind::kLatchL, {"TP_LATCHL", {"D", "G"}, "Q"}},
      {CellKind::kLatchP, {"TP_LATCHP", {"D", "G"}, "Q"}},
      {CellKind::kIcg, {"TP_ICG", {"EN", "CK"}, "GCLK"}},
      {CellKind::kIcgM1, {"TP_ICGM1", {"EN", "CK", "PB"}, "GCLK"}},
      {CellKind::kIcgNoLatch, {"TP_ICGNL", {"EN", "CK"}, "GCLK"}},
      {CellKind::kClkBuf, {"TP_CLKBUF", {"A"}, "Y"}},
      {CellKind::kClkInv, {"TP_CLKINV", {"A"}, "Y"}},
      {CellKind::kDffDet, {"TP_DFFDET", {"D", "CK"}, "Q"}},
      {CellKind::kClkDiv2, {"TP_CLKDIV2", {"CK"}, "Y"}},
  };
  const auto it = kTable.find(kind);
  return it == kTable.end() ? nullptr : &it->second;
}

CellKind kind_for_type(const std::string& type, bool& ok) {
  static const std::map<std::string, CellKind> kTable = [] {
    std::map<std::string, CellKind> table;
    for (int k = 0; k < kNumCellKinds; ++k) {
      const auto kind = static_cast<CellKind>(k);
      if (const PinNames* p = pin_names(kind)) table[p->type] = kind;
    }
    return table;
  }();
  const auto it = kTable.find(type);
  ok = it != kTable.end();
  return ok ? it->second : CellKind::kBuf;
}

// --- writer -------------------------------------------------------------------

std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c
                                                                     : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out = "n_" + out;
  }
  return out;
}

/// Unique sanitized identifier per net / instance.
class Namer {
 public:
  std::string name(const std::string& wanted) {
    std::string base = sanitize(wanted);
    std::string candidate = base;
    int suffix = 1;
    while (!used_.emplace(candidate).second) {
      candidate = cat(base, "_", suffix++);
    }
    return candidate;
  }

 private:
  std::set<std::string> used_;
};

}  // namespace

void write_verilog(const Netlist& netlist, std::ostream& out) {
  Namer namer;
  std::vector<std::string> net_name(netlist.num_nets());
  for (std::uint32_t n = 0; n < netlist.num_nets(); ++n) {
    if (netlist.net(NetId{n}).alive) {
      net_name[n] = namer.name(netlist.net(NetId{n}).name);
    }
  }

  std::vector<std::string> ports;
  std::vector<std::pair<std::string, NetId>> po_assigns;
  for (const CellId id : netlist.inputs()) {
    if (netlist.cell(id).alive) {
      ports.push_back(net_name[netlist.cell(id).out.value()]);
    }
  }
  for (const CellId id : netlist.outputs()) {
    if (!netlist.cell(id).alive) continue;
    const std::string port = namer.name(netlist.cell(id).name + "_po");
    ports.push_back(port);
    po_assigns.push_back({port, netlist.cell(id).ins[0]});
  }

  out << "// structural netlist written by triphase\n";
  out << "module " << sanitize(netlist.name()) << " (";
  for (std::size_t i = 0; i < ports.size(); ++i) {
    out << (i ? ", " : "") << ports[i];
  }
  out << ");\n";

  // Clock plan directives.
  const ClockSpec& clocks = netlist.clocks();
  for (const PhaseWaveform& w : clocks.phases) {
    out << "  // tp-clock " << phase_name(w.phase) << ' '
        << net_name[w.root.value()] << ' ' << w.rise_ps << ' ' << w.fall_ps
        << ' ' << clocks.period_ps << "\n";
  }

  for (const CellId id : netlist.inputs()) {
    if (netlist.cell(id).alive) {
      out << "  input " << net_name[netlist.cell(id).out.value()] << ";\n";
    }
  }
  for (const auto& [port, src] : po_assigns) {
    (void)src;
    out << "  output " << port << ";\n";
  }
  for (std::uint32_t n = 0; n < netlist.num_nets(); ++n) {
    const Net& net = netlist.net(NetId{n});
    if (!net.alive) continue;
    const CellId driver = net.driver;
    if (driver.valid() && netlist.cell(driver).kind == CellKind::kInput) {
      continue;  // already an input port
    }
    out << "  wire " << net_name[n] << ";\n";
  }

  for (const CellId id : netlist.live_cells()) {
    const Cell& cell = netlist.cell(id);
    switch (cell.kind) {
      case CellKind::kInput:
      case CellKind::kOutput:
        continue;
      case CellKind::kConst0:
        out << "  assign " << net_name[cell.out.value()] << " = 1'b0;\n";
        continue;
      case CellKind::kConst1:
        out << "  assign " << net_name[cell.out.value()] << " = 1'b1;\n";
        continue;
      default:
        break;
    }
    const PinNames* pins = pin_names(cell.kind);
    require(pins != nullptr, "write_verilog: unmapped cell kind");
    out << "  " << pins->type;
    if (is_register(cell.kind) && cell.init) out << " #(.INIT(1'b1))";
    out << ' ' << namer.name(cell.name) << " (";
    for (std::size_t i = 0; i < cell.ins.size(); ++i) {
      out << (i ? ", " : "") << '.' << pins->inputs[i] << '('
          << net_name[cell.ins[i].value()] << ')';
    }
    out << (cell.ins.empty() ? "" : ", ") << '.' << pins->output << '('
        << net_name[cell.out.value()] << ")";
    out << ");\n";
  }
  for (const auto& [port, src] : po_assigns) {
    out << "  assign " << port << " = " << net_name[src.value()] << ";\n";
  }
  out << "endmodule\n";
}

std::string to_verilog(const Netlist& netlist) {
  std::ostringstream os;
  write_verilog(netlist, os);
  return os.str();
}

// --- reader --------------------------------------------------------------------

namespace {

struct Token {
  enum Kind { kIdent, kPunct, kLiteral, kEnd } kind = kEnd;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::istream& in) : in_(in) {}

  /// Clock directives seen so far: phase name, net, rise, fall, period.
  struct ClockDirective {
    std::string phase, net;
    std::int64_t rise, fall, period;
  };
  std::vector<ClockDirective> clock_directives;

  Token next() {
    for (;;) {
      const int c = in_.get();
      if (c == EOF) return {Token::kEnd, "", line_};
      if (c == '\n') {
        ++line_;
        continue;
      }
      if (std::isspace(c)) continue;
      if (c == '/' && in_.peek() == '/') {
        in_.get();  // consume the second slash
        std::string comment;
        std::getline(in_, comment);
        ++line_;
        parse_directive(comment);
        continue;
      }
      if (std::isalpha(c) || c == '_') {
        std::string ident(1, static_cast<char>(c));
        while (std::isalnum(in_.peek()) || in_.peek() == '_') {
          ident += static_cast<char>(in_.get());
        }
        return {Token::kIdent, std::move(ident), line_};
      }
      if (std::isdigit(c)) {
        std::string literal(1, static_cast<char>(c));
        while (std::isalnum(in_.peek()) || in_.peek() == '\'') {
          literal += static_cast<char>(in_.get());
        }
        return {Token::kLiteral, std::move(literal), line_};
      }
      return {Token::kPunct, std::string(1, static_cast<char>(c)), line_};
    }
  }

 private:
  void parse_directive(const std::string& comment) {
    std::istringstream is(comment);
    std::string tag;
    is >> tag;
    if (tag != "tp-clock") return;
    ClockDirective d;
    if (is >> d.phase >> d.net >> d.rise >> d.fall >> d.period) {
      clock_directives.push_back(std::move(d));
    }
  }

  std::istream& in_;
  int line_ = 1;
};

Phase phase_by_name(const std::string& name) {
  for (const Phase p : {Phase::kClk, Phase::kClkBar, Phase::kP1, Phase::kP2,
                        Phase::kP3}) {
    if (name == phase_name(p)) return p;
  }
  return Phase::kNone;
}

class Parser {
 public:
  explicit Parser(std::istream& in) : lexer_(in) { advance(); }

  Netlist parse() {
    expect_ident("module");
    Netlist netlist(expect(Token::kIdent).text);
    expect_punct("(");
    std::vector<std::string> ports;
    if (!is_punct(")")) {
      for (;;) {
        ports.push_back(expect(Token::kIdent).text);
        if (is_punct(")")) break;
        expect_punct(",");
      }
    }
    expect_punct(")");
    expect_punct(";");

    while (!is_ident("endmodule")) {
      if (is_ident("input")) {
        advance();
        const std::string name = expect(Token::kIdent).text;
        expect_punct(";");
        const CellId pi = netlist.add_input(name);
        nets_[name] = netlist.cell(pi).out;
      } else if (is_ident("output")) {
        advance();
        output_ports_.push_back(expect(Token::kIdent).text);
        expect_punct(";");
      } else if (is_ident("wire")) {
        advance();
        const std::string name = expect(Token::kIdent).text;
        expect_punct(";");
        nets_[name] = netlist.add_net(name);
      } else if (is_ident("assign")) {
        advance();
        const std::string lhs = expect(Token::kIdent).text;
        expect_punct("=");
        parse_assign_rhs(netlist, lhs);
        expect_punct(";");
      } else {
        parse_instance(netlist);
      }
    }
    advance();  // endmodule

    finish_outputs(netlist);
    apply_clocks(netlist);
    netlist.validate();
    return netlist;
  }

 private:
  void parse_assign_rhs(Netlist& netlist, const std::string& lhs) {
    if (token_.kind == Token::kLiteral) {
      const bool one = token_.text == "1'b1";
      expect_that(one || token_.text == "1'b0",
                  "only 1'b0 / 1'b1 constants supported");
      advance();
      netlist.add_cell(one ? CellKind::kConst1 : CellKind::kConst0,
                       "const_" + lhs, {}, net(netlist, lhs));
      return;
    }
    const std::string rhs = expect(Token::kIdent).text;
    // `assign po = net` — a primary-output alias.
    pending_assigns_.push_back({lhs, rhs});
  }

  void parse_instance(Netlist& netlist) {
    const std::string type = expect(Token::kIdent).text;
    bool known = false;
    const CellKind kind = kind_for_type(type, known);
    expect_that(known, "unknown cell type ", type);
    bool init = false;
    if (is_punct("#")) {  // #(.INIT(1'b1))
      advance();
      expect_punct("(");
      expect_punct(".");
      expect_ident("INIT");
      expect_punct("(");
      init = expect(Token::kLiteral).text == "1'b1";
      expect_punct(")");
      expect_punct(")");
    }
    const std::string instance = expect(Token::kIdent).text;
    expect_punct("(");
    std::map<std::string, std::string> connections;
    for (;;) {
      expect_punct(".");
      const std::string pin = expect(Token::kIdent).text;
      expect_punct("(");
      const bool fresh =
          connections.emplace(pin, expect(Token::kIdent).text).second;
      expect_that(fresh, instance, ": pin ", pin, " connected twice");
      expect_punct(")");
      if (is_punct(")")) break;
      expect_punct(",");
    }

    // Checked at the closing parenthesis, so errors name the instance's line.
    const PinNames* pins = pin_names(kind);
    PinList ins;
    for (const char* pin : pins->inputs) {
      const auto it = connections.find(pin);
      expect_that(it != connections.end(), instance, ": missing pin ", pin);
      ins.push_back(net(netlist, it->second));
    }
    const auto out_it = connections.find(pins->output);
    expect_that(out_it != connections.end(), instance,
                ": missing output pin ", pins->output);
    expect_that(connections.size() == pins->inputs.size() + 1, instance,
                ": ", type, " has ", pins->inputs.size() + 1, " pins, got ",
                connections.size(), " connections");
    expect_punct(")");
    expect_punct(";");
    const CellId id =
        netlist.add_cell(kind, instance, ins, net(netlist, out_it->second));
    if (init) netlist.set_init(id, true);
  }

  void finish_outputs(Netlist& netlist) {
    for (const std::string& port : output_ports_) {
      const auto it = std::find_if(
          pending_assigns_.begin(), pending_assigns_.end(),
          [&](const auto& a) { return a.first == port; });
      expect_that(it != pending_assigns_.end(), "output ", port,
                  " has no assign");
      netlist.add_output(port, net(netlist, it->second));
    }
  }

  void apply_clocks(Netlist& netlist) {
    ClockSpec spec;
    for (const Lexer::ClockDirective& d : lexer_.clock_directives) {
      const auto it = nets_.find(d.net);
      expect_that(it != nets_.end(), "tp-clock names unknown net ", d.net);
      const Phase phase = phase_by_name(d.phase);
      expect_that(phase != Phase::kNone, "tp-clock names unknown phase ",
                  d.phase);
      spec.period_ps = d.period;
      spec.phases.push_back({phase, it->second, d.rise, d.fall});
      const CellId driver = netlist.net(it->second).driver;
      if (driver.valid() &&
          netlist.cell(driver).kind == CellKind::kInput) {
        netlist.set_clock_root(driver, phase);
      }
    }
    netlist.clocks() = spec;
    // Tag sequential/clock cells with the phase of their clock root.
    for (const CellId id : netlist.live_cells()) {
      const Cell& cell = netlist.cell(id);
      const int pin = clock_pin(cell.kind);
      if (pin < 0) continue;
      NetId gate = cell.ins[static_cast<std::size_t>(pin)];
      for (int hop = 0; hop < 64; ++hop) {
        if (const PhaseWaveform* w = [&]() -> const PhaseWaveform* {
              for (const PhaseWaveform& p : spec.phases) {
                if (p.root == gate) return &p;
              }
              return nullptr;
            }()) {
          netlist.set_phase(id, w->phase);
          break;
        }
        const CellId driver = netlist.net(gate).driver;
        if (!driver.valid()) break;
        const Cell& dcell = netlist.cell(driver);
        const int dpin = clock_pin(dcell.kind);
        if (dpin < 0 || !is_clock_cell(dcell.kind)) break;
        gate = dcell.ins[static_cast<std::size_t>(dpin)];
      }
    }
  }

  // --- token plumbing -------------------------------------------------------

  void advance() { token_ = lexer_.next(); }

  [[nodiscard]] bool is_ident(const char* text) const {
    return token_.kind == Token::kIdent && token_.text == text;
  }
  [[nodiscard]] bool is_punct(const char* text) const {
    return token_.kind == Token::kPunct && token_.text == text;
  }

  Token expect(Token::Kind kind) {
    expect_that(token_.kind == kind, "unexpected token '", token_.text, "'");
    Token t = token_;
    advance();
    return t;
  }
  void expect_ident(const char* text) {
    expect_that(is_ident(text), "expected '", text, "'");
    advance();
  }
  void expect_punct(const char* text) {
    expect_that(is_punct(text), "expected '", text, "', got '", token_.text,
                "'");
    advance();
  }

  /// Throws a tp::Error located at the current line unless `ok`. The
  /// message is built only on failure: the parser checks every token.
  template <class... Args>
  void expect_that(bool ok, const Args&... message) const {
    if (!ok) throw Error(cat("verilog:", token_.line, ": ", message...));
  }

  NetId net(Netlist& netlist, const std::string& name) {
    const auto it = nets_.find(name);
    if (it != nets_.end()) return it->second;
    // Implicitly declared net (tolerated, like most Verilog tools).
    const NetId id = netlist.add_net(name);
    nets_[name] = id;
    return id;
  }

  Lexer lexer_;
  Token token_;
  std::unordered_map<std::string, NetId> nets_;
  std::vector<std::string> output_ports_;
  std::vector<std::pair<std::string, std::string>> pending_assigns_;
};

}  // namespace

Netlist read_verilog(std::istream& in) { return Parser(in).parse(); }

Netlist read_verilog_string(const std::string& text) {
  std::istringstream is(text);
  return read_verilog(is);
}

}  // namespace tp
