#include "scada/smt/dimacs.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "scada/util/error.hpp"

namespace scada::smt {

DimacsInstance read_dimacs(std::istream& in) {
  DimacsInstance instance;
  std::size_t declared_clauses = 0;
  bool have_header = false;
  Clause current;

  std::string line;
  while (std::getline(in, line)) {
    // Tolerate CRLF line endings and whitespace-only lines.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == 'c') continue;
    if (line[first] == 'p') {
      if (have_header) throw ParseError("duplicate DIMACS header: " + line);
      std::istringstream header(line.substr(first));
      std::string p, fmt, trailing;
      long vars = 0, clauses = 0;
      if (!(header >> p >> fmt >> vars >> clauses) || fmt != "cnf" || vars < 0 || clauses < 0 ||
          vars > kMaxVar || (header >> trailing)) {
        throw ParseError("malformed DIMACS header: " + line);
      }
      instance.num_vars = static_cast<Var>(vars);
      declared_clauses = static_cast<std::size_t>(clauses);
      have_header = true;
      continue;
    }
    if (!have_header) throw ParseError("DIMACS clause before header");
    std::istringstream body(line);
    long v = 0;
    while (body >> v) {
      if (v == 0) {
        instance.clauses.push_back(current);
        current.clear();
      } else {
        // Range-check while still a long: narrowing first would wrap 2^32 + 1
        // to 1, and negating LONG_MIN overflows.
        if (v < -static_cast<long>(instance.num_vars) || v > instance.num_vars) {
          throw ParseError("DIMACS literal exceeds declared variable count");
        }
        current.push_back(Lit{static_cast<Var>(v < 0 ? -v : v), v < 0});
      }
    }
    if (!body.eof()) {
      // A non-numeric token would otherwise be dropped silently, splicing the
      // surrounding literals into one bogus clause.
      std::string bad;
      body.clear();
      body >> bad;
      throw ParseError("invalid DIMACS literal token '" + bad + "' in line: " + line);
    }
  }
  if (!have_header) throw ParseError("missing DIMACS header");
  if (!current.empty()) throw ParseError("unterminated DIMACS clause");
  if (instance.clauses.size() != declared_clauses) {
    throw ParseError("DIMACS clause count mismatch: declared " +
                     std::to_string(declared_clauses) + ", found " +
                     std::to_string(instance.clauses.size()));
  }
  return instance;
}

DimacsInstance read_dimacs_string(const std::string& text) {
  std::istringstream in(text);
  return read_dimacs(in);
}

void write_dimacs(std::ostream& out, const DimacsInstance& instance) {
  out << "p cnf " << instance.num_vars << ' ' << instance.clauses.size() << '\n';
  for (const Clause& clause : instance.clauses) {
    for (const Lit l : clause) {
      out << (l.negated() ? -static_cast<long>(l.var()) : static_cast<long>(l.var())) << ' ';
    }
    out << "0\n";
  }
}

std::string write_dimacs_string(const DimacsInstance& instance) {
  std::ostringstream out;
  write_dimacs(out, instance);
  return out.str();
}

}  // namespace scada::smt
