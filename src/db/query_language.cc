#include "db/query_language.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "core/telemetry.h"
#include "exec/flight_recorder.h"
#include "exec/trace.h"

namespace vdb {

namespace {

enum class TokKind {
  kEnd,
  kIdent,    ///< bare identifier / keyword
  kNumber,   ///< integer or float literal
  kString,   ///< single-quoted
  kSymbol,   ///< punctuation or operator
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  std::size_t pos = 0;
  bool is_float = false;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    std::size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      Token tok;
      tok.pos = i;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        while (i < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '_')) {
          tok.text.push_back(text_[i++]);
        }
        tok.kind = TokKind::kIdent;
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
                 c == '+' || c == '.') {
        bool has_dot = false, has_digit = false;
        if (c == '-' || c == '+') tok.text.push_back(text_[i++]);
        while (i < text_.size()) {
          char d = text_[i];
          if (std::isdigit(static_cast<unsigned char>(d))) {
            has_digit = true;
          } else if (d == '.' && !has_dot) {
            has_dot = true;
          } else if ((d == 'e' || d == 'E') && has_digit) {
            has_dot = true;  // scientific: treat as float
            tok.text.push_back(text_[i++]);
            if (i < text_.size() && (text_[i] == '-' || text_[i] == '+')) {
              tok.text.push_back(text_[i++]);
            }
            continue;
          } else {
            break;
          }
          tok.text.push_back(text_[i++]);
        }
        if (!has_digit) {
          return Status::InvalidArgument("bad number at position " +
                                         std::to_string(tok.pos));
        }
        tok.kind = TokKind::kNumber;
        tok.is_float = has_dot;
      } else if (c == '\'') {
        ++i;
        while (i < text_.size()) {
          if (text_[i] == '\'') {
            if (i + 1 < text_.size() && text_[i + 1] == '\'') {
              tok.text.push_back('\'');
              i += 2;
              continue;
            }
            break;
          }
          tok.text.push_back(text_[i++]);
        }
        if (i >= text_.size()) {
          return Status::InvalidArgument("unterminated string at position " +
                                         std::to_string(tok.pos));
        }
        ++i;  // closing quote
        tok.kind = TokKind::kString;
      } else {
        // Multi-char operators first.
        if ((c == '<' || c == '>' || c == '!') && i + 1 < text_.size() &&
            text_[i + 1] == '=') {
          tok.text = {c, '='};
          i += 2;
        } else {
          tok.text = {c};
          ++i;
        }
        tok.kind = TokKind::kSymbol;
      }
      out.push_back(std::move(tok));
    }
    Token end;
    end.pos = text_.size();
    out.push_back(end);
    return out;
  }

 private:
  const std::string& text_;
};

bool KeywordIs(const Token& tok, const char* kw) {
  if (tok.kind != TokKind::kIdent) return false;
  const char* p = kw;
  for (char c : tok.text) {
    if (*p == '\0' ||
        std::toupper(static_cast<unsigned char>(c)) != *p) {
      return false;
    }
    ++p;
  }
  return *p == '\0';
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedQuery> Parse() {
    ParsedQuery query;
    if (KeywordIs(Peek(), "EXPLAIN")) {
      Advance();
      VDB_RETURN_IF_ERROR(ExpectKeyword("ANALYZE"));
      query.explain_analyze = true;
    }
    VDB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    VDB_RETURN_IF_ERROR(ExpectKeyword("KNN"));
    VDB_RETURN_IF_ERROR(ExpectSymbol("("));
    VDB_ASSIGN_OR_RETURN(Token k, ExpectNumber());
    if (k.is_float) return Error(k, "k must be an integer");
    query.k = static_cast<std::size_t>(std::strtoull(k.text.c_str(), nullptr, 10));
    if (query.k == 0) return Error(k, "k must be positive");
    VDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    VDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    VDB_ASSIGN_OR_RETURN(Token coll, ExpectIdent());
    query.collection = coll.text;

    if (KeywordIs(Peek(), "WHERE")) {
      Advance();
      VDB_ASSIGN_OR_RETURN(query.predicate, ParseOr());
      query.has_predicate = true;
    }

    VDB_RETURN_IF_ERROR(ExpectKeyword("ORDER"));
    VDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
    VDB_RETURN_IF_ERROR(ExpectKeyword("DISTANCE"));
    VDB_RETURN_IF_ERROR(ExpectSymbol("("));
    VDB_RETURN_IF_ERROR(ExpectSymbol("["));
    while (true) {
      VDB_ASSIGN_OR_RETURN(Token v, ExpectNumber());
      query.query_vector.push_back(std::strtof(v.text.c_str(), nullptr));
      if (PeekSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    VDB_RETURN_IF_ERROR(ExpectSymbol("]"));
    VDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    if (Peek().kind != TokKind::kEnd) {
      return Error(Peek(), "trailing input");
    }
    return query;
  }

 private:
  const Token& Peek(std::size_t ahead = 0) const {
    std::size_t at = std::min(at_ + ahead, tokens_.size() - 1);
    return tokens_[at];
  }
  void Advance() {
    if (at_ + 1 < tokens_.size()) ++at_;
  }
  bool PeekSymbol(const char* sym) const {
    return Peek().kind == TokKind::kSymbol && Peek().text == sym;
  }
  static Status Error(const Token& tok, const std::string& message) {
    return Status::InvalidArgument(message + " at position " +
                                   std::to_string(tok.pos));
  }
  Status ExpectKeyword(const char* kw) {
    if (!KeywordIs(Peek(), kw)) {
      return Error(Peek(), std::string("expected ") + kw);
    }
    Advance();
    return Status::Ok();
  }
  Status ExpectSymbol(const char* sym) {
    if (!PeekSymbol(sym)) {
      return Error(Peek(), std::string("expected '") + sym + "'");
    }
    Advance();
    return Status::Ok();
  }
  Result<Token> ExpectIdent() {
    if (Peek().kind != TokKind::kIdent) {
      return Error(Peek(), "expected identifier");
    }
    Token tok = Peek();
    Advance();
    return tok;
  }
  Result<Token> ExpectNumber() {
    if (Peek().kind != TokKind::kNumber) {
      return Error(Peek(), "expected number");
    }
    Token tok = Peek();
    Advance();
    return tok;
  }

  Result<AttrValue> ParseValue() {
    const Token& tok = Peek();
    if (tok.kind == TokKind::kString) {
      Advance();
      return AttrValue(tok.text);
    }
    if (tok.kind == TokKind::kNumber) {
      Advance();
      if (tok.is_float) return AttrValue(std::strtod(tok.text.c_str(), nullptr));
      return AttrValue(static_cast<std::int64_t>(
          std::strtoll(tok.text.c_str(), nullptr, 10)));
    }
    return Error(tok, "expected literal");
  }

  // or := and (OR and)*
  Result<Predicate> ParseOr() {
    VDB_ASSIGN_OR_RETURN(Predicate left, ParseAnd());
    while (KeywordIs(Peek(), "OR")) {
      Advance();
      VDB_ASSIGN_OR_RETURN(Predicate right, ParseAnd());
      left = Predicate::Or(left, right);
    }
    return left;
  }
  // and := unary (AND unary)*
  Result<Predicate> ParseAnd() {
    VDB_ASSIGN_OR_RETURN(Predicate left, ParseUnary());
    while (KeywordIs(Peek(), "AND")) {
      Advance();
      VDB_ASSIGN_OR_RETURN(Predicate right, ParseUnary());
      left = Predicate::And(left, right);
    }
    return left;
  }
  // unary := NOT unary | '(' or ')' | comparison
  Result<Predicate> ParseUnary() {
    if (KeywordIs(Peek(), "NOT")) {
      Advance();
      VDB_ASSIGN_OR_RETURN(Predicate inner, ParseUnary());
      return Predicate::Not(inner);
    }
    if (PeekSymbol("(")) {
      Advance();
      VDB_ASSIGN_OR_RETURN(Predicate inner, ParseOr());
      VDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }
    return ParseComparison();
  }
  // comparison := ident (op value | BETWEEN v AND v | IN '(' v,... ')')
  Result<Predicate> ParseComparison() {
    VDB_ASSIGN_OR_RETURN(Token column, ExpectIdent());
    if (KeywordIs(Peek(), "BETWEEN")) {
      Advance();
      VDB_ASSIGN_OR_RETURN(AttrValue lo, ParseValue());
      VDB_RETURN_IF_ERROR(ExpectKeyword("AND"));
      VDB_ASSIGN_OR_RETURN(AttrValue hi, ParseValue());
      return Predicate::Between(column.text, lo, hi);
    }
    if (KeywordIs(Peek(), "IN")) {
      Advance();
      VDB_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<AttrValue> values;
      while (true) {
        VDB_ASSIGN_OR_RETURN(AttrValue v, ParseValue());
        values.push_back(std::move(v));
        if (PeekSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      VDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      return Predicate::In(column.text, std::move(values));
    }
    const Token& op = Peek();
    if (op.kind != TokKind::kSymbol) return Error(op, "expected operator");
    CmpOp cmp;
    if (op.text == "=") {
      cmp = CmpOp::kEq;
    } else if (op.text == "!=") {
      cmp = CmpOp::kNe;
    } else if (op.text == "<") {
      cmp = CmpOp::kLt;
    } else if (op.text == "<=") {
      cmp = CmpOp::kLe;
    } else if (op.text == ">") {
      cmp = CmpOp::kGt;
    } else if (op.text == ">=") {
      cmp = CmpOp::kGe;
    } else {
      return Error(op, "unknown operator '" + op.text + "'");
    }
    Advance();
    VDB_ASSIGN_OR_RETURN(AttrValue value, ParseValue());
    return Predicate::Cmp(column.text, cmp, std::move(value));
  }

  std::vector<Token> tokens_;
  std::size_t at_ = 0;
};

}  // namespace

Result<ParsedQuery> ParseQuery(const std::string& text) {
  Lexer lexer(text);
  VDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.Parse();
}

Result<QueryResult> ExecuteQueryTraced(Database* db, const std::string& text,
                                       const QueryOptions& opts) {
  if (db == nullptr) return Status::InvalidArgument("db must not be null");
  auto& reg = Registry::Global();
  static Histogram& latency = reg.GetHistogram("vdb_query_seconds");

  QueryResult result;
  QueryTrace trace;
  bool want_explain = opts.trace;

  // The pipeline runs inside a lambda so that *every* exit — parse
  // error, missing collection, expired deadline, backend failure — falls
  // through to the latency histogram and the flight recorder below.
  // Failures are exactly the completions the flight recorder exists to
  // retain.
  auto run = [&]() -> Status {
    TraceScope root(&trace, "query");
    ParsedQuery query;
    {
      TraceScope parse_span(&trace, "parse");
      VDB_ASSIGN_OR_RETURN(query, ParseQuery(text));
    }
    want_explain = want_explain || query.explain_analyze;
    VDB_ASSIGN_OR_RETURN(Collection * collection,
                         db->GetCollection(query.collection));
    if (query.query_vector.size() != collection->dim()) {
      return Status::InvalidArgument(
          "query vector has " + std::to_string(query.query_vector.size()) +
          " dims; collection expects " + std::to_string(collection->dim()));
    }
    SearchParams params;
    params.trace = &trace;
    params.k = query.k;  // the plan choice depends on k
    params.deadline = opts.deadline;
    if (params.DeadlineExpired()) {
      // Cancel before planning: a doomed query should cost nothing.
      return Status::DeadlineExceeded(
          "query deadline expired before execution");
    }
    if (query.has_predicate) {
      VDB_RETURN_IF_ERROR(collection->Hybrid(query.query_vector,
                                             query.predicate, query.k,
                                             &result.rows, &result.stats,
                                             nullptr, &params));
      if (result.stats.plan) result.plan = result.stats.plan->ToString();
    } else {
      VDB_RETURN_IF_ERROR(collection->Knn(query.query_vector, query.k,
                                          &result.rows, &result.stats.search,
                                          &params));
    }
    return Status::Ok();
  };
  Status st = run();

  const double total_ms = trace.TotalMillis();
  latency.Observe(total_ms / 1e3);
  FlightRecorder& recorder = FlightRecorder::Global();
  if (std::uint64_t seq = recorder.NoteCompletion(!st.ok(), total_ms)) {
    FlightRecord rec;
    rec.seq = seq;
    rec.query = text;
    rec.tenant = opts.tenant;
    rec.verdict = std::string(Status::CodeName(st.code()));
    rec.failed = !st.ok();
    rec.total_ms = total_ms;
    if (opts.deadline != std::chrono::steady_clock::time_point{}) {
      rec.has_deadline = true;
      rec.deadline_slack_ms =
          std::chrono::duration<double, std::milli>(
              opts.deadline - std::chrono::steady_clock::now())
              .count();
    }
    rec.stages = trace.StageSummary();
    rec.trace = trace.Render();
    recorder.Record(std::move(rec));
  }

  if (!st.ok()) return st;
  if (want_explain) {
    if (!result.plan.empty()) result.explain = "plan: " + result.plan + "\n";
    result.explain += trace.Render();
    if (opts.trace) {
      // Wire-traced queries also get the compact per-stage attribution
      // line, so a remote client can parse stage costs without walking
      // the indented tree. (EXPLAIN ANALYZE output is unchanged.)
      result.explain += "stages: " + trace.StageSummary() + "\n";
    }
  }
  return result;
}

Result<std::vector<Neighbor>> ExecuteQuery(Database* db,
                                           const std::string& text,
                                           ExecStats* stats) {
  VDB_ASSIGN_OR_RETURN(QueryResult result, ExecuteQueryTraced(db, text));
  if (stats != nullptr) *stats = result.stats;
  return std::move(result.rows);
}

}  // namespace vdb
