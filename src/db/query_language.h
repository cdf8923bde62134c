#ifndef VDB_DB_QUERY_LANGUAGE_H_
#define VDB_DB_QUERY_LANGUAGE_H_

#include <chrono>
#include <string>
#include <vector>

#include "db/database.h"
#include "exec/predicate.h"

namespace vdb {

/// SQL-style vector query interface (paper §2.1 "Query Interfaces": VDBMSs
/// with wide query support "may rely on SQL extensions"; §2.4(2) extended
/// relational systems expose vector search through the SQL surface, as in
/// PASE / pgvector). The dialect:
///
///   SELECT knn(k) FROM <collection>
///     [WHERE <predicate>]
///     ORDER BY distance([v1, v2, ...])
///
/// with predicates over the collection's attributes:
///
///   col = 3            col != 'red'        col < 4.5
///   col <= 7           col > 1             col >= 0
///   col BETWEEN 1 AND 9
///   col IN (1, 2, 3)   col IN ('a', 'b')
///   <p> AND <p>        <p> OR <p>          NOT <p>        ( <p> )
///
/// Literals: integers, floats (any '.'-containing number), and
/// single-quoted strings ('' escapes a quote). Keywords are
/// case-insensitive; identifiers are case-sensitive.
///
/// A query may be prefixed with `EXPLAIN ANALYZE`, which executes it and
/// additionally returns the chosen plan plus the measured span tree
/// (per-stage wall times and SearchStats).
struct ParsedQuery {
  std::string collection;
  std::size_t k = 10;
  std::vector<float> query_vector;
  Predicate predicate;  ///< Predicate::True() when no WHERE clause
  bool has_predicate = false;
  bool explain_analyze = false;
};

/// Parses the dialect above; errors carry position context.
Result<ParsedQuery> ParseQuery(const std::string& text);

/// Execution result with the full per-query telemetry surface.
struct QueryResult {
  std::vector<Neighbor> rows;
  ExecStats stats;
  std::string plan;     ///< chosen hybrid plan; empty for pure k-NN
  std::string explain;  ///< measured span tree; nonempty iff EXPLAIN ANALYZE
};

/// Per-execution options carried from outside the query text — the
/// serving layer's request envelope (deadline propagation); the query
/// dialect itself stays purely declarative.
struct QueryOptions {
  /// Absolute steady-clock deadline; epoch-zero = none. Propagated into
  /// SearchParams::deadline, so an expired query is cancelled before the
  /// index scan runs (DEADLINE_EXCEEDED) rather than computed.
  std::chrono::steady_clock::time_point deadline{};
  /// Requesting tenant (serving layer); recorded with the query in the
  /// flight recorder. Empty for unattributed local execution.
  std::string tenant;
  /// Request the measured span tree in `QueryResult::explain` even
  /// without an EXPLAIN ANALYZE prefix — the wire trace flag: a remote
  /// client asks for attribution without rewriting its query text.
  bool trace = false;
};

/// Parses and executes against `db` (hybrid path when a WHERE clause is
/// present, plain k-NN otherwise). The relational-optimizer analogy of
/// §2.4(2): the collection's configured plan optimizer picks the plan.
/// Every query is traced (spans feed the flight recorder and, under
/// EXPLAIN ANALYZE or `opts.trace`, the returned `explain` text) and
/// counted in the global metrics registry. Every completion — success
/// or failure — is offered to the global FlightRecorder, which retains
/// the worst recent ones with their span trees, verdicts, and deadline
/// slack (exec/flight_recorder.h).
Result<QueryResult> ExecuteQueryTraced(Database* db, const std::string& text,
                                       const QueryOptions& opts = {});

/// Compatibility wrapper around ExecuteQueryTraced returning rows only.
Result<std::vector<Neighbor>> ExecuteQuery(Database* db,
                                           const std::string& text,
                                           ExecStats* stats = nullptr);

}  // namespace vdb

#endif  // VDB_DB_QUERY_LANGUAGE_H_
