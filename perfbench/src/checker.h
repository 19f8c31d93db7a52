// Independent answer checker for the benchmark.
//
// A naive row-at-a-time evaluator of TPC-H Q1, Q3, Q6, Q10 and Q14 over
// the generated cs::Database columns. It shares no code with src/core/:
// predicates, hash joins and aggregation are written out here from the
// TPC-H text (with the generator's fixed-point conventions), so an engine
// bug cannot hide by agreeing with itself. Every refined answer the
// benchmark receives is compared against it, and every approximate answer
// must contain it.

#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "columnstore/database.h"
#include "core/query.h"

namespace perfbench {

/// How an aggregate column of an expected answer combines rows. kAvg
/// columns hold the group *sum*, as core::QueryResult does (the count sits
/// in the group's row count).
enum class AggKind { kSum, kCount, kAvg };

/// One group of an expected answer.
struct GroupValue {
  std::vector<int64_t> aggs;
  int64_t rows = 0;
};

/// The exact answer of one query.
struct Expected {
  std::vector<AggKind> kinds;
  std::map<std::vector<int64_t>, GroupValue> groups;
  uint64_t rows = 0;  ///< rows passing every predicate and join
};

/// Days since 1992-01-01 of a calendar date (own implementation, not the
/// generator's).
int64_t Days(int year, unsigned month, unsigned day);

Expected CheckQ1(const wastenot::cs::Database& db);
/// Q6 with the shipdate year `year` (1993..1997).
Expected CheckQ6(const wastenot::cs::Database& db, int year);
Expected CheckQ14(const wastenot::cs::Database& db);
Expected CheckQ3(const wastenot::cs::Database& db);
Expected CheckQ10(const wastenot::cs::Database& db);

/// Q6 over explicit rows, for the ingest workload: adds the contribution
/// of one row (l_shipdate, l_discount, l_quantity, l_extendedprice) to a
/// running (revenue, rows) pair.
struct Q6Sum {
  int64_t revenue = 0;
  int64_t rows = 0;
  bool operator==(const Q6Sum&) const = default;
};
void AddQ6Row(int year, int64_t shipdate, int64_t discount, int64_t quantity,
              int64_t price, Q6Sum* sum);
Expected Q6Expected(const Q6Sum& sum);

/// Empty string when `result` equals `expected` exactly (same groups, same
/// keys, same aggregate values and row counts); otherwise what differs.
std::string CompareExact(const Expected& expected,
                         const wastenot::core::QueryResult& result);

/// Empty string when every interval of `approx` contains the exact answer:
/// each exact group lies in exactly one approximate group's key bounds,
/// and each approximate group's aggregate intervals contain the
/// accumulated exact values of the groups it covers (0 when it covers
/// none; floor and ceiling of the quotient for averages). The row-count
/// interval must contain the exact row count.
std::string CompareApprox(const Expected& expected,
                          const wastenot::core::ApproximateAnswer& approx);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
