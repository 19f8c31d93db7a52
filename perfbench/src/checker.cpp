#include "checker.h"

#include <chrono>
#include <unordered_map>

namespace perfbench {

namespace cs = wastenot::cs;
namespace core = wastenot::core;

namespace {

/// Reads a column row by row, whatever its physical type.
class Col {
 public:
  Col(const cs::Database& db, const char* table, const char* column)
      : col_(db.table(table).column(column)) {}
  int64_t operator[](uint64_t row) const { return col_.Get(row); }
  uint64_t size() const { return col_.size(); }

 private:
  const cs::Column& col_;
};

/// Dictionary codes whose string satisfies `match`.
template <typename Match>
std::vector<bool> CodesWhere(const cs::Database& db, const char* table,
                             const char* column, Match match) {
  const cs::Dictionary* dict = db.table(table).dictionary(column);
  std::vector<bool> codes(dict != nullptr ? dict->size() : 0, false);
  for (int32_t c = 0; c < static_cast<int32_t>(codes.size()); ++c) {
    codes[c] = match(dict->Decode(c));
  }
  return codes;
}

bool HasCode(const std::vector<bool>& codes, int64_t code) {
  return code >= 0 && code < static_cast<int64_t>(codes.size()) && codes[code];
}

/// Key → row hash index over a dense-keyed dimension column set
/// (TPC-H keys are row + 1), built the way a hash join's build side is.
std::unordered_map<int64_t, uint64_t> BuildKeyIndex(uint64_t rows) {
  std::unordered_map<int64_t, uint64_t> index;
  index.reserve(rows);
  for (uint64_t r = 0; r < rows; ++r) index.emplace(static_cast<int64_t>(r + 1), r);
  return index;
}

void Accumulate(Expected* e, const std::vector<int64_t>& key,
                const std::vector<int64_t>& values) {
  GroupValue& g = e->groups[key];
  if (g.aggs.empty()) g.aggs.assign(values.size(), 0);
  for (size_t i = 0; i < values.size(); ++i) g.aggs[i] += values[i];
  ++g.rows;
  ++e->rows;
}

}  // namespace

int64_t Days(int year, unsigned month, unsigned day) {
  using namespace std::chrono;
  const sys_days d{std::chrono::year{year} / std::chrono::month{month} /
                   std::chrono::day{day}};
  const sys_days epoch{std::chrono::year{1992} / January / 1};
  return (d - epoch).count();
}

Expected CheckQ1(const cs::Database& db) {
  Expected e;
  e.kinds = {AggKind::kSum, AggKind::kSum, AggKind::kSum, AggKind::kSum,
             AggKind::kAvg, AggKind::kAvg, AggKind::kAvg, AggKind::kCount};
  const Col ship(db, "lineitem", "l_shipdate"), qty(db, "lineitem", "l_quantity"),
      price(db, "lineitem", "l_extendedprice"), disc(db, "lineitem", "l_discount"),
      tax(db, "lineitem", "l_tax"), flag(db, "lineitem", "l_returnflag"),
      status(db, "lineitem", "l_linestatus");
  // shipdate <= date '1998-12-01' - interval '90' day
  const int64_t cutoff = Days(1998, 12, 1) - 90;
  for (uint64_t r = 0; r < ship.size(); ++r) {
    if (ship[r] > cutoff) continue;
    const int64_t disc_price = price[r] * (100 - disc[r]);
    Accumulate(&e, {flag[r], status[r]},
               {qty[r], price[r], disc_price, disc_price * (100 + tax[r]),
                qty[r], price[r], disc[r], 1});
  }
  return e;
}

void AddQ6Row(int year, int64_t shipdate, int64_t discount, int64_t quantity,
              int64_t price, Q6Sum* sum) {
  // shipdate in [year-01-01, year+1-01-01), discount 0.06 +- 0.01,
  // quantity < 24.
  if (shipdate < Days(year, 1, 1) || shipdate >= Days(year + 1, 1, 1)) return;
  if (discount < 5 || discount > 7 || quantity >= 24) return;
  sum->revenue += price * discount;
  ++sum->rows;
}

Expected Q6Expected(const Q6Sum& sum) {
  Expected e;
  e.kinds = {AggKind::kSum};
  e.groups[{}] = GroupValue{{sum.revenue}, sum.rows};
  e.rows = static_cast<uint64_t>(sum.rows);
  return e;
}

Expected CheckQ6(const cs::Database& db, int year) {
  const Col ship(db, "lineitem", "l_shipdate"), qty(db, "lineitem", "l_quantity"),
      price(db, "lineitem", "l_extendedprice"), disc(db, "lineitem", "l_discount");
  Q6Sum sum;
  for (uint64_t r = 0; r < ship.size(); ++r) {
    AddQ6Row(year, ship[r], disc[r], qty[r], price[r], &sum);
  }
  return Q6Expected(sum);
}

Expected CheckQ14(const cs::Database& db) {
  Expected e;
  e.kinds = {AggKind::kSum, AggKind::kSum};
  const Col ship(db, "lineitem", "l_shipdate"), partkey(db, "lineitem", "l_partkey"),
      price(db, "lineitem", "l_extendedprice"), disc(db, "lineitem", "l_discount");
  const Col type(db, "part", "p_type");
  const std::vector<bool> promo = CodesWhere(
      db, "part", "p_type",
      [](const std::string& s) { return s.rfind("PROMO", 0) == 0; });
  const auto part_index = BuildKeyIndex(type.size());
  const int64_t lo = Days(1995, 9, 1), hi = Days(1995, 10, 1);
  e.groups[{}] = GroupValue{{0, 0}, 0};
  for (uint64_t r = 0; r < ship.size(); ++r) {
    if (ship[r] < lo || ship[r] >= hi) continue;
    const auto part = part_index.find(partkey[r]);
    if (part == part_index.end()) continue;
    const int64_t revenue = price[r] * (100 - disc[r]);
    const bool is_promo = HasCode(promo, type[part->second]);
    Accumulate(&e, {}, {is_promo ? revenue : 0, revenue});
  }
  return e;
}

Expected CheckQ3(const cs::Database& db) {
  Expected e;
  e.kinds = {AggKind::kSum};
  const Col ship(db, "lineitem", "l_shipdate"), orderkey(db, "lineitem", "l_orderkey"),
      price(db, "lineitem", "l_extendedprice"), disc(db, "lineitem", "l_discount");
  const Col odate(db, "orders", "o_orderdate"), ocust(db, "orders", "o_custkey"),
      oprio(db, "orders", "o_shippriority");
  const Col segment(db, "customer", "c_mktsegment");
  const std::vector<bool> building = CodesWhere(
      db, "customer", "c_mktsegment",
      [](const std::string& s) { return s == "BUILDING"; });
  const auto order_index = BuildKeyIndex(odate.size());
  const auto cust_index = BuildKeyIndex(segment.size());
  const int64_t date = Days(1995, 3, 15);
  for (uint64_t r = 0; r < ship.size(); ++r) {
    if (ship[r] <= date) continue;
    const auto order = order_index.find(orderkey[r]);
    if (order == order_index.end() || odate[order->second] >= date) continue;
    const auto cust = cust_index.find(ocust[order->second]);
    if (cust == cust_index.end() || !HasCode(building, segment[cust->second])) {
      continue;
    }
    Accumulate(&e, {orderkey[r], odate[order->second], oprio[order->second]},
               {price[r] * (100 - disc[r])});
  }
  return e;
}

Expected CheckQ10(const cs::Database& db) {
  Expected e;
  e.kinds = {AggKind::kSum, AggKind::kCount};
  const Col flag(db, "lineitem", "l_returnflag"), orderkey(db, "lineitem", "l_orderkey"),
      price(db, "lineitem", "l_extendedprice"), disc(db, "lineitem", "l_discount");
  const Col odate(db, "orders", "o_orderdate"), ocust(db, "orders", "o_custkey");
  const Col nation(db, "customer", "c_nationkey");
  const std::vector<bool> returned = CodesWhere(
      db, "lineitem", "l_returnflag",
      [](const std::string& s) { return s == "R"; });
  const auto order_index = BuildKeyIndex(odate.size());
  const auto cust_index = BuildKeyIndex(nation.size());
  const int64_t lo = Days(1993, 10, 1), hi = Days(1994, 1, 1);
  for (uint64_t r = 0; r < flag.size(); ++r) {
    if (!HasCode(returned, flag[r])) continue;
    const auto order = order_index.find(orderkey[r]);
    if (order == order_index.end()) continue;
    const int64_t od = odate[order->second];
    if (od < lo || od >= hi) continue;
    const int64_t custkey = ocust[order->second];
    const auto cust = cust_index.find(custkey);
    if (cust == cust_index.end()) continue;
    Accumulate(&e, {custkey, nation[cust->second]},
               {price[r] * (100 - disc[r]), 1});
  }
  return e;
}

std::string CompareExact(const Expected& expected,
                         const core::QueryResult& result) {
  if (result.num_groups() != expected.groups.size()) {
    return "group count " + std::to_string(result.num_groups()) +
           " != expected " + std::to_string(expected.groups.size());
  }
  if (result.selected_rows != expected.rows) {
    return "selected rows " + std::to_string(result.selected_rows) +
           " != expected " + std::to_string(expected.rows);
  }
  for (uint64_t g = 0; g < result.num_groups(); ++g) {
    const auto it = expected.groups.find(result.group_keys[g]);
    if (it == expected.groups.end()) {
      return "group " + std::to_string(g) + " has a key the checker lacks";
    }
    if (result.agg_values[g] != it->second.aggs) {
      return "group " + std::to_string(g) + " aggregates differ";
    }
    if (g < result.group_counts.size() &&
        result.group_counts[g] != it->second.rows) {
      return "group " + std::to_string(g) + " row count " +
             std::to_string(result.group_counts[g]) + " != expected " +
             std::to_string(it->second.rows);
    }
  }
  return "";
}

namespace {

bool Contains(const core::ValueBounds& b, int64_t v) {
  return v >= b.lo && v <= b.hi;
}

int64_t FloorQuotient(int64_t a, int64_t b) {
  int64_t q = a / b;
  if (a % b != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

std::string CompareApprox(const Expected& expected,
                          const core::ApproximateAnswer& approx) {
  if (!Contains(approx.row_count, static_cast<int64_t>(expected.rows))) {
    return "row-count interval misses " + std::to_string(expected.rows);
  }
  const size_t num_aggs = expected.kinds.size();
  // Exact groups covered by each approximate group, found by key lookup
  // for point-keyed approximate groups and by scanning otherwise.
  std::map<const std::vector<int64_t>*, int> cover;
  std::vector<std::vector<const std::pair<const std::vector<int64_t>,
                                          GroupValue>*>>
      members(approx.num_groups());
  for (uint64_t ga = 0; ga < approx.num_groups(); ++ga) {
    const auto& keys = approx.key_bounds[ga];
    bool point = true;
    std::vector<int64_t> key;
    for (const auto& b : keys) {
      point &= b.lo == b.hi;
      key.push_back(b.lo);
    }
    if (point) {
      const auto it = expected.groups.find(key);
      if (it != expected.groups.end()) members[ga].push_back(&*it);
      continue;
    }
    for (const auto& entry : expected.groups) {
      bool inside = entry.first.size() == keys.size();
      for (size_t k = 0; inside && k < keys.size(); ++k) {
        inside = Contains(keys[k], entry.first[k]);
      }
      if (inside) members[ga].push_back(&entry);
    }
  }
  for (const auto& m : members) {
    for (const auto* entry : m) ++cover[&entry->first];
  }
  for (const auto& entry : expected.groups) {
    const auto it = cover.find(&entry.first);
    const int n = it == cover.end() ? 0 : it->second;
    if (n != 1) {
      return "an exact group lies in " + std::to_string(n) +
             " approximate groups";
    }
  }
  for (uint64_t ga = 0; ga < approx.num_groups(); ++ga) {
    std::vector<int64_t> sums(num_aggs, 0);
    int64_t rows = 0;
    for (const auto* entry : members[ga]) {
      for (size_t i = 0; i < num_aggs; ++i) sums[i] += entry->second.aggs[i];
      rows += entry->second.rows;
    }
    if (approx.agg_bounds[ga].size() != num_aggs) {
      return "approximate group " + std::to_string(ga) + " has " +
             std::to_string(approx.agg_bounds[ga].size()) + " aggregates";
    }
    for (size_t i = 0; i < num_aggs; ++i) {
      const core::ValueBounds& b = approx.agg_bounds[ga][i];
      bool ok = true;
      if (expected.kinds[i] != AggKind::kAvg) {
        ok = Contains(b, sums[i]);
      } else if (rows > 0) {
        const int64_t lo = FloorQuotient(sums[i], rows);
        const int64_t hi = lo * rows == sums[i] ? lo : lo + 1;
        ok = Contains(b, lo) && Contains(b, hi);
      }
      if (!ok) {
        return "approximate group " + std::to_string(ga) + " aggregate " +
               std::to_string(i) + " [" + std::to_string(b.lo) + ", " +
               std::to_string(b.hi) + "] misses " + std::to_string(sums[i]);
      }
    }
  }
  return "";
}

}  // namespace perfbench
