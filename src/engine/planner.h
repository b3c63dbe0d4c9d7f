// Planner: turns a QuerySpec into an executable operator tree plus an
// optimizer-style cost estimate measured in work units U.
//
// The analytic cost comes from catalog statistics (page counts, index
// height, match density); a log-normal noise factor is then applied to
// model the imprecise statistics the paper blames for residual PI error
// ("the estimates provided by multi-query PIs have errors, mainly due
// to the imprecise statistics collected by PostgreSQL").
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "common/query_label.h"
#include "common/random.h"
#include "common/status.h"
#include "common/units.h"
#include "engine/query_execution.h"
#include "storage/catalog.h"

namespace mqpi::engine {

struct CostModelOptions {
  /// Sigma of the log-normal multiplicative error on optimizer cost
  /// estimates. 0 = perfect statistics (paper Assumption 2).
  double noise_sigma = 0.25;
  /// Seed for the noise stream.
  std::uint64_t noise_seed = 7;
};

/// Declarative description of a query to run.
struct QuerySpec {
  enum class Kind {
    kTpcrPartPrice,
    kScanAggregate,
    kJoinAggregate,
    kGroupByAggregate,
    kTopN,
    kSynthetic,
  };

  Kind kind = Kind::kSynthetic;
  /// kTpcrPartPrice: the part_i table. kScanAggregate: the scanned table.
  std::string table;
  /// kScanAggregate only.
  AggFunc agg = AggFunc::kCount;
  std::string agg_column;          // ignored for kCount
  std::string filter_column;       // optional WHERE column
  double filter_threshold = 0.0;   // WHERE filter_column > threshold
  bool has_filter = false;
  /// kGroupByAggregate only: int64 grouping column.
  std::string group_column;
  /// kTopN only: sort column, direction, and row limit.
  std::string order_column;
  bool descending = true;
  std::size_t limit = 0;
  /// kSynthetic only: exact cost in work units.
  WorkUnits synthetic_cost = 0.0;

  /// SQL-ish rendering for logs and examples.
  std::string ToString() const;
  /// ToString()'s text as a shared label, copied once from the render
  /// buffer (the scheduler stores it at Submit).
  QueryLabel Label() const;

  /// The paper's Q_i: select * from <part_table> p where
  /// p.retailprice*0.75 > (select sum(l.extendedprice)/sum(l.quantity)
  /// from lineitem l where l.partkey = p.partkey).
  static QuerySpec TpcrPartPrice(std::string part_table);

  /// select AGG(agg_column) from <table> [where filter_column > t].
  static QuerySpec ScanAggregate(std::string table, AggFunc agg,
                                 std::string agg_column);
  QuerySpec& WithFilter(std::string column, double threshold);

  /// select AGG(l.agg_column) from <part_table> p join lineitem l on
  /// p.partkey = l.partkey — a hash join with the part table as build
  /// side, aggregated to one row. The "other kinds of queries" class
  /// the paper reports testing alongside the correlated-sub-query
  /// template.
  static QuerySpec JoinAggregate(std::string part_table, AggFunc agg,
                                 std::string agg_column);

  /// select group_column, AGG(agg_column) from <table>
  /// [where filter_column > t] group by group_column.
  static QuerySpec GroupByAggregate(std::string table,
                                    std::string group_column, AggFunc agg,
                                    std::string agg_column);

  /// select * from <table> [where filter_column > t]
  /// order by order_column [desc] limit N.
  static QuerySpec TopN(std::string table, std::string order_column,
                        bool descending, std::size_t limit);

  /// A cost-only query of exactly `cost` work units.
  static QuerySpec Synthetic(WorkUnits cost);

 private:
  void Render(std::ostream& os) const;
};

struct PreparedQuery {
  std::unique_ptr<QueryExecution> execution;
  /// Optimizer's (noisy) total cost estimate.
  WorkUnits optimizer_cost = 0.0;
  /// Noise-free analytic cost, for tests and calibration.
  WorkUnits analytic_cost = 0.0;
  /// Histogram-based estimate of result rows (0 for synthetic queries).
  double estimated_result_rows = 0.0;
  /// Estimated rows flowing into the top operator (after filters/joins).
  double estimated_input_rows = 0.0;
  /// EXPLAIN-style plan rendering.
  std::string plan_text;
};

class Planner {
 public:
  /// `catalog` and `buffers` must outlive the planner and all queries
  /// it prepares.
  Planner(const storage::Catalog* catalog, storage::BufferManager* buffers,
          CostModelOptions options = {});

  /// Plans against the shared buffer pool.
  Result<PreparedQuery> Prepare(const QuerySpec& spec);

  /// Plans against a caller-supplied pool (used for dry runs).
  Result<PreparedQuery> PrepareWithBuffers(const QuerySpec& spec,
                                           storage::BufferManager* buffers);

  /// Executes a fresh instance of `spec` to completion against a
  /// private buffer pool and returns the exact total cost in U's.
  /// Used by experiments that need ground truth; the PIs never call it.
  Result<WorkUnits> MeasureTrueCost(const QuerySpec& spec);

  /// EXPLAIN-style report: the plan shape, cost estimates, and
  /// cardinality estimates, without running the query. (Consumes one
  /// draw from the noise stream, like Prepare.)
  Result<std::string> Explain(const QuerySpec& spec);

  const CostModelOptions& options() const { return options_; }

 private:
  const storage::Catalog* catalog_;
  storage::BufferManager* buffers_;
  CostModelOptions options_;
  Rng rng_;
};

}  // namespace mqpi::engine
