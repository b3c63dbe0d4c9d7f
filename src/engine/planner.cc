#include "engine/planner.h"

#include <cmath>
#include <limits>
#include <sstream>

namespace mqpi::engine {

// ---- QuerySpec -------------------------------------------------------------

QuerySpec QuerySpec::TpcrPartPrice(std::string part_table) {
  QuerySpec spec;
  spec.kind = Kind::kTpcrPartPrice;
  spec.table = std::move(part_table);
  return spec;
}

QuerySpec QuerySpec::ScanAggregate(std::string table, AggFunc agg,
                                   std::string agg_column) {
  QuerySpec spec;
  spec.kind = Kind::kScanAggregate;
  spec.table = std::move(table);
  spec.agg = agg;
  spec.agg_column = std::move(agg_column);
  return spec;
}

QuerySpec& QuerySpec::WithFilter(std::string column, double threshold) {
  filter_column = std::move(column);
  filter_threshold = threshold;
  has_filter = true;
  return *this;
}

QuerySpec QuerySpec::GroupByAggregate(std::string table,
                                      std::string group_column, AggFunc agg,
                                      std::string agg_column) {
  QuerySpec spec;
  spec.kind = Kind::kGroupByAggregate;
  spec.table = std::move(table);
  spec.group_column = std::move(group_column);
  spec.agg = agg;
  spec.agg_column = std::move(agg_column);
  return spec;
}

QuerySpec QuerySpec::JoinAggregate(std::string part_table, AggFunc agg,
                                   std::string agg_column) {
  QuerySpec spec;
  spec.kind = Kind::kJoinAggregate;
  spec.table = std::move(part_table);
  spec.agg = agg;
  spec.agg_column = std::move(agg_column);
  return spec;
}

QuerySpec QuerySpec::TopN(std::string table, std::string order_column,
                          bool descending, std::size_t limit) {
  QuerySpec spec;
  spec.kind = Kind::kTopN;
  spec.table = std::move(table);
  spec.order_column = std::move(order_column);
  spec.descending = descending;
  spec.limit = limit;
  return spec;
}

QuerySpec QuerySpec::Synthetic(WorkUnits cost) {
  QuerySpec spec;
  spec.kind = Kind::kSynthetic;
  spec.synthetic_cost = cost;
  return spec;
}

void QuerySpec::Render(std::ostream& os) const {
  switch (kind) {
    case Kind::kTpcrPartPrice:
      os << "select * from " << table << " p where p.retailprice*0.75 > "
         << "(select sum(l.extendedprice)/sum(l.quantity) from lineitem l "
         << "where l.partkey = p.partkey)";
      break;
    case Kind::kScanAggregate:
      os << "select agg(" << (agg == AggFunc::kCount ? "*" : agg_column)
         << ") from " << table;
      if (has_filter) {
        os << " where " << filter_column << " > " << filter_threshold;
      }
      break;
    case Kind::kGroupByAggregate:
      os << "select " << group_column << ", agg("
         << (agg == AggFunc::kCount ? "*" : agg_column) << ") from " << table;
      if (has_filter) {
        os << " where " << filter_column << " > " << filter_threshold;
      }
      os << " group by " << group_column;
      break;
    case Kind::kJoinAggregate:
      os << "select agg(" << (agg == AggFunc::kCount ? "*" : "l." + agg_column)
         << ") from " << table
         << " p join lineitem l on p.partkey = l.partkey";
      break;
    case Kind::kTopN:
      os << "select * from " << table;
      if (has_filter) {
        os << " where " << filter_column << " > " << filter_threshold;
      }
      os << " order by " << order_column << (descending ? " desc" : "")
         << " limit " << limit;
      break;
    case Kind::kSynthetic:
      os << "synthetic(" << synthetic_cost << " U)";
      break;
  }
}

std::string QuerySpec::ToString() const {
  std::ostringstream os;
  Render(os);
  return os.str();
}

QueryLabel QuerySpec::Label() const {
  std::ostringstream os;
  Render(os);
  return QueryLabel(os.view());  // the one copy: stream buffer -> label
}

// ---- Planner ---------------------------------------------------------------

Planner::Planner(const storage::Catalog* catalog,
                 storage::BufferManager* buffers, CostModelOptions options)
    : catalog_(catalog),
      buffers_(buffers),
      options_(options),
      rng_(options.noise_seed) {}

Result<PreparedQuery> Planner::Prepare(const QuerySpec& spec) {
  return PrepareWithBuffers(spec, buffers_);
}

namespace {

/// Expected distinct heap pages touched when fetching `matches` rows
/// scattered uniformly over `pages` heap pages (coupon-collector form).
double ExpectedDistinctPages(double matches, double pages) {
  if (pages <= 0.0) return 0.0;
  return pages * (1.0 - std::pow(1.0 - 1.0 / pages, matches));
}

}  // namespace

Result<PreparedQuery> Planner::PrepareWithBuffers(
    const QuerySpec& spec, storage::BufferManager* buffers) {
  PreparedQuery out;

  switch (spec.kind) {
    case QuerySpec::Kind::kSynthetic: {
      if (spec.synthetic_cost < 0.0) {
        return Status::InvalidArgument("synthetic cost must be >= 0");
      }
      out.analytic_cost = spec.synthetic_cost;
      out.optimizer_cost =
          spec.synthetic_cost * rng_.LogNormalFactor(options_.noise_sigma);
      out.plan_text = "Synthetic(cost=" + std::to_string(spec.synthetic_cost) +
                      " U)";
      out.execution = std::make_unique<SyntheticQueryExecution>(
          spec.synthetic_cost, out.optimizer_cost);
      return out;
    }

    case QuerySpec::Kind::kScanAggregate: {
      auto table = catalog_->GetTable(spec.table);
      if (!table.ok()) return table.status();
      const storage::Schema& schema = (*table)->schema();

      // Cardinality: filter selectivity from the column histogram
      // (fallback 1/3, the classic default for range predicates).
      double selectivity = 1.0;
      if (spec.has_filter) {
        auto histogram = catalog_->GetHistogram(spec.table,
                                                spec.filter_column);
        selectivity =
            histogram.ok()
                ? (*histogram)->SelectivityGreaterThan(spec.filter_threshold)
                : 1.0 / 3.0;
      }
      const double n = static_cast<double>((*table)->num_tuples());
      out.estimated_input_rows = selectivity * n;
      out.estimated_result_rows = 1.0;

      // Access-path choice: a selective predicate on the indexed int64
      // column pays for an index range scan instead of the full heap
      // scan (a > predicate on integer keys needs no residual filter).
      const storage::Index* range_index = nullptr;
      auto index = catalog_->IndexOnTable((*table)->id());
      if (spec.has_filter && index.ok() && (*index)->num_entries() > 0) {
        const auto& indexed_column =
            schema.column((*index)->column_index());
        if (indexed_column.name == spec.filter_column &&
            indexed_column.type == storage::ColumnType::kInt64) {
          const double matches = selectivity * n;
          const double index_cost =
              static_cast<double>((*index)->height()) +
              static_cast<double>((*index)->LeafPagesForMatches(
                  static_cast<std::size_t>(matches))) -
              1.0 +
              ExpectedDistinctPages(
                  matches, static_cast<double>((*table)->num_pages()));
          if (index_cost <
              static_cast<double>((*table)->num_pages())) {
            range_index = *index;
            out.analytic_cost = index_cost;
          }
        }
      }

      OperatorPtr input;
      SeqScanOperator* seq_raw = nullptr;
      IndexRangeScanOperator* range_raw = nullptr;
      if (range_index != nullptr) {
        const auto lo = static_cast<std::int64_t>(
                            std::floor(spec.filter_threshold)) +
                        1;
        auto range = std::make_unique<IndexRangeScanOperator>(
            range_index, *table, lo, range_index->max_key());
        range_raw = range.get();
        input = std::move(range);
        out.plan_text = "ScalarAggregate <- IndexRangeScan(" + spec.table +
                        "." + spec.filter_column + ")";
      } else {
        auto scan = std::make_unique<SeqScanOperator>(*table);
        seq_raw = scan.get();
        input = std::move(scan);
        if (spec.has_filter) {
          auto col = Col(schema, spec.filter_column);
          if (!col.ok()) return col.status();
          input = std::make_unique<FilterOperator>(
              std::move(input),
              Bin(BinaryOp::kGt, std::move(*col),
                  Const(spec.filter_threshold)));
        }
        out.analytic_cost = static_cast<double>((*table)->num_pages());
        out.plan_text = "ScalarAggregate <- " +
                        std::string(spec.has_filter ? "Filter <- " : "") +
                        "SeqScan(" + spec.table + ")";
      }
      ExprPtr arg;
      if (spec.agg != AggFunc::kCount) {
        auto col = Col(schema, spec.agg_column);
        if (!col.ok()) return col.status();
        arg = std::move(*col);
      } else {
        arg = Const(1.0);
      }
      auto root = std::make_unique<ScalarAggregateOperator>(
          std::move(input), spec.agg, std::move(arg));

      out.optimizer_cost =
          out.analytic_cost * rng_.LogNormalFactor(options_.noise_sigma);
      DriverModel driver;
      if (range_raw != nullptr) {
        driver.processed = [range_raw] { return range_raw->rows_emitted(); };
        // Estimated matches, not exact: the refiner treats this as the
        // driver total, so a misestimate shows up as residual cost
        // error — exactly how a real optimizer's row estimate behaves.
        driver.total_rows = static_cast<std::uint64_t>(
            std::max(1.0, out.estimated_input_rows));
      } else {
        driver.processed = [seq_raw] { return seq_raw->rows_emitted(); };
        driver.total_rows = (*table)->num_tuples();
      }
      driver.prior_cost_per_row =
          driver.total_rows
              ? out.optimizer_cost / static_cast<double>(driver.total_rows)
              : 0.0;
      out.execution = std::make_unique<OperatorQueryExecution>(
          std::move(root), buffers, std::move(driver), out.optimizer_cost);
      return out;
    }

    case QuerySpec::Kind::kGroupByAggregate: {
      auto table = catalog_->GetTable(spec.table);
      if (!table.ok()) return table.status();
      const storage::Schema& schema = (*table)->schema();
      auto group_col = schema.ColumnIndex(spec.group_column);
      if (!group_col.ok()) return group_col.status();
      if (schema.column(*group_col).type != storage::ColumnType::kInt64) {
        return Status::InvalidArgument("group column '" + spec.group_column +
                                       "' must be int64");
      }

      OperatorPtr input = std::make_unique<SeqScanOperator>(*table);
      auto* scan_raw = static_cast<SeqScanOperator*>(input.get());
      if (spec.has_filter) {
        auto col = Col(schema, spec.filter_column);
        if (!col.ok()) return col.status();
        input = std::make_unique<FilterOperator>(
            std::move(input),
            Bin(BinaryOp::kGt, std::move(*col), Const(spec.filter_threshold)));
      }
      ExprPtr arg;
      if (spec.agg != AggFunc::kCount) {
        auto col = Col(schema, spec.agg_column);
        if (!col.ok()) return col.status();
        arg = std::move(*col);
      } else {
        arg = Const(1.0);
      }
      auto root = std::make_unique<HashGroupByOperator>(
          std::move(input), *group_col, spec.agg, std::move(arg));

      const double n = static_cast<double>((*table)->num_tuples());
      out.analytic_cost = static_cast<double>((*table)->num_pages()) +
                          n / HashJoinOperator::kRowsPerUnit;
      out.optimizer_cost =
          out.analytic_cost * rng_.LogNormalFactor(options_.noise_sigma);
      out.plan_text = "HashGroupBy <- " +
                      std::string(spec.has_filter ? "Filter <- " : "") +
                      "SeqScan(" + spec.table + ")";
      // Cardinalities: input after the filter; result = distinct groups.
      double selectivity = 1.0;
      if (spec.has_filter) {
        auto histogram =
            catalog_->GetHistogram(spec.table, spec.filter_column);
        selectivity =
            histogram.ok()
                ? (*histogram)->SelectivityGreaterThan(spec.filter_threshold)
                : 1.0 / 3.0;
      }
      out.estimated_input_rows = selectivity * n;
      auto group_histogram =
          catalog_->GetHistogram(spec.table, spec.group_column);
      out.estimated_result_rows =
          group_histogram.ok()
              ? static_cast<double>((*group_histogram)->num_distinct())
              : out.estimated_input_rows;

      DriverModel driver;
      driver.processed = [scan_raw] { return scan_raw->rows_emitted(); };
      driver.total_rows = (*table)->num_tuples();
      driver.prior_cost_per_row =
          driver.total_rows
              ? out.optimizer_cost / static_cast<double>(driver.total_rows)
              : 0.0;
      out.execution = std::make_unique<OperatorQueryExecution>(
          std::move(root), buffers, std::move(driver), out.optimizer_cost);
      return out;
    }

    case QuerySpec::Kind::kTopN: {
      auto table = catalog_->GetTable(spec.table);
      if (!table.ok()) return table.status();
      const storage::Schema& schema = (*table)->schema();
      auto order_col = Col(schema, spec.order_column);
      if (!order_col.ok()) return order_col.status();

      OperatorPtr input = std::make_unique<SeqScanOperator>(*table);
      auto* scan_raw = static_cast<SeqScanOperator*>(input.get());
      if (spec.has_filter) {
        auto col = Col(schema, spec.filter_column);
        if (!col.ok()) return col.status();
        input = std::make_unique<FilterOperator>(
            std::move(input),
            Bin(BinaryOp::kGt, std::move(*col), Const(spec.filter_threshold)));
      }
      auto root = std::make_unique<TopNOperator>(
          std::move(input), std::move(*order_col), spec.descending,
          spec.limit);

      const double n = static_cast<double>((*table)->num_tuples());
      out.analytic_cost = static_cast<double>((*table)->num_pages()) +
                          n / HashJoinOperator::kRowsPerUnit;
      out.optimizer_cost =
          out.analytic_cost * rng_.LogNormalFactor(options_.noise_sigma);
      out.plan_text = "TopN <- " +
                      std::string(spec.has_filter ? "Filter <- " : "") +
                      "SeqScan(" + spec.table + ")";
      double selectivity = 1.0;
      if (spec.has_filter) {
        auto histogram =
            catalog_->GetHistogram(spec.table, spec.filter_column);
        selectivity =
            histogram.ok()
                ? (*histogram)->SelectivityGreaterThan(spec.filter_threshold)
                : 1.0 / 3.0;
      }
      out.estimated_input_rows = selectivity * n;
      out.estimated_result_rows = std::min(
          out.estimated_input_rows, static_cast<double>(spec.limit));

      DriverModel driver;
      driver.processed = [scan_raw] { return scan_raw->rows_emitted(); };
      driver.total_rows = (*table)->num_tuples();
      driver.prior_cost_per_row =
          driver.total_rows
              ? out.optimizer_cost / static_cast<double>(driver.total_rows)
              : 0.0;
      out.execution = std::make_unique<OperatorQueryExecution>(
          std::move(root), buffers, std::move(driver), out.optimizer_cost);
      return out;
    }

    case QuerySpec::Kind::kJoinAggregate: {
      auto part = catalog_->GetTable(spec.table);
      if (!part.ok()) return part.status();
      auto lineitem = catalog_->GetTable("lineitem");
      if (!lineitem.ok()) return lineitem.status();
      auto build_key = (*part)->schema().ColumnIndex("partkey");
      if (!build_key.ok()) return build_key.status();
      auto probe_key = (*lineitem)->schema().ColumnIndex("partkey");
      if (!probe_key.ok()) return probe_key.status();

      auto join = std::make_unique<HashJoinOperator>(
          std::make_unique<SeqScanOperator>(*part), *build_key,
          std::make_unique<SeqScanOperator>(*lineitem), *probe_key);
      auto* join_raw = join.get();
      ExprPtr arg;
      if (spec.agg != AggFunc::kCount) {
        // Probe (lineitem) columns lead the join output schema.
        auto col = Col(join->output_schema(), spec.agg_column);
        if (!col.ok()) return col.status();
        arg = std::move(*col);
      } else {
        arg = Const(1.0);
      }
      auto root = std::make_unique<ScalarAggregateOperator>(
          std::move(join), spec.agg, std::move(arg));

      const double build_rows = static_cast<double>((*part)->num_tuples());
      const double probe_rows =
          static_cast<double>((*lineitem)->num_tuples());
      out.analytic_cost =
          static_cast<double>((*part)->num_pages()) +
          static_cast<double>((*lineitem)->num_pages()) +
          (build_rows + probe_rows) / HashJoinOperator::kRowsPerUnit;
      out.optimizer_cost =
          out.analytic_cost * rng_.LogNormalFactor(options_.noise_sigma);
      out.plan_text = "ScalarAggregate <- HashJoin(SeqScan(" + spec.table +
                      ") x SeqScan(lineitem))";
      // Join cardinality: each lineitem row matches iff its partkey is
      // in the part table: |part| / distinct lineitem keys.
      auto li_stats = catalog_->GetStats("lineitem");
      const double match_fraction =
          li_stats.ok() && li_stats->num_distinct_keys > 0
              ? build_rows /
                    static_cast<double>(li_stats->num_distinct_keys)
              : 1.0;
      out.estimated_input_rows = probe_rows * std::min(1.0, match_fraction);
      out.estimated_result_rows = 1.0;

      DriverModel driver;
      driver.processed = [join_raw] {
        return join_raw->probe_rows_processed();
      };
      driver.total_rows = (*lineitem)->num_tuples();
      driver.prior_cost_per_row =
          driver.total_rows
              ? out.optimizer_cost / static_cast<double>(driver.total_rows)
              : 0.0;
      out.execution = std::make_unique<OperatorQueryExecution>(
          std::move(root), buffers, std::move(driver), out.optimizer_cost);
      return out;
    }

    case QuerySpec::Kind::kTpcrPartPrice: {
      auto part = catalog_->GetTable(spec.table);
      if (!part.ok()) return part.status();
      auto lineitem = catalog_->GetTable("lineitem");
      if (!lineitem.ok()) return lineitem.status();
      auto index = catalog_->IndexOnTable((*lineitem)->id());
      if (!index.ok()) return index.status();
      auto li_stats = catalog_->GetStats("lineitem");
      if (!li_stats.ok()) return li_stats.status();

      const storage::Schema& part_schema = (*part)->schema();
      auto key_col = part_schema.ColumnIndex("partkey");
      if (!key_col.ok()) return key_col.status();
      auto price_col = part_schema.ColumnIndex("retailprice");
      if (!price_col.ok()) return price_col.status();
      const storage::Schema& li_schema = (*lineitem)->schema();
      auto num_col = li_schema.ColumnIndex("extendedprice");
      if (!num_col.ok()) return num_col.status();
      auto den_col = li_schema.ColumnIndex("quantity");
      if (!den_col.ok()) return den_col.status();

      OperatorPtr scan = std::make_unique<SeqScanOperator>(*part);
      // Predicate over (part columns..., subquery): retailprice * 0.75 >
      // subquery. The subquery column is appended last.
      const std::size_t subquery_index = part_schema.num_columns();
      ExprPtr predicate =
          Bin(BinaryOp::kGt,
              Bin(BinaryOp::kMul,
                  std::make_unique<ColumnExpr>(*price_col, "retailprice"),
                  Const(0.75)),
              std::make_unique<ColumnExpr>(subquery_index, "subquery"));
      auto root = std::make_unique<CorrelatedSubqueryFilter>(
          std::move(scan), *key_col, *index, *lineitem, *num_col, *den_col,
          std::move(predicate));
      auto* root_raw = root.get();

      // Analytic cost: outer scan pages + per-outer-tuple probe cost
      // (index descent + expected extra leaves + distinct heap pages).
      const double outer_rows =
          static_cast<double>((*part)->num_tuples());
      const double matches = li_stats->avg_matches_per_key;
      const double heap_pages =
          ExpectedDistinctPages(matches,
                                static_cast<double>(li_stats->num_pages));
      const double extra_leaves =
          static_cast<double>((*index)->LeafPagesForMatches(
              static_cast<std::size_t>(matches))) -
          1.0;
      const double probe_cost =
          static_cast<double>((*index)->height()) + extra_leaves + heap_pages;
      out.analytic_cost =
          static_cast<double>((*part)->num_pages()) + outer_rows * probe_cost;
      out.optimizer_cost =
          out.analytic_cost * rng_.LogNormalFactor(options_.noise_sigma);
      out.plan_text = "CorrelatedSubqueryFilter(lineitem_partkey_idx) <- "
                      "SeqScan(" +
                      spec.table + ")";
      // Cardinality: a part row qualifies when retailprice * 0.75
      // exceeds its average unit price; estimate the global average
      // unit price from the lineitem histograms and read the qualifying
      // fraction off the retailprice histogram.
      out.estimated_input_rows = outer_rows;
      out.estimated_result_rows = outer_rows;
      auto h_price = catalog_->GetHistogram("lineitem", "extendedprice");
      auto h_quantity = catalog_->GetHistogram("lineitem", "quantity");
      auto h_retail = catalog_->GetHistogram(spec.table, "retailprice");
      if (h_price.ok() && h_quantity.ok() && h_retail.ok() &&
          (*h_quantity)->EstimatedMean() > 0.0) {
        const double avg_unit_price = (*h_price)->EstimatedMean() /
                                      (*h_quantity)->EstimatedMean();
        out.estimated_result_rows =
            outer_rows *
            (*h_retail)->SelectivityGreaterThan(avg_unit_price / 0.75);
      }

      DriverModel driver;
      driver.processed = [root_raw] {
        return root_raw->outer_rows_processed();
      };
      driver.total_rows = (*part)->num_tuples();
      driver.prior_cost_per_row =
          driver.total_rows
              ? out.optimizer_cost / static_cast<double>(driver.total_rows)
              : 0.0;
      out.execution = std::make_unique<OperatorQueryExecution>(
          std::move(root), buffers, std::move(driver), out.optimizer_cost);
      return out;
    }
  }
  return Status::Internal("unreachable: unknown QuerySpec kind");
}

Result<std::string> Planner::Explain(const QuerySpec& spec) {
  auto prepared = Prepare(spec);
  if (!prepared.ok()) return prepared.status();
  std::ostringstream os;
  os << "Query:    " << spec.ToString() << "\n";
  os << "Plan:     " << prepared->plan_text << "\n";
  os << "Cost:     " << prepared->optimizer_cost << " U (analytic "
     << prepared->analytic_cost << " U)\n";
  os << "Rows in:  " << prepared->estimated_input_rows << "\n";
  os << "Rows out: " << prepared->estimated_result_rows << "\n";
  return os.str();
}

Result<WorkUnits> Planner::MeasureTrueCost(const QuerySpec& spec) {
  if (spec.kind == QuerySpec::Kind::kSynthetic) return spec.synthetic_cost;
  storage::BufferManager private_pool(buffers_->options());
  auto prepared = PrepareWithBuffers(spec, &private_pool);
  if (!prepared.ok()) return prepared.status();
  QueryExecution* exec = prepared->execution.get();
  while (!exec->done()) {
    exec->Advance(std::numeric_limits<double>::infinity());
  }
  if (!exec->status().ok()) return exec->status();
  return exec->completed_work();
}

}  // namespace mqpi::engine
