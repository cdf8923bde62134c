// E5 — Plan selection quality (paper §2.3 "Plan Selection").
//
// Claims under test: any single predefined plan loses somewhere on the
// selectivity spectrum; rule-based selection recovers most of the oracle;
// cost-based selection tracks the oracle (minimum-latency plan chosen by
// exhaustive measurement) across the whole spectrum.

#include <limits>
#include <memory>

#include "bench/bench_util.h"
#include "exec/executor.h"
#include "exec/optimizer.h"
#include "exec/predicate.h"
#include "index/hnsw.h"

int main() {
  using namespace vdb;
  bench::Header("E5", "plan selection: predefined vs rule-based vs "
                      "cost-based vs oracle (n=20000 d=32)");

  SyntheticOptions opts;
  opts.n = 20000;
  opts.dim = 32;
  opts.num_clusters = 64;
  opts.seed = 31;
  auto workload = MakeHybridWorkload(opts);
  FloatMatrix data = std::move(workload.vectors);
  FloatMatrix queries = PerturbedQueries(data, 30, 0.03f, 5);
  auto scorer = Scorer::Create(MetricSpec::L2(), opts.dim).value();
  AttributeStore attrs;
  (void)attrs.AddColumn("score", AttrType::kDouble);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    (void)attrs.PutRow(i, {{"score", workload.uniform_attr[i]}});
  }
  HnswOptions ho;
  ho.ef_construction = 80;
  Segment segment;
  segment.index = std::make_unique<HnswIndex>(ho);
  (void)segment.index->Build(data, {});
  CollectionView view{nullptr, &attrs, {&segment, 1}, &scorer, {}};
  HybridExecutor executor(view);
  RuleBasedOptimizer rule;
  CostBasedOptimizer cost;

  SearchParams params;
  params.k = 10;
  params.ef = 64;

  auto run_plan = [&](const HybridPlan& plan, const Predicate& pred) {
    std::vector<Neighbor> got;
    double secs = bench::Seconds([&] {
      for (std::size_t q = 0; q < queries.rows(); ++q) {
        (void)executor.Execute(plan, pred, queries.row(q), params, &got,
                               nullptr);
      }
    });
    return 1e6 * secs / static_cast<double>(queries.rows());
  };

  bench::Row("%-8s | %10s %10s %10s %10s | %12s %12s %8s", "sel",
             "bruteforce", "prefilter", "postfilter", "visitfirst",
             "rule-based", "cost-based", "oracle");
  double total_pre = 0, total_rule = 0, total_cost = 0, total_oracle = 0;
  for (double s : {0.002, 0.01, 0.05, 0.2, 0.5, 0.9}) {
    auto pred = Predicate::Cmp("score", CmpOp::kLe, s);
    double per_plan[4];
    const PlanKind kinds[4] = {
        PlanKind::kBruteForceHybrid, PlanKind::kPreFilterIndexScan,
        PlanKind::kPostFilterIndexScan, PlanKind::kVisitFirstIndexScan};
    double oracle = std::numeric_limits<double>::max();
    for (int p = 0; p < 4; ++p) {
      HybridPlan plan{kinds[p], 3.0f};
      if (kinds[p] == PlanKind::kPostFilterIndexScan) {
        plan.amplification = static_cast<float>(
            std::clamp(2.0 / std::max(s, 0.01), 1.0, 50.0));
      }
      per_plan[p] = run_plan(plan, pred);
      oracle = std::min(oracle, per_plan[p]);
    }
    auto rule_plan = rule.Choose(pred, view, params).value();
    auto cost_plan = cost.Choose(pred, view, params).value();
    double rule_us = run_plan(rule_plan, pred);
    double cost_us = run_plan(cost_plan, pred);
    bench::Row("%-8.3f | %10.1f %10.1f %10.1f %10.1f | %7.1f (%s) %7.1f "
               "(%s) %8.1f",
               s, per_plan[0], per_plan[1], per_plan[2], per_plan[3],
               rule_us, rule_plan.ToString().substr(0, 4).c_str(), cost_us,
               cost_plan.ToString().substr(0, 4).c_str(), oracle);
    total_pre += per_plan[1];
    total_rule += rule_us;
    total_cost += cost_us;
    total_oracle += oracle;
  }
  bench::Row("\ntotals: always-prefilter=%.0fus rule=%.0fus cost=%.0fus "
             "oracle=%.0fus",
             total_pre, total_rule, total_cost, total_oracle);
  bench::Row("slowdown vs oracle: prefilter=%.2fx rule=%.2fx cost=%.2fx",
             total_pre / total_oracle, total_rule / total_oracle,
             total_cost / total_oracle);
  return 0;
}
