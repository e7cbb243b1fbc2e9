// Chaos sweep: seeded randomized fault plans (the PlanFuzzer's full
// FaultKind taxonomy — overlapping windows, degradation toggles, open-loop
// arrival shapes) run with the end-to-end correctness oracle suite armed on
// every cell: committed-transaction durability across crash/fail-over,
// money conservation, replica convergence after drain, bounded
// unavailability for the breaker, and timeline sanity. Any oracle failure
// is delta-debugged to a minimal failing plan and reported as a one-line
// repro whose --faults= string replays in any bench.
//
// Every case is an independent deterministic simulation keyed on
// (--seed, case index) via the matrix runner; stdout and every artifact
// are byte-identical at any --jobs. Exit status 1 when any oracle failed —
// the chaos smoke is a correctness gate, not just a determinism diff.

#include <cstdio>

#include "bench_common.h"
#include "chaos/fuzzer.h"
#include "chaos/harness.h"
#include "chaos/shrinker.h"
#include "fault/fault.h"
#include "obs/exporters.h"

namespace cloudybench::bench {
namespace {

/// The oracle names in report order, for stable per-oracle columns.
constexpr const char* kOracleNames[] = {"durability", "conservation",
                                        "convergence", "breaker", "timeline"};

runner::CellResult RunChaosCell(const runner::CellContext& ctx,
                                const chaos::ChaosCase& chaos_case) {
  const runner::CellSpec& spec = ctx.spec;
  chaos::CaseOptions options;
  options.sut = spec.sut;
  options.seed = chaos_case.case_seed;
  options.n_ro = spec.n_ro;
  options.concurrency = spec.concurrency;
  options.warmup = spec.warmup;
  options.measure = spec.measure;
  options.degradation = chaos_case.degradation;
  options.arrivals = chaos_case.arrivals;

  chaos::CaseOutcome outcome = chaos::RunChaosCase(chaos_case.plan, options);

  runner::CellResult result;
  result.AddText("oracles", outcome.report.Summary());
  for (const chaos::OracleVerdict& verdict : outcome.report.verdicts) {
    result.AddText("oracle." + verdict.oracle,
                   verdict.pass ? "pass" : "FAIL " + verdict.detail);
  }
  result.AddMetric("commits", static_cast<double>(outcome.commits), 0);
  result.AddMetric("acked", static_cast<double>(outcome.acked_commits), 0);
  result.AddMetric("armed", static_cast<double>(outcome.armed), 0);
  result.AddMetric("skipped", static_cast<double>(outcome.skipped), 0);
  result.AddText("drained", outcome.drained ? "yes" : "no");
  result.AddText("deg", chaos_case.degradation ? "on" : "off");
  result.AddText("loop", chaos_case.arrivals.empty() ? "closed" : "open");
  result.AddText("plan", chaos_case.plan_string);
  result.AddText("case_seed", std::to_string(chaos_case.case_seed));

  if (!outcome.report.AllPass()) {
    // Shrink inside the cell: deterministic in (plan, options), so the
    // repro columns are byte-identical at any --jobs too.
    chaos::CaseRunner rerun =
        [&options](const fault::FaultPlan& candidate) -> std::string {
      chaos::CaseOutcome o = chaos::RunChaosCase(candidate, options);
      const chaos::OracleVerdict* failure = o.report.FirstFailure();
      return failure == nullptr ? "" : failure->oracle;
    };
    chaos::ShrinkOutcome shrunk = chaos::ShrinkPlan(chaos_case.plan, rerun);
    result.AddText("shrunk_plan", shrunk.plan_string);
    result.AddText("repro",
                   chaos::ReproLine(chaos_case.case_seed, shrunk));
    result.AddMetric("shrink_runs", static_cast<double>(shrunk.runs), 0);
  }
  result.sim_seconds = outcome.sim_seconds;
  return result;
}

int Run(const char* argv0, const BenchArgs& args,
        const std::string& verdicts_path, const std::string& custom_plan,
        int n_plans) {
  std::vector<sut::SutKind> suts = sut::AllSuts();
  chaos::PlanFuzzer fuzzer(args.seed);

  // Case list: either N fuzzed plans cycling through the SUTs (case i runs
  // on SUT i%5, so a sweep of >= 5 covers all architectures), or one
  // --faults= plan replayed across all five (the repro workflow).
  std::vector<chaos::ChaosCase> cases;
  std::vector<runner::CellSpec> cells;
  if (!custom_plan.empty()) {
    fault::FaultPlan plan = PlanOrExit(fault::ParseFaultPlan(custom_plan),
                                       argv0, "fault plan",
                                       fault::FaultPlanHelp());
    for (size_t s = 0; s < suts.size(); ++s) {
      chaos::ChaosCase chaos_case;
      chaos_case.case_seed = args.seed;
      chaos_case.plan = plan;
      chaos_case.plan_string = plan.ToPlanString();
      chaos_case.degradation = true;
      cases.push_back(std::move(chaos_case));
    }
  } else {
    for (int i = 0; i < n_plans; ++i) {
      cases.push_back(fuzzer.Case(static_cast<uint64_t>(i)));
    }
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    runner::CellSpec spec;
    spec.id = "chaos" + std::to_string(i) + "/" +
              sut::SutName(suts[i % suts.size()]);
    spec.sut = suts[i % suts.size()];
    spec.scale_factor = 1;
    spec.n_ro = 2;  // convergence + breaker oracles need replicas
    spec.concurrency = 40;
    spec.pattern = "chaos";
    spec.seed = cases[i].case_seed;
    spec.warmup = sim::Seconds(2);
    spec.measure = sim::Seconds(10);
    cells.push_back(spec);
  }

  std::vector<runner::CellResult> results =
      runner::MatrixRunner(args.runner).Run(
          cells, [&cases](const runner::CellContext& ctx) {
            return RunChaosCell(ctx, cases[ctx.index]);
          });

  std::printf(
      "=== Chaos sweep: %zu seeded fault plans, all oracles armed "
      "(seed=%llu) ===\n",
      cases.size(), static_cast<unsigned long long>(args.seed));
  util::TablePrinter table(
      {"Case", "verdict", "commits", "acked", "armed", "deg", "loop",
       "plan"});
  int failures = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const runner::CellResult& r = results[i];
    if (!r.ok) {
      table.AddRow({cells[i].id, "ERR", "-", "-", "-", "-", "-", "-"});
      ++failures;
      continue;
    }
    bool pass = r.Text("oracles") == "pass";
    if (!pass) ++failures;
    std::string plan = r.Text("plan");
    if (plan.size() > 56) plan = plan.substr(0, 53) + "...";
    table.AddRow({cells[i].id, pass ? "pass" : "FAIL", r.Text("commits"),
                  r.Text("acked"), r.Text("armed"), r.Text("deg"),
                  r.Text("loop"), plan});
  }
  table.Print("");

  // Verdict artifact: one row per (case, oracle) in matrix order.
  if (!verdicts_path.empty()) {
    std::vector<obs::OracleVerdictRow> rows;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok) continue;
      for (const char* oracle : kOracleNames) {
        obs::OracleVerdictRow row;
        row.case_id = cells[i].id;
        row.sut = sut::SutName(cells[i].sut);
        row.seed = cases[i].case_seed;
        row.plan = cases[i].plan_string;
        row.oracle = oracle;
        std::string verdict = results[i].Text("oracle." + std::string(oracle));
        row.pass = verdict == "pass";
        if (!row.pass && verdict.size() > 5) row.detail = verdict.substr(5);
        rows.push_back(std::move(row));
      }
    }
    CB_CHECK_OK(obs::WriteOracleVerdictsJsonlFile(rows, verdicts_path));
  }

  if (failures > 0) {
    std::printf("\n%d case(s) failed an oracle; minimal repros:\n", failures);
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok) {
        std::printf("  %s: cell error\n", cells[i].id.c_str());
        continue;
      }
      std::string repro = results[i].Text("repro");
      if (!repro.empty()) std::printf("  %s\n", repro.c_str());
    }
    return 1;
  }
  std::printf("\nall %zu cases passed every oracle\n", cases.size());
  return 0;
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  std::string verdicts_path;
  std::string faults;
  std::string plans;
  std::string smoke;
  cloudybench::bench::BenchArgs args = cloudybench::bench::BenchArgs::Parse(
      argc, argv,
      {{"--verdicts=", &verdicts_path,
        "write per-oracle verdict rows (JSONL)"},
       {"--faults=", &faults,
        "replay one plan across all five SUTs (repro workflow)"},
       {"--plans=", &plans, "number of fuzzed plans (default 50)"},
       {"--smoke", &smoke, "25-plan CI subset (determinism + oracle gate)"}});
  int n_plans = 50;
  if (args.full) n_plans = 100;
  if (!smoke.empty()) n_plans = 25;
  if (!plans.empty()) {
    int64_t v = 0;
    if (!cloudybench::util::ParseInt64(plans, &v) || v < 1 || v > 10000) {
      args.UsageError(std::string(argv[0]) + ": bad --plans '" + plans +
                      "' (want 1..10000)");
    }
    n_plans = static_cast<int>(v);
  }
  return cloudybench::bench::Run(argv[0], args, verdicts_path, faults,
                                 n_plans);
}
