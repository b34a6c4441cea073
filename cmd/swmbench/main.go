// Command swmbench runs the repository's tracked performance workloads
// (internal/perfbench) and prints ns/op, allocs/op and B/op for the
// manage, move-storm and pan-storm shapes, the twm/swm/gwm comparison,
// and the HTTP serving-path workloads. With -o it also writes the full
// BENCH_<n>.json report; without -o it writes no file, so a local
// -check leaves the committed reports alone.
//
//	swmbench -o BENCH_10.json -check -delta BENCH_9.json -delta-out delta.md
//
// With -check, the binary exits non-zero when a workload exceeds its
// blocking allocation budget (perfbench.AllocBudgets), its wall-clock
// budget (perfbench.WallBudgets), or — for the load workloads — misses
// its traffic budget (perfbench.LoadBudgets: a qps floor and a p99
// ceiling). Wall-clock numbers depend on the machine, so wall budgets
// are order-of-magnitude ceilings reserved for workloads whose whole
// point is bounding an end-to-end shape; everything else keeps timing
// advisory and allocation counts enforced.
//
// With -delta pointing at a previous report, a markdown comparison
// table (ns/op, allocs/op, qps, p99 per workload) is written to
// -delta-out, or stdout when -delta-out is empty — the table the CI
// bench job appends to its job summary. A missing -delta file is
// skipped with a note, not an error, so the first run after a report
// rename still passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/perfbench"
)

func main() {
	out := flag.String("o", "", "write the JSON report here (\"-\" for stdout; empty writes none)")
	check := flag.Bool("check", false, "fail when a blocking allocation, wall-clock, or load budget is exceeded")
	deltaIn := flag.String("delta", "", "previous BENCH_<n>.json to diff against (missing file is skipped)")
	deltaOut := flag.String("delta-out", "", "write the markdown delta table here instead of stdout")
	flag.Parse()

	results := perfbench.Run()
	report := perfbench.Report{
		GoVersion:    runtime.Version(),
		Workloads:    results,
		AllocBudgets: perfbench.AllocBudgets,
		WallBudgets:  perfbench.WallBudgets,
		Load:         perfbench.LoadSummaries(),
	}

	fmt.Printf("%-32s %14s %12s %10s\n", "workload", "ns/op", "allocs/op", "B/op")
	failed := false
	for _, r := range results {
		if r.Iterations == 0 {
			fmt.Fprintf(os.Stderr, "swmbench: workload %s failed to run\n", r.Name)
			failed = true
			continue
		}
		line := fmt.Sprintf("%-32s %14.0f %12d %10d", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		if budget, ok := perfbench.AllocBudgets[r.Name]; ok && r.AllocsPerOp > budget {
			line += fmt.Sprintf("   OVER BUDGET (%d > %d allocs/op)", r.AllocsPerOp, budget)
			if *check {
				failed = true
			}
		}
		if budget, ok := perfbench.WallBudgets[r.Name]; ok && r.NsPerOp > budget {
			line += fmt.Sprintf("   OVER WALL BUDGET (%.0f > %.0f ns/op)", r.NsPerOp, budget)
			if *check {
				failed = true
			}
		}
		fmt.Println(line)
	}

	if len(report.Load) > 0 {
		fmt.Println()
		for name, sum := range report.Load {
			fmt.Printf("%s traffic: %d requests, %d clients, %d sessions\n",
				name, sum.Requests, sum.Clients, sum.Sessions)
			fmt.Printf("  p50=%v p95=%v p99=%v max=%v  %.0f req/s  errors %.2f%%\n",
				sum.P50, sum.P95, sum.P99, sum.Max, sum.QPS, 100*sum.ErrorRate())
		}
	}
	for name, budget := range perfbench.LoadBudgets {
		sum, ok := report.Load[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "swmbench: load budget for %s has no recorded summary\n", name)
			if *check {
				failed = true
			}
			continue
		}
		if sum.QPS < budget.MinQPS {
			fmt.Printf("%s UNDER THROUGHPUT FLOOR (%.0f < %.0f req/s)\n", name, sum.QPS, budget.MinQPS)
			if *check {
				failed = true
			}
		}
		if sum.P99 > budget.MaxP99 {
			fmt.Printf("%s OVER P99 CEILING (%v > %v)\n", name, sum.P99, budget.MaxP99)
			if *check {
				failed = true
			}
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "swmbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	switch *out {
	case "":
	case "-":
		os.Stdout.Write(data)
	default:
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "swmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nreport written to %s\n", *out)
	}

	if *deltaIn != "" {
		if err := writeDelta(*deltaIn, *deltaOut, report); err != nil {
			fmt.Fprintf(os.Stderr, "swmbench: %v\n", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeDelta diffs the freshly measured report against a previous one
// on disk. A missing previous report is not an error.
func writeDelta(prevPath, outPath string, cur perfbench.Report) error {
	raw, err := os.ReadFile(prevPath)
	if os.IsNotExist(err) {
		fmt.Printf("no previous report at %s; skipping delta\n", prevPath)
		return nil
	}
	if err != nil {
		return err
	}
	var prev perfbench.Report
	if err := json.Unmarshal(raw, &prev); err != nil {
		return fmt.Errorf("parse %s: %w", prevPath, err)
	}
	table := perfbench.DeltaTable(prev, cur)
	if outPath == "" {
		fmt.Printf("\ndelta vs %s:\n%s", prevPath, table)
		return nil
	}
	return os.WriteFile(outPath, []byte(table), 0o644)
}
