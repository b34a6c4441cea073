package analysis_test

import (
	"testing"
	"time"

	"repro/internal/analysis"
)

// sweepWallBudget bounds a full-repo sweep: one shared `go list`
// invocation, type-checking every module package against export data,
// and all six analyzers. The budget is deliberately loose — it exists
// to catch an accidental return to per-analyzer `go list` round-trips
// (a ~6x regression), not to benchmark the analyzers.
const sweepWallBudget = 120 * time.Second

func TestSweepWallBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide sweep skipped in -short mode")
	}
	start := time.Now()
	l := sharedLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load(./...): %v", err)
	}
	for _, pkg := range pkgs {
		analysis.Run(pkg, l.Ctx, analysis.All())
	}
	if elapsed := time.Since(start); elapsed > sweepWallBudget {
		t.Errorf("full-repo sweep took %v, budget %v — did package loading stop being shared?", elapsed, sweepWallBudget)
	}
}

// BenchmarkRepoSweep measures the analyzers alone: packages are loaded
// and type-checked once outside the timed region, so the number is the
// marginal cost of re-running the suite (what an editor save or a
// waiveraudit pass pays after the loader's memoization warms up).
func BenchmarkRepoSweep(b *testing.B) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		b.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		b.Fatalf("Load(./...): %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkg := range pkgs {
			analysis.Run(pkg, l.Ctx, analysis.All())
		}
	}
}
