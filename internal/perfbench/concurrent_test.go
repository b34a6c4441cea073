package perfbench

import "testing"

// TestConcurrentClientsRace runs one round of the contended
// 64-connection storm — the exact workload shape concurrent-clients-64
// measures — so `go test -race` sweeps the xserver hot paths that run
// off the server lock (per-property cells, the children snapshots and
// packed positions the sibling scan reads, the slot-table index) under
// real cross-connection contention. One round is 64 goroutines × 384
// requests; the benchmark's timing loop is what's reduced away, not the
// concurrency.
func TestConcurrentClientsRace(t *testing.T) {
	f := newStorm(64, func(err error) { t.Fatal(err) })
	f.run(0)
	f.run(1)
}
