package degrade

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestCheckNilError(t *testing.T) {
	tr := New("wm")
	if !tr.Check("op", nil) {
		t.Error("Check(nil) = false")
	}
	if tr.Degraded() != 0 || tr.LastError() != nil {
		t.Errorf("nil error recorded: %d, %v", tr.Degraded(), tr.LastError())
	}
}

func TestCheckRecordsFailure(t *testing.T) {
	tr := New("twm")
	cause := errors.New("window gone")
	if tr.Check("read WM_NAME", cause) {
		t.Error("Check(err) = true")
	}
	if tr.Degraded() != 1 {
		t.Errorf("Degraded = %d, want 1", tr.Degraded())
	}
	last := tr.LastError()
	if !errors.Is(last, cause) {
		t.Errorf("LastError does not wrap cause: %v", last)
	}
	if !strings.HasPrefix(last.Error(), "twm: read WM_NAME: ") {
		t.Errorf("LastError = %q", last)
	}
}

func TestObserveWiresMetricsAndTrace(t *testing.T) {
	reg := obs.NewRegistry()
	trace := obs.NewTrace(8)
	trace.Enable()
	tr := New("swm").Observe(reg, trace)
	tr.Note("set WM_STATE", 77, errors.New("boom"))
	if got := reg.Counter("degrade.swm").Value(); got != 1 {
		t.Errorf("degrade.swm = %d, want 1", got)
	}
	entries := trace.Snapshot()
	if len(entries) != 1 || entries[0].Kind != obs.KindDegrade ||
		entries[0].Op.String() != "set WM_STATE" || entries[0].Window != 77 {
		t.Errorf("trace = %+v", entries)
	}
}

func TestConcurrentNotes(t *testing.T) {
	tr := New("swm")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 250; j++ {
				tr.Check("op", errors.New("e"))
				tr.LastError()
			}
		}()
	}
	wg.Wait()
	if tr.Degraded() != 2000 {
		t.Errorf("Degraded = %d, want 2000", tr.Degraded())
	}
}
