// Package degrade is the shared graceful-degradation ledger. PR 1 gave
// internal/core a check() helper that logs a failed X operation and
// keeps going; PR 3's dogfooding grew two near-identical copies in the
// twm and gwm baselines. This package is the single doorway all three
// route through: one place that counts degradations, remembers the
// most recent error, and (when wired) emits a degradation event into
// the obs trace and metrics registry.
//
// A Tracker is cheap enough to consult from error paths anywhere: the
// counter is atomic, the last-error slot is a leaf mutex, and nothing
// here issues X requests — so Note may run from a connection error
// handler that holds the server lock.
package degrade

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Tracker accumulates degradation events for one component.
type Tracker struct {
	source string

	count atomic.Int64

	mu      sync.Mutex
	lastErr error

	// Optional observability wiring; nil until Observe. Written once
	// at construction time, before any concurrent use.
	counter *obs.Counter
	trace   *obs.Trace
}

// New returns a tracker whose errors are prefixed "source: ".
func New(source string) *Tracker {
	return &Tracker{source: source}
}

// Observe wires the tracker into an obs registry and trace (either may
// be nil). Call once at construction time, before concurrent use.
func (t *Tracker) Observe(reg *obs.Registry, trace *obs.Trace) *Tracker {
	if reg != nil {
		t.counter = reg.Counter("degrade." + t.source)
	}
	t.trace = trace
	return t
}

// Check is the classic helper: nil errors pass through, anything else
// is recorded as a degradation. Returns err == nil so call sites read
// `if !t.Check("map frame", err) { ... }`.
func (t *Tracker) Check(op string, err error) bool {
	if err == nil {
		return true
	}
	t.Note(op, 0, err)
	return false
}

// Note records a non-nil degradation attributed to op involving window
// win (0 if none). While tracing is on it resolves op to its trace code
// here, on the error path. Callers with their own error-classification
// logic (core's death-race handling) use Note directly so every
// surviving failure still flows through this one doorway.
func (t *Tracker) Note(op string, win uint32, err error) {
	t.count.Add(1)
	wrapped := fmt.Errorf("%s: %s: %w", t.source, op, err)
	t.mu.Lock()
	t.lastErr = wrapped
	t.mu.Unlock()
	if t.counter != nil {
		t.counter.Inc()
	}
	if t.trace != nil && t.trace.Enabled() {
		t.trace.Record(obs.KindDegrade, obs.OpFor(op), win, 0, 0)
	}
}

// Degraded returns the number of degradation events recorded.
func (t *Tracker) Degraded() int { return int(t.count.Load()) }

// LastError returns the most recently recorded error, wrapped with the
// tracker's source and the failing operation, or nil.
func (t *Tracker) LastError() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastErr
}
