// Package waiveraudit is the golden fixture for the waiveraudit
// analyzer: a //swm:ok waiver is live while some analyzer finding
// consumes it, and dead — reported for deletion — once nothing does.
// Audit findings are generated after waiver matching, so they cannot
// themselves be waived: stacking a waiver on a dead waiver just makes
// two dead waivers.
package waiveraudit

import (
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// unmapDying carries a live waiver: the bare request below is a real
// conncheck.discard finding, so the waiver pays its way and the audit
// stays silent about it.
func unmapDying(conn *xserver.Conn, win xproto.XID) {
	//swm:ok fixture: unmapping a dying window is best-effort
	conn.UnmapWindow(win)
}

// usage mirrors swmcmd's usage line with its f.function placeholder
// reworded: the funcref finding the waiver covered is gone, and the
// waiver stayed behind.
func usage() string {
	return "usage: swmcmd '<function ...>'" //swm:ok f.function is a usage placeholder, not a registered function // want `suppresses no finding`
}

// idle carries a dead waiver: nothing it covers produces a finding.
func idle() int64 {
	//swm:ok fixture: stale explanation for code long since fixed // want `suppresses no finding`
	return 42
}

// stacked proves unwaivability: the second waiver tries to cover the
// first one's dead-waiver finding, and both report dead.
func stacked() int64 {
	//swm:ok fixture: attempt to waive the audit finding below // want `suppresses no finding`
	//swm:ok fixture: this waiver is itself dead // want `suppresses no finding`
	return 7
}
