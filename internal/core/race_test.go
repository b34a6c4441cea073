//go:build race

package core

// raceEnabled reports whether the race detector is on. It allocates on
// its own account, which the tighter allocation budgets allow for.
const raceEnabled = true
