//go:build race

package ops

// raceEnabled reports whether the race detector is compiled in; absolute
// allocation budgets are informational when it is (sync.Pool drops Puts).
const raceEnabled = true
