//go:build race

package server

// raceEnabled reports that this test binary was built with the race
// detector, which makes sync.Pool drop puts at random — net/http's buffer
// pools included — so the bytes a round trip allocates are nondeterministic
// and the allocation budgets must not be asserted.
const raceEnabled = true
