//go:build race

package overlay

// raceEnabled: under -race sync.Pool sheds a quarter of what it is
// handed, so tests pinning a pooled path at zero allocations skip.
const raceEnabled = true
