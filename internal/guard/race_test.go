//go:build race

package guard

// raceEnabled reports a -race build, under which sync.Pool drops a quarter
// of what it is given.
const raceEnabled = true
