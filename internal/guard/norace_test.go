//go:build !race

package guard

const raceEnabled = false
