//go:build !race

package dnswire

const raceDetector = false
