//go:build race

package dnswire

// raceDetector: the build is instrumented, and its clock says nothing.
const raceDetector = true
