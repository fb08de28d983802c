//go:build race

package psmpi_test

// raceEnabled reports a -race build, under which the whole-application
// differential test is too slow to run.
const raceEnabled = true
