//go:build !race

package psmpi_test

const raceEnabled = false
