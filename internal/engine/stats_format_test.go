package engine

import (
	"testing"
	"time"

	"clusterbooster/internal/vclock"
)

// TestStatsStringFormat pins the -stats output format: serial kernels keep
// the historic line, parallel activity appends the par_* counters, and a
// recorded fallback is always named. cbctl -stats prints these strings
// verbatim.
func TestStatsStringFormat(t *testing.T) {
	serial := Stats{
		Events: 100, Parks: 40, Switches: 60, Kept: 30, Callbacks: 10,
		PeakParked: 3, Tasks: 8, Wall: 2 * time.Second,
	}
	parallel := serial
	parallel.Groups = 4
	parallel.Rounds = 20
	parallel.GroupRuns = 70
	parallel.CrossEvents = 15
	parallel.WindowSum = 40 * vclock.Microsecond
	fellBack := serial
	fellBack.Fallback = FallbackZeroLookahead

	cases := []struct {
		name string
		in   interface{ String() string }
		want string
	}{
		{
			"serial",
			serial,
			"events=100 events/sec=50 parks=40 switches=60 kept=30 callbacks=10 peak_parked=3 tasks=8 wall=2s",
		},
		{
			"parallel",
			parallel,
			"events=100 events/sec=50 parks=40 switches=60 kept=30 callbacks=10 peak_parked=3 tasks=8 wall=2s" +
				" par_groups=4 par_rounds=20 par_window_avg=2.00µs par_group_runs=70 par_cross=15",
		},
		{
			"fallback",
			fellBack,
			"events=100 events/sec=50 parks=40 switches=60 kept=30 callbacks=10 peak_parked=3 tasks=8 wall=2s" +
				` par_fallback="zero lookahead"`,
		},
		{
			"global",
			GlobalStats{Engines: 12, ParKernels: 9, ParFallbacks: 3, Stats: parallel},
			"engines=12 par_kernels=9 par_fallbacks=3 " +
				"events=100 events/sec=50 parks=40 switches=60 kept=30 callbacks=10 peak_parked=3 tasks=8 wall=2s" +
				" par_groups=4 par_rounds=20 par_window_avg=2.00µs par_group_runs=70 par_cross=15",
		},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}

// TestWindowAvg covers the per-round mean, including the serial zero case.
func TestWindowAvg(t *testing.T) {
	if avg := (Stats{}).WindowAvg(); avg != 0 {
		t.Errorf("serial WindowAvg = %v, want 0", avg)
	}
	s := Stats{Rounds: 4, WindowSum: 10 * vclock.Microsecond}
	// vclock.Time is a float64 second count: compare the rendering, not bits.
	if got := s.WindowAvg().String(); got != "2.50µs" {
		t.Errorf("WindowAvg = %v, want 2.50µs", got)
	}
}
