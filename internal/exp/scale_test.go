package exp

import (
	"slices"
	"testing"

	"clusterbooster/internal/core"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/xpic"
)

// deepScaleConfig stretches the scale16384 geometry once more: 131072 rows
// decompose to the 2-rows-per-rank floor at n = 65536, with the step
// pipeline cut to the bone so a 65537-task kernel stays a minutes-scale
// test, not an experiment.
func deepScaleConfig() xpic.Config {
	cfg := Scale16384Profile()
	cfg.NY = 131072
	cfg.Steps = 1
	cfg.CGMaxIter = 2
	return cfg
}

// TestDeepScale65536 runs the n=65536 Booster-only point — the largest job
// this repo simulates — serial and on the conservative parallel kernel, and
// requires bit-identical reports. Excluded from -short: the pair of runs
// costs wall-clock minutes.
func TestDeepScale65536(t *testing.T) {
	if testing.Short() {
		t.Skip("n=65536 deep-scale point: minutes of wall clock, skipped in -short")
	}
	const n = 65536
	cfg := deepScaleConfig()
	run := func(kworkers int) xpic.Report {
		t.Helper()
		prev := psmpi.DefaultKernelWorkers()
		psmpi.SetDefaultKernelWorkers(kworkers)
		defer psmpi.SetDefaultKernelWorkers(prev)
		sys := core.New(n, n, core.Options{WithoutStorage: true})
		rep, err := sys.RunXPic(xpic.BoosterOnly, n, cfg)
		if err != nil {
			t.Fatalf("kworkers=%d: %v", kworkers, err)
		}
		return rep
	}
	serial := run(1)
	par := run(4)
	if serial != par {
		t.Errorf("n=65536 parallel kernel diverged from serial:\n serial   %+v\n parallel %+v", serial, par)
	}
	if serial.Makespan <= 0 || serial.RanksPerSolver != n {
		t.Errorf("implausible deep-scale report: %+v", serial)
	}
}

// TestScaleFamilyInvariants checks the fig8-scale table without running
// it: each row's profile reaches the 2-rows-per-rank floor at its largest
// count, and each row starts at the previous row's last count — the chained
// efficiency reference the rows' comments promise.
func TestScaleFamilyInvariants(t *testing.T) {
	rows := scaleRows()
	for i, r := range rows {
		last := slices.Max(r.counts)
		if ny := r.profile().NY; ny != 2*last {
			t.Errorf("%s: profile NY = %d, want 2*max(counts) = %d", r.name, ny, 2*last)
		}
		if i > 0 {
			prev := rows[i-1]
			if first, want := r.counts[0], prev.counts[len(prev.counts)-1]; first != want {
				t.Errorf("%s: first count %d, want %s's last count %d", r.name, first, prev.name, want)
			}
		}
	}
}
