package psmpi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"clusterbooster/internal/core"
	"clusterbooster/internal/exp"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/xpic"
)

// TestAllreduceRendezvousXPicReports runs the n=256 and n=1024 Booster and
// C+B points of the scale profile with the allreduce rendezvous on and off,
// on 1, 2 and 4 kernel workers: every report must be byte-identical to the
// serial message path's. -short keeps the n=256 points; a -race build skips
// the test (the rendezvous' parallel-kernel path is raced by the package's
// own small tests).
func TestAllreduceRendezvousXPicReports(t *testing.T) {
	if raceEnabled {
		t.Skip("whole-application runs are too slow under the race detector")
	}
	sizes := []int{256, 1024}
	if testing.Short() {
		sizes = sizes[:1]
	}
	cfg := exp.ScaleProfile()
	prev := psmpi.DefaultKernelWorkers()
	defer psmpi.SetDefaultKernelWorkers(prev)
	run := func(mode xpic.Mode, n, kworkers int, messagePath bool) []byte {
		t.Helper()
		psmpi.SetDefaultKernelWorkers(kworkers)
		if messagePath {
			defer psmpi.ForceMessagePath()()
		}
		rep, err := core.New(n, n, core.Options{WithoutStorage: true}).RunXPic(mode, n, cfg)
		if err != nil {
			t.Fatalf("n=%d %v kworkers=%d: %v", n, mode, kworkers, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, n := range sizes {
		for _, mode := range []xpic.Mode{xpic.BoosterOnly, xpic.SplitCB} {
			t.Run(fmt.Sprintf("n=%d/%v", n, mode), func(t *testing.T) {
				want := run(mode, n, 1, true)
				for _, kw := range []int{1, 2, 4} {
					for _, messagePath := range []bool{false, true} {
						if kw == 1 && messagePath {
							continue // the reference itself
						}
						if got := run(mode, n, kw, messagePath); !bytes.Equal(got, want) {
							t.Errorf("kworkers=%d message path=%v: report differs\ngot  %s\nwant %s", kw, messagePath, got, want)
						}
					}
				}
			})
		}
	}
}
