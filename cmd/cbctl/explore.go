// The exploratory verbs: one checkpoint/restart scenario under live failure
// injection (resilience, §III-D) and one synthetic arrival stream through
// the batch queue on a possibly failing machine (facility), each with every
// model parameter on the command line. No registry experiment produces
// these single points; fig-resilience, fig-facility and
// fig-facility-resilience pin the standing grids around them.
package main

import (
	"encoding/json"
	"fmt"
	"io"

	"clusterbooster/internal/exp"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/resilience"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/scr"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

// resilienceModes and resilienceLevels resolve -mode and -level: a level
// names the surviving checkpoint cadence (every checkpoint reaches it).
var (
	resilienceModes  = map[string]xpic.Mode{"cluster": xpic.ClusterOnly, "booster": xpic.BoosterOnly, "split": xpic.SplitCB}
	resilienceLevels = map[string]scr.Config{"local": {}, "buddy": {BuddyEvery: 1}, "global": {GlobalEvery: 1}}
)

// runResilience executes one checkpoint/restart scenario under failure
// injection and reports the outcome. The workload is the ci-quick profile
// unless -steps/-scale override it (-steps 900 -scale 64 is the full
// Table II fidelity).
func runResilience(args []string, out, errw io.Writer) int {
	v := newFlags("resilience", errw, profileFlags|workloadFlags)
	modeName := v.fs.String("mode", "booster", "execution mode: cluster, booster or split")
	nodes := v.fs.Int("nodes", 2, "ranks per solver")
	level := v.fs.String("level", "buddy", "surviving checkpoint level cadence: local, buddy or global (global needs a mono mode)")
	ckptEvery := v.fs.Int("ckpt", 4, "checkpoint every N completed steps (0 = never)")
	mtbf := v.fs.Float64("mtbf", 0, "per-node mean time between failures in virtual seconds (0 = no failures); ci-quick workloads run virtual milliseconds, so think 0.03, not hours")
	failures := v.fs.Int("failures", 1, "stop injecting after N failures")
	seed := v.fs.Int64("seed", 1, "failure-sequence seed")
	restartOverhead := v.fs.Float64("restart-overhead", 0.002, "fixed relaunch cost per restart, virtual seconds")
	asJSON := v.fs.Bool("json", false, "emit the outcome as indented JSON")
	if code, ok := v.parse(args); !ok {
		return code
	}
	if v.fs.NArg() != 0 {
		fmt.Fprintln(errw, "cbctl: resilience takes no positional arguments")
		return 2
	}
	cfg := exp.CIProfile()
	if w := v.workload(); w != nil {
		cfg = *w
	}
	params := resilience.Params{
		Nodes:           *nodes,
		Workload:        cfg,
		CheckpointEvery: *ckptEvery,
		MTBF:            vclock.Time(*mtbf),
		Seed:            *seed,
		MaxFailures:     *failures,
		RestartOverhead: vclock.Time(*restartOverhead),
	}
	var ok bool
	if params.Mode, ok = resilienceModes[*modeName]; !ok {
		fmt.Fprintf(errw, "cbctl: unknown mode %q (cluster, booster, split)\n", *modeName)
		return 2
	}
	if params.SCR, ok = resilienceLevels[*level]; !ok {
		fmt.Fprintf(errw, "cbctl: unknown level %q (local, buddy, global)\n", *level)
		return 2
	}
	stopProf, ok := v.startProfiles(errw)
	if !ok {
		return 2
	}
	defer stopProf()
	defer v.reportStats(errw)
	v.setKernelWorkers()
	res, err := resilience.Run(params)
	if err != nil {
		fmt.Fprintf(errw, "cbctl: resilience: %v\n", err)
		return 1
	}
	if *asJSON {
		return writeJSON(out, errw, res)
	}
	fmt.Fprintf(out, "resilience %s/%s: %s\n", *modeName, *level, res.Report)
	fmt.Fprintf(out, "  failures=%d checkpoints=%d (cost %v) lost_work=%v restore=%v overhead=%v\n",
		res.Failures, res.Checkpoints, res.CheckpointTime, res.LostWork, res.RestoreTime, res.RestartOverheadTotal)
	for i, r := range res.Restarts {
		kind := fmt.Sprintf("rewind to step %d via %v", r.FromStep, r.Levels)
		if r.Cold {
			kind = "cold restart from step 0"
		}
		fmt.Fprintf(out, "  restart %d: %s failed at %v — %s (lost %v)\n",
			i+1, r.FailedNode, r.At, kind, r.LostWork)
	}
	return 0
}

// runFacility schedules one synthetic arrival stream through the batch
// queue — on a failing machine when -mtbf is set — and reports the facility
// outcome next to the analytic steady-state availability MTBF/(MTBF+MTTR).
// Here -mtbf and -mttr apply per module, not per node.
func runFacility(args []string, out, errw io.Writer) int {
	v := newFlags("facility", errw, profileFlags)
	policy := v.fs.String("policy", "backfill", "batch discipline: fcfs, backfill or malleable")
	jobs := v.fs.Int("jobs", 600, "arrival-stream length")
	load := v.fs.Float64("load", 1.4, "offered load on the bottleneck module (above 1 the queue grows)")
	mtbf := v.fs.Float64("mtbf", 0, "per-module mean time between failures in virtual seconds (0 = a failure-free machine)")
	mttr := v.fs.Float64("mttr", 1.5, "per-module mean time to repair, virtual seconds")
	retries := v.fs.Int("retries", 16, "kill/requeue budget per job before the facility abandons it")
	ckptEvery := v.fs.Float64("ckpt-every", 0, "checkpoint interval in virtual seconds (0 = cold restarts; write 10ms, restore 20ms as in fig-facility-resilience)")
	seed := v.fs.Int64("seed", 1, "arrival-stream and failure seed")
	asJSON := v.fs.Bool("json", false, "emit the outcome as indented JSON")
	if code, ok := v.parse(args); !ok {
		return code
	}
	if v.fs.NArg() != 0 {
		fmt.Fprintln(errw, "cbctl: facility takes no positional arguments")
		return 2
	}
	params := sched.FacilityParams{
		Policy: sched.FacilityPolicy(*policy),
		Jobs:   *jobs,
		Load:   *load,
		Seed:   *seed,
	}
	if *mtbf > 0 {
		module := machine.FailureProfile{MTBF: vclock.Time(*mtbf), MTTR: vclock.Time(*mttr)}
		params.Faults = &sched.FacilityFaults{
			Cluster:    module,
			Booster:    module,
			Seed:       *seed,
			MaxRetries: *retries,
		}
		if *ckptEvery > 0 {
			params.Faults.Rewind = resilience.FacilityCheckpoint{
				Every:   vclock.Time(*ckptEvery),
				Cost:    10 * vclock.Millisecond,
				Restore: 20 * vclock.Millisecond,
			}
		}
	}
	stopProf, ok := v.startProfiles(errw)
	if !ok {
		return 2
	}
	defer stopProf()
	defer v.reportStats(errw)
	v.setKernelWorkers()
	res, err := sched.RunFacility(params)
	if err != nil {
		fmt.Fprintf(errw, "cbctl: facility: %v\n", err)
		return 2
	}
	if *asJSON {
		return writeJSON(out, errw, res)
	}
	fmt.Fprintf(out, "facility %s: %d jobs at load %.2f (seed %d)\n", *policy, *jobs, *load, *seed)
	fmt.Fprintf(out, "  completed=%d abandoned=%d makespan=%v mean_wait=%v slowdown mean=%.2f p95=%.2f\n",
		res.Jobs, res.Abandoned, res.Makespan, res.MeanWait, res.MeanSlowdown, res.P95Slowdown)
	fmt.Fprintf(out, "  util cluster=%.3f booster=%.3f backfilled=%d shrunk=%d peak_queue=%d\n",
		res.UtilCluster, res.UtilBooster, res.Backfilled, res.Shrunk, res.PeakQueue)
	if params.Faults == nil {
		return 0
	}
	fmt.Fprintf(out, "  failures=%d repairs=%d requeues=%d lost_node_s=%.3f goodput=%.3f horizon=%v\n",
		res.Failures, res.Repairs, res.Requeues, res.LostNodeSec, res.Goodput, res.Horizon)
	fmt.Fprintf(out, "  availability cluster=%.4f booster=%.4f (analytic MTBF/(MTBF+MTTR)=%.4f)\n",
		res.AvailCluster, res.AvailBooster, params.Faults.Cluster.Availability())
	fmt.Fprintf(out, "  saturated window: util cluster=%.3f booster=%.3f avail cluster=%.4f booster=%.4f\n",
		res.SatUtilCluster, res.SatUtilBooster, res.SatAvailCluster, res.SatAvailBooster)
	return 0
}

// writeJSON prints an outcome as indented JSON.
func writeJSON(out, errw io.Writer, v any) int {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return 1
	}
	return 0
}
