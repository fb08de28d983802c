// The fig-facility-resilience experiment family: the facility simulator on
// a failing machine. Each grid point replays the same 600-job overload
// stream (load 1.4) while seeded per-module failure/repair processes drain
// and refill the pools; killed jobs rewind to their best surviving
// checkpoint (resilience.FacilityCheckpoint) or restart cold, and are
// requeued with bounded retry. The budgets pin the facility-resilience
// claims against the analytic steady-state availability MTBF/(MTBF+MTTR) —
// the Beowulf-performability cross-check of ROADMAP item 3 — and the value
// of checkpointing at facility scale: goodput, rescued jobs, lost work.
package exp

import (
	"fmt"
	"math"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/resilience"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/sweep"
	"clusterbooster/internal/vclock"
)

// facilityResilienceJobs is the stream length: long enough that hundreds of
// failures strike per faulty point (steady-state statistics), short enough
// to stay a CI-speed miniature.
const facilityResilienceJobs = 600

// facilityResilienceSeed fixes the arrival stream (shared by every point,
// so policies and regimes schedule the identical workload).
const facilityResilienceSeed = 20180708

// facilityRegime is one MTBF regime of the grid.
type facilityRegime struct {
	name   string
	faults *sched.FacilityFaults // nil = failure-free baseline
}

// facilityResilienceRegimes spans clean -> mild -> harsh. The profiles are
// heterogeneous per module (the KNL Booster fails twice as often as the
// Xeon Cluster), exercising the independent per-pool processes. Named by
// the Booster's per-node MTBF in virtual seconds: at mtbf12, a 16+16-node
// xpic-weak job's allocation takes a hit every ~0.5 virtual seconds —
// killed several times per 2.4s run, the regime where checkpointing decides
// between finishing and abandonment.
func facilityResilienceRegimes() []facilityRegime {
	return []facilityRegime{
		{name: "clean"},
		{name: "mtbf45", faults: &sched.FacilityFaults{
			Cluster: machine.FailureProfile{MTBF: 90, MTTR: 3},
			Booster: machine.FailureProfile{MTBF: 45, MTTR: 3},
			Seed:    20180711, MaxRetries: 16,
		}},
		{name: "mtbf12", faults: &sched.FacilityFaults{
			Cluster: machine.FailureProfile{MTBF: 20, MTTR: 1.5},
			Booster: machine.FailureProfile{MTBF: 12, MTTR: 1.5},
			Seed:    20180711, MaxRetries: 16,
		}},
	}
}

// facilityResilienceCkpt is the checkpoint policy of the ckpt points:
// checkpoint every 250ms of work at 10ms cost, 20ms restore on resume.
func facilityResilienceCkpt() resilience.FacilityCheckpoint {
	return resilience.FacilityCheckpoint{
		Every:   250 * vclock.Millisecond,
		Cost:    10 * vclock.Millisecond,
		Restore: 20 * vclock.Millisecond,
	}
}

// facilityResiliencePoint is one grid point: a policy, an MTBF regime, and
// the checkpoint leg (cold restart or rewind).
type facilityResiliencePoint struct {
	pol  sched.FacilityPolicy
	reg  facilityRegime
	ckpt bool
}

// facilityResiliencePoints lists the grid in scenario order. Clean regimes
// have no checkpoint leg: there is nothing to rewind from.
func facilityResiliencePoints() []facilityResiliencePoint {
	var pts []facilityResiliencePoint
	for _, pol := range sched.FacilityPolicies() {
		for _, reg := range facilityResilienceRegimes() {
			for _, ckpt := range []bool{false, true} {
				if reg.faults == nil && ckpt {
					continue
				}
				pts = append(pts, facilityResiliencePoint{pol, reg, ckpt})
			}
		}
	}
	return pts
}

// facilityResiliencePointName names one grid point, e.g.
// "fig-facility-resilience/backfill/mtbf12/ckpt".
func facilityResiliencePointName(pol sched.FacilityPolicy, regime string, ckpt bool) string {
	if regime == "clean" {
		return fmt.Sprintf("fig-facility-resilience/%s/clean", pol)
	}
	leg := "cold"
	if ckpt {
		leg = "ckpt"
	}
	return fmt.Sprintf("fig-facility-resilience/%s/%s/%s", pol, regime, leg)
}

func registerFigFacilityResilience() {
	registerSweep(sweepFamily{
		Experiment: Experiment{
			Name:    "fig-facility-resilience",
			Title:   "Facility resilience: failing machine, scheduler degradation, checkpoint-restart requeue (DEEP-ER resiliency at facility scale)",
			Version: 1,
			Grid:    "{fcfs, backfill, malleable} x regime {clean, mtbf45, mtbf12} x {cold, ckpt}, 600 jobs at load 1.4 on a 64+32-node machine",
			Profile: "facility-resilience-600",
			Tolerance: map[string]float64{
				"*": 0.02,
			},
			Budgets: []Budget{
				// The analytic cross-check: simulated per-pool availability
				// must track the steady-state MTBF/(MTBF+MTTR) closed form at
				// every faulty point. Measured error is ~0.8%; the bound is
				// the 10% tolerance the Beowulf-performability comparison
				// demands.
				{Measure: "avail_err_max", Kind: MaxBudget, Bound: 0.10},
				// Under saturation the work-conserving (malleable) scheduler
				// delivers bottleneck-pool utilization within 10% of the
				// analytic availability bound (measured ~3%): failures cost
				// the facility what the availability model says they cost,
				// no more.
				{Measure: "malleable_sat_util_avail_err", Kind: MaxBudget, Bound: 0.10},
				// Rigid backfill pays a fragmentation tax on top — bounded
				// too, so drain/requeue regressions cannot hide behind it.
				{Measure: "backfill_sat_util_avail_err", Kind: MaxBudget, Bound: 0.15},
				// Checkpointing at least 1.3x's goodput at the harsh point
				// (measured ~4.7x: cold restart loses whole wide jobs to
				// retry exhaustion, checkpoints convert kills into bounded
				// rework).
				{Measure: "ckpt_goodput_gain_harsh", Kind: MinBudget, Bound: 1.3},
				// ...and checkpointing never loses to cold restart anywhere
				// on the grid.
				{Measure: "ckpt_goodput_gain_min", Kind: MinBudget, Bound: 1.3},
				// Cold restart under harsh MTBF abandons wide jobs after
				// retry exhaustion; with checkpoints every job finishes.
				{Measure: "cold_harsh_abandoned", Kind: MinBudget, Bound: 10},
				{Measure: "ckpt_abandoned_max", Kind: MaxBudget, Bound: 0},
				// Every point must account for the whole stream: completed +
				// abandoned = submitted, i.e. no job is lost by the requeue
				// path.
				{Measure: "jobs_accounted_min", Kind: MinBudget, Bound: facilityResilienceJobs},
				// The failure/repair processes must actually exercise the
				// requeue machinery at every faulty point.
				{Measure: "requeues_min", Kind: MinBudget, Bound: 50},
				// Virtual-time ceiling: the family stays a CI-speed
				// miniature.
				{Measure: "max_makespan_s", Kind: MaxBudget, Bound: 600},
			},
		},
		scenarios: func(Options) ([]sweep.Scenario, error) {
			var scen []sweep.Scenario
			for _, pt := range facilityResiliencePoints() {
				p := sched.FacilityParams{
					Policy: pt.pol,
					Jobs:   facilityResilienceJobs,
					Load:   1.4,
					Seed:   facilityResilienceSeed,
				}
				if pt.reg.faults != nil {
					faults := *pt.reg.faults
					if pt.ckpt {
						faults.Rewind = facilityResilienceCkpt()
					}
					p.Faults = &faults
				}
				scen = append(scen, sweep.FacilityResiliencePoint{FacilityParams: p}.
					Scenario(facilityResiliencePointName(pt.pol, pt.reg.name, pt.ckpt)))
			}
			return scen, nil
		},
		meta: func(Options) map[string]string {
			return map[string]string{
				"profile":  "facility-resilience-600",
				"workload": "one seeded 600-job overload stream (load 1.4) replayed across policies, MTBF regimes and checkpoint legs",
				"grid":     "see internal/exp/facility_resilience.go; analytic availability cross-check per pool, Beowulf-performability style",
			}
		},
		measures: facilityResilienceMeasures,
	})
}

// facilityResilienceMeasures derives the family's claims: the analytic
// availability cross-check, what checkpointing buys, and stream accounting.
func facilityResilienceMeasures(rs sweep.ResultSet) (map[string]float64, error) {
	measures := sweepMeasures(rs)
	l := pointLookup{rs: rs}
	at := func(pol sched.FacilityPolicy, regime string, ckpt bool, metric string) float64 {
		return l.at(facilityResiliencePointName(pol, regime, ckpt), metric)
	}
	relErr := func(sim, analytic float64) float64 {
		if analytic == 0 {
			return 0
		}
		return math.Abs(sim/analytic - 1)
	}
	availErrMax := 0.0
	satErr := map[sched.FacilityPolicy]float64{}
	gainMin := math.Inf(1)
	ckptAbandonedMax := 0.0
	jobsAccountedMin := float64(facilityResilienceJobs)
	requeuesMin := 0.0
	for _, pt := range facilityResiliencePoints() {
		pol, reg, ckpt := pt.pol, pt.reg, pt.ckpt
		jobsAccountedMin = min(jobsAccountedMin, at(pol, reg.name, ckpt, "jobs")+at(pol, reg.name, ckpt, "abandoned"))
		if reg.faults == nil {
			continue
		}
		aC := reg.faults.Cluster.Availability()
		aB := reg.faults.Booster.Availability()
		availErrMax = max(availErrMax,
			relErr(at(pol, reg.name, ckpt, "avail_cluster"), aC),
			relErr(at(pol, reg.name, ckpt, "avail_booster"), aB))
		// Bottleneck (Booster) pool, saturated window: utilization vs the
		// analytic availability bound.
		satErr[pol] = max(satErr[pol], relErr(at(pol, reg.name, ckpt, "sat_util_booster"), aB))
		if ckpt {
			gainMin = min(gainMin, at(pol, reg.name, true, "goodput")/at(pol, reg.name, false, "goodput"))
			ckptAbandonedMax = max(ckptAbandonedMax, at(pol, reg.name, true, "abandoned"))
		}
		if r := at(pol, reg.name, ckpt, "requeues"); requeuesMin == 0 || r < requeuesMin {
			requeuesMin = r
		}
	}
	measures["avail_err_max"] = availErrMax
	measures["malleable_sat_util_avail_err"] = satErr[sched.FacilityMalleable]
	measures["backfill_sat_util_avail_err"] = satErr[sched.FacilityBackfill]
	measures["ckpt_goodput_gain_harsh"] = at(sched.FacilityBackfill, "mtbf12", true, "goodput") / at(sched.FacilityBackfill, "mtbf12", false, "goodput")
	measures["ckpt_goodput_gain_min"] = gainMin
	measures["cold_harsh_abandoned"] = at(sched.FacilityBackfill, "mtbf12", false, "abandoned")
	measures["ckpt_abandoned_max"] = ckptAbandonedMax
	measures["jobs_accounted_min"] = jobsAccountedMin
	measures["requeues_min"] = requeuesMin
	return measures, l.err
}
