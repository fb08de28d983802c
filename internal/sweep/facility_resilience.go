// Facility-resilience scenarios: facility streams on a failing machine. A
// FacilityResiliencePoint is a FacilityPoint whose params carry a
// FacilityFaults config; the metric set widens to the availability,
// goodput and lost-work quantities the fig-facility-resilience budgets pin
// against the analytic MTBF/(MTBF+MTTR) model.
package sweep

import (
	"clusterbooster/internal/sched"
)

// FacilityResiliencePoint is one fig-facility-resilience grid point: a
// synthetic arrival stream scheduled on one event kernel while seeded
// failure/repair processes degrade and restore the machine.
type FacilityResiliencePoint struct {
	sched.FacilityParams
}

// Scenario wraps the point as a self-contained Scenario reporting facility
// health under failures. Points with nil (or disabled) Faults are the
// failure-free baselines of their grid; sched reports their availability as
// exactly 1 and their goodput from the machine size it ran.
func (p FacilityResiliencePoint) Scenario(name string) Scenario {
	return Scenario{Name: name, Run: func() (Outcome, error) {
		out, err := sched.RunFacility(p.FacilityParams)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Metrics: Metrics{
			"jobs":          float64(out.Jobs),
			"abandoned":     float64(out.Abandoned),
			"failures":      float64(out.Failures),
			"repairs":       float64(out.Repairs),
			"requeues":      float64(out.Requeues),
			"util_cluster":  out.UtilCluster,
			"util_booster":  out.UtilBooster,
			"avail_cluster": out.AvailCluster,
			"avail_booster": out.AvailBooster,
			"goodput":       out.Goodput,
			"lost_node_s":   out.LostNodeSec,
			"makespan_s":    out.Makespan.Seconds(),
			"horizon_s":     out.Horizon.Seconds(),
			"wait_mean_s":   out.MeanWait.Seconds(),
			// Saturated-window (up to the last arrival) utilization and
			// availability: what the steady-state cross-check compares.
			"sat_util_cluster":  out.SatUtilCluster,
			"sat_util_booster":  out.SatUtilBooster,
			"sat_avail_cluster": out.SatAvailCluster,
			"sat_avail_booster": out.SatAvailBooster,
		}}, nil
	}}
}
