package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"clusterbooster/internal/vclock"
)

// Stats counts what one kernel instance did. The global aggregate across all
// kernels of the process (every launched job of every scenario) is available
// through Global; cbctl -stats prints it.
//
// The counters satisfy Events == Switches + Kept + Callbacks on every clean
// run: each processed event either handed the baton to another task, was
// consumed by the task that already held it, or ran a callback.
type Stats struct {
	// Events is the number of events processed (task starts, wakeups,
	// timer completions, callbacks), baton-keeping fast paths included.
	Events uint64
	// Parks counts how often a task yielded the baton in the kernel
	// (blocking parks and sleeps that crossed tasks).
	Parks uint64
	// Switches counts goroutine handoffs (events that moved the baton to a
	// different task).
	Switches uint64
	// Kept counts events consumed by the task already holding the baton
	// (the SleepUntil keep-the-baton fast path): no goroutine switch.
	Kept uint64
	// Callbacks counts callback events (CallAt) executed.
	Callbacks uint64
	// PeakParked is the high-water mark of simultaneously parked tasks
	// (tasks in the blocked set, awaiting a wakeup event), taken in the
	// parking task's group at each park and, on a multi-group kernel, over
	// all groups at each round barrier.
	PeakParked int
	// Tasks is the number of tasks registered over the kernel's lifetime.
	Tasks int
	// Wall is the host time between Run's dispatch and the last exit.
	Wall time.Duration

	// Parallel-kernel counters, all zero on a serial kernel.

	// Groups is the number of task groups of the parallel partition.
	Groups int
	// Rounds counts the synchronous safe-window rounds.
	Rounds uint64
	// GroupRuns counts group activations summed over rounds — how many
	// times a group's event chain was kicked off ("group switches").
	GroupRuns uint64
	// CrossEvents counts deferred cross-group effects (message deliveries,
	// rendezvous completions, spawn arming) replayed at round barriers.
	CrossEvents uint64
	// WindowSum is the summed safe-window width over all rounds; see
	// WindowAvg.
	WindowSum vclock.Time
	// Fallback is non-empty when parallel execution was requested but the
	// kernel ran serial, naming the reason ("zero lookahead", "tracing",
	// "failure injection", ...).
	Fallback string
}

// WindowAvg is the mean safe-window width per round (0 on a serial run).
func (s Stats) WindowAvg() vclock.Time {
	if s.Rounds == 0 {
		return 0
	}
	return s.WindowSum / vclock.Time(s.Rounds)
}

// EventsPerSec returns the wall-clock event rate.
func (s Stats) EventsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Events) / s.Wall.Seconds()
}

// String renders the stats in the -stats flag format. Serial kernels keep
// the historic line; parallel activity (or a recorded fallback) appends the
// par_* counters.
func (s Stats) String() string {
	out := fmt.Sprintf("events=%d events/sec=%.0f parks=%d switches=%d kept=%d callbacks=%d peak_parked=%d tasks=%d wall=%v",
		s.Events, s.EventsPerSec(), s.Parks, s.Switches, s.Kept, s.Callbacks, s.PeakParked, s.Tasks, s.Wall)
	if s.Groups > 0 || s.Rounds > 0 {
		out += fmt.Sprintf(" par_groups=%d par_rounds=%d par_window_avg=%v par_group_runs=%d par_cross=%d",
			s.Groups, s.Rounds, s.WindowAvg(), s.GroupRuns, s.CrossEvents)
	}
	if s.Fallback != "" {
		out += fmt.Sprintf(" par_fallback=%q", s.Fallback)
	}
	return out
}

// Process-wide aggregate, maintained with atomics: kernels finish on
// whatever sweep worker ran them.
var global struct {
	engines    atomic.Uint64
	events     atomic.Uint64
	parks      atomic.Uint64
	switches   atomic.Uint64
	kept       atomic.Uint64
	callbacks  atomic.Uint64
	tasks      atomic.Uint64
	wallNanos  atomic.Int64
	peakParked atomic.Int64

	parKernels   atomic.Uint64
	parFallbacks atomic.Uint64
	maxGroups    atomic.Int64
	rounds       atomic.Uint64
	groupRuns    atomic.Uint64
	crossEvents  atomic.Uint64
	windowNanos  atomic.Int64
}

// publishGlobal folds one finished kernel's counters into the aggregate.
func publishGlobal(s Stats) {
	global.engines.Add(1)
	global.events.Add(s.Events)
	global.parks.Add(s.Parks)
	global.switches.Add(s.Switches)
	global.kept.Add(s.Kept)
	global.callbacks.Add(s.Callbacks)
	global.tasks.Add(uint64(s.Tasks))
	global.wallNanos.Add(int64(s.Wall))
	if s.Groups > 0 {
		global.parKernels.Add(1)
	}
	if s.Fallback != "" {
		global.parFallbacks.Add(1)
	}
	global.rounds.Add(s.Rounds)
	global.groupRuns.Add(s.GroupRuns)
	global.crossEvents.Add(s.CrossEvents)
	global.windowNanos.Add(int64(s.WindowSum.Seconds() * 1e9))
	raiseMax(&global.maxGroups, int64(s.Groups))
	raiseMax(&global.peakParked, int64(s.PeakParked))
}

// raiseMax lifts the atomic to v if v is larger (lock-free high-water mark).
func raiseMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// GlobalStats is the process-wide aggregate over all finished kernels.
type GlobalStats struct {
	Engines uint64
	// ParKernels counts kernels that ran the conservative parallel mode;
	// ParFallbacks counts kernels that requested it but ran serial.
	ParKernels   uint64
	ParFallbacks uint64
	// Wall is summed kernel-busy time, not elapsed host time, and Groups is
	// the widest parallel partition seen (per-kernel group counts don't sum).
	Stats
}

// Global snapshots the process-wide aggregate.
func Global() GlobalStats {
	return GlobalStats{
		Engines:      global.engines.Load(),
		ParKernels:   global.parKernels.Load(),
		ParFallbacks: global.parFallbacks.Load(),
		Stats: Stats{
			Events:      global.events.Load(),
			Parks:       global.parks.Load(),
			Switches:    global.switches.Load(),
			Kept:        global.kept.Load(),
			Callbacks:   global.callbacks.Load(),
			PeakParked:  int(global.peakParked.Load()),
			Tasks:       int(global.tasks.Load()),
			Wall:        time.Duration(global.wallNanos.Load()),
			Groups:      int(global.maxGroups.Load()),
			Rounds:      global.rounds.Load(),
			GroupRuns:   global.groupRuns.Load(),
			CrossEvents: global.crossEvents.Load(),
			WindowSum:   vclock.Time(global.windowNanos.Load()) * vclock.Nanosecond,
		},
	}
}

// String renders the aggregate in the -stats flag format.
func (g GlobalStats) String() string {
	return fmt.Sprintf("engines=%d par_kernels=%d par_fallbacks=%d %s",
		g.Engines, g.ParKernels, g.ParFallbacks, g.Stats)
}
