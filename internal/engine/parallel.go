package engine

import (
	"fmt"
	"time"

	"clusterbooster/internal/vclock"
)

// This file is the kernel's round loop, and with it the conservative
// parallel mode: multi-core execution of ONE simulated job with
// bit-identical results.
//
// The kernel partitions its tasks into groups (the caller groups them by
// node, so every fabric link reservation stays group-local) and advances
// the groups in synchronous safe-window rounds, the classic
// conservative-DES scheme (Chandy/Misra/Bryant, synchronous variant):
//
//   - Each round, the coordinator computes the earliest pending task event
//     minAt across all groups and opens the window [minAt, minAt+L), where
//     L is the cross-group lookahead: the minimum virtual latency any
//     action of one group needs to affect another. For the Cluster-Booster
//     fabric that is wire latency plus the smallest send overhead
//     (fabric.CrossLookahead) — no message, match, or wakeup can cross
//     nodes faster.
//
//   - Every group with an event inside the window runs its own event chain
//     concurrently: per-group calendar queue, per-group blocked set, one
//     baton per group. A group's chain stops when its next event lies at or
//     beyond the window, and signals the coordinator.
//
//   - Effects that cross groups (message delivery, a rendezvous completion
//     waking a sender on another node) are not applied mid-round: the model
//     layer wraps them in Task.Defer, which appends them to the acting
//     group's outbox. At the barrier the coordinator applies all outboxes
//     in group order. The lookahead guarantees every such effect lands at
//     virtual time >= the window end, so deferring it past the round moves
//     it over no event it could have influenced.
//
// Serial execution is the one-group instance of the same loop: the
// lookahead is unbounded, so the single round's window never closes and
// the round ends only when the kernel is idle — every task exited, or every
// live task blocked (the deadlock path). Defer then runs its closure at
// once, callbacks (CallAt) share the group's queue and run inline on its
// chain in (At, Seq) order with the wakeups, and nothing reaches the
// coordinator until the chain stops.
//
// Why the multi-group result is bit-identical to the one-group result, for
// any group count: events at different virtual times never race (the
// window ends strictly before the earliest cross-group effect), and events
// at equal virtual times only commute when they touch disjoint state —
// which the node partition guarantees for group-local events, and the
// fixed group-order barrier replay guarantees for cross-group ones.
// Scheduling-diagnostic counters (parks, switches, kept) do differ between
// group counts; model state never does. DESIGN.md ("Conservative parallel
// kernel") carries the full argument.
//
// With two or more groups, callbacks are a coordinator-only facility: they
// run between rounds, holding the whole kernel still exactly like the
// single baton, and the window never opens past a pending callback.
// Failure injection, which is built on callbacks, therefore tears tasks
// down at the exact same virtual instants for any group count.

// Fallback reasons recorded in Stats.Fallback when parallel execution was
// requested but the kernel ran serial. Model layers add their own (tracing,
// failure injection, storage models).
const (
	FallbackSingleGroup   = "single group"
	FallbackZeroLookahead = "zero lookahead"
)

// SetParallel requests conservative parallel execution on groups task
// groups with the given cross-group lookahead. Must be called before any
// task is registered or callback scheduled. Degenerate requests keep the
// kernel serial — the return value says which mode the kernel will run —
// with the reason recorded in Stats.Fallback.
func (e *Engine) SetParallel(groups int, lookahead vclock.Time) bool {
	if len(e.tasks) > 0 || e.g0.queue.Len() > 0 {
		panic("engine: SetParallel after task registration or CallAt")
	}
	if groups < 2 {
		e.stats.Fallback = FallbackSingleGroup
		return false
	}
	if !(lookahead > 0) { // negation catches NaN too
		e.stats.Fallback = FallbackZeroLookahead
		return false
	}
	for len(e.groups) < groups {
		e.groups = append(e.groups, new(group))
	}
	if cap(e.roundDone) < groups {
		e.roundDone = make(chan struct{}, groups)
	}
	e.lookahead = lookahead
	e.stats.Groups = groups
	return true
}

// NoteSerialFallback records that the caller wanted parallel execution but
// chose serial for a model-layer reason (tracing, failure injection, ...).
// The reason lands in Stats.Fallback and the process-wide aggregate.
func (e *Engine) NoteSerialFallback(reason string) {
	if len(e.groups) > 1 {
		panic("engine: NoteSerialFallback on a parallel kernel")
	}
	e.stats.Fallback = reason
}

// SetGroup assigns the task to a parallel group. Call it between task
// registration and StartAt; tasks default to group 0. No-op on a serial
// kernel, so model code can assign unconditionally.
func (t *Task) SetGroup(gid int) {
	e := t.eng
	if len(e.groups) == 1 {
		return
	}
	if t.state != stateCreated {
		panic(fmt.Sprintf("engine: SetGroup on task %q in state %d", t.name(), t.state))
	}
	if gid < 0 || gid >= len(e.groups) {
		panic(fmt.Sprintf("engine: SetGroup(%d) with %d groups", gid, len(e.groups)))
	}
	t.grp.live--
	t.grp = e.groups[gid]
	t.grp.live++
}

// Defer runs fn at the next deterministic global point. On a serial kernel
// (or outside a round: before Run, in a callback, at a barrier) that is
// right now — the caller holds the baton and may touch anything. During a
// parallel round, fn is appended to the calling task's group outbox and
// runs at the round barrier, in group order, when every group is quiescent.
// Model layers route every cross-group effect through Defer; the lookahead
// guarantees such effects land at or beyond the window end, so the deferral
// reorders them over nothing they could influence.
func (t *Task) Defer(fn func()) {
	if !t.eng.inRound {
		fn()
		return
	}
	t.grp.outbox = append(t.grp.outbox, fn)
}

// Run drives the kernel until every task has exited: callbacks between
// rounds, safe-window rounds across the groups, outbox replay at each
// barrier. It is called once, from the goroutine that built the job (which
// is not itself a task and consumes no virtual time).
func (e *Engine) Run() {
	if e.liveNow() == 0 {
		return
	}
	start := time.Now()
	multi := len(e.groups) > 1
	for e.liveNow() > 0 {
		// Earliest pending event across the groups. Between rounds every
		// batch is fully consumed, so the queue head is the truth.
		minAt, any := vclock.Never, false
		for _, g := range e.groups {
			if h, ok := g.queue.Peek(); ok && (!any || h.At < minAt) {
				minAt, any = h.At, true
			}
		}
		// Callbacks due no later than every task event run now, at the
		// coordinator, holding the whole kernel still. (At equal instants
		// the callback runs first; the supported callback pattern —
		// injection armed before Run, against wakeups pushed mid-run — pops
		// in the same order with one group, where the earlier-scheduled
		// event wins.)
		if cb, ok := e.cbq.Peek(); ok && cb.At <= minAt {
			e.cbq.Pop()
			e.stats.Events++
			e.runCallback(cb.Payload.cb)
			continue // the callback may have scheduled anything: recompute
		}
		if !any {
			e.poison()
			continue
		}
		w := minAt + e.lookahead
		if cb, ok := e.cbq.Peek(); ok && cb.At < w {
			w = cb.At // never run a group past a pending callback
		}
		e.windowEnd = w
		e.inRound = multi
		active := 0
		for _, g := range e.groups {
			if h, ok := g.queue.Peek(); ok && inWindow(h.At, w) {
				active++
				e.dispatch(g) // kickstart the group's chain
			}
		}
		for i := 0; i < active; i++ {
			<-e.roundDone
		}
		e.inRound = false
		e.applyOutboxes()
		if multi {
			e.stats.Rounds++
			e.stats.WindowSum += w - minAt
			e.stats.GroupRuns += uint64(active)
			e.stats.PeakParked = max(e.stats.PeakParked, e.blockedCount())
		}
	}
	for _, g := range e.groups {
		e.stats.Events += g.stats.Events
		e.stats.Parks += g.stats.Parks
		e.stats.Switches += g.stats.Switches
		e.stats.Kept += g.stats.Kept
		e.stats.PeakParked = max(e.stats.PeakParked, g.stats.PeakParked)
	}
	e.stats.Wall = time.Since(start)
	publishGlobal(e.stats)
}

// liveNow is the number of registered, not yet exited tasks. Group counts
// are only read between rounds.
func (e *Engine) liveNow() int {
	n := 0
	for _, g := range e.groups {
		n += g.live
	}
	return n
}

// applyOutboxes replays every group's deferred cross-group effects in group
// order. The closures run with the kernel quiescent (inRound is false), so
// nested Defer calls execute immediately, like serial code would.
func (e *Engine) applyOutboxes() {
	for _, g := range e.groups {
		for i := 0; i < len(g.outbox); i++ {
			fn := g.outbox[i]
			g.outbox[i] = nil
			e.stats.CrossEvents++
			fn()
		}
		g.outbox = g.outbox[:0]
	}
}

// poison is the deadlock path: no event is pending anywhere, yet live tasks
// remain — all of them blocked. It fails the first blocked task (groups in
// order) with a deadlock report and lets its group's chain run until idle;
// the teardown may schedule events, so the coordinator resumes normal
// rounds before the next victim, exactly as a single chain would.
func (e *Engine) poison() {
	for _, g := range e.groups {
		if len(g.blocked) == 0 {
			continue
		}
		t := g.blocked[0]
		g.unblock(t)
		t.poison = true
		e.windowEnd = vclock.Never
		e.inRound = len(e.groups) > 1
		t.state = stateRunning
		t.resume <- struct{}{}
		<-e.roundDone
		e.inRound = false
		e.applyOutboxes()
		return
	}
	panic(fmt.Sprintf("engine: %d live tasks but none blocked and no events", e.liveNow()))
}

// blockedCount is the number of parked tasks across all groups, for the
// deadlock report.
func (e *Engine) blockedCount() int {
	n := 0
	for _, g := range e.groups {
		n += len(g.blocked)
	}
	return n
}
