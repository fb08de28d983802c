// Package engine is the discrete-event execution kernel of the simulation
// platform: a virtual-time scheduler that runs the goroutines of a simulated
// job cooperatively, in event order.
//
// Every simulated execution context (an MPI rank, a spawned child) is a Task.
// A task runs until it blocks — on a receive with no matching message, on a
// rendezvous send awaiting its match, on a device completion — and then parks
// in the engine. Whoever makes the task runnable again (the matching sender,
// the receiver that resolves the handshake, the task's own timer) schedules a
// wakeup event on the event queue, which is ordered by virtual time with a
// stable schedule-order tiebreak. Parking hands the execution baton to the
// earliest pending event, so the event order — hence the simulation — is
// deterministic by construction: host scheduling never decides anything.
//
// There is one kernel. Its tasks are partitioned into groups, each with its
// own event queue, blocked set and baton, and a coordinator advances the
// groups in rounds (parallel.go). A serial kernel is the one-group,
// unbounded-window instance: its single round lasts until the kernel is
// idle, so exactly one task executes at any moment and every event of the
// job runs on one chain in (At, Seq) order. SetParallel splits the tasks
// into several groups that advance concurrently inside conservative safe
// windows.
//
// Each queue is a calendar queue (vclock.CalQueue) with amortized O(1) push
// and pop, carrying a tagged event record — a task pointer or a callback
// index, nothing boxed in an interface — so steady-state event traffic
// allocates nothing. Three fast paths keep the per-event constant factor
// down:
//
//   - Direct handoff. The wake-then-park pattern (a sender resolves a match,
//     wakes the receiver, parks) keeps the woken event in the queue's
//     one-slot front register when it is the earliest; the park pops it
//     straight back out without touching a bucket.
//
//   - Keep the baton. A task sleeping to a wakeup strictly earlier than
//     every pending event (SleepUntil, device waits) never enqueues at all:
//     it keeps running, paying no queue traffic and no goroutine switch.
//
//   - Wakeup batching. Events due at one instant — a collective fan-out
//     waking a whole tree level — are drained from the queue in a single
//     batch, and the baton is handed down the batch without per-event queue
//     operations.
//
// A blocked task with no pending event to wake it would previously hang the
// process; the kernel detects this (no pending events with live blocked
// tasks) and fails every blocked task with a deadlock error instead.
//
// Beyond task wakeups, the kernel carries callback events (CallAt): a
// function scheduled at a virtual time, executed while no task runs. With
// one group, callbacks share the group's queue and run inline on its chain,
// between task switches, in (At, Seq) order with the wakeups; with several
// groups they run at the coordinator between rounds. Fault injection is
// built on them — a failure event fires as a callback, calls Fail on the
// affected tasks, and the kernel tears each one down with a TaskFailure
// panic at its next scheduling point (parked tasks are woken at the failure
// instant just to die). Because teardown goes through the ordinary event
// machinery, a job aborted by a failure drains cleanly instead of tripping
// the deadlock detector.
//
// Engines and their task structs are pooled: Recycle returns a finished
// kernel (group 0's queue, batch and blocked set, the callback registry,
// task structs and their resume channels included) for the next launch, so
// a sweep running thousands of scenarios re-boots kernels out of warm
// memory.
package engine

import (
	"fmt"
	"sync"

	"clusterbooster/internal/vclock"
)

// task states.
const (
	stateCreated = iota // registered, not yet scheduled
	stateReady          // has a pending event in the queue
	stateRunning        // holds the execution baton
	stateBlocked        // parked, waiting for another task to wake it
	stateDone           // exited
)

// kev is the tagged event record: exactly one of task (a wakeup) or cb (a
// 1-based index into the engine's callback registry) is set. Storing the tag
// inline in the calendar queue's entry — instead of boxing the payload in an
// `any` — removes an allocation and an interface dispatch from every
// scheduled event.
type kev struct {
	task *Task
	cb   int32
}

// group is one share of the kernel's tasks with its own event chain: a
// calendar queue, same-instant batch, blocked set and outbox. Exactly one
// goroutine of a group runs at a time (the group's baton), so none of this
// needs locking; the coordinator touches it only between rounds.
type group struct {
	queue   vclock.CalQueue[kev]
	batch   []vclock.Entry[kev] // drained same-instant events, consumed first
	bi      int                 // next unconsumed batch index
	blocked []*Task             // tasks parked without a pending event
	outbox  []func()            // cross-group effects, applied at the barrier
	live    int                 // tasks of the group registered, not yet exited
	stats   Stats               // group-local counters, folded in by Run
}

// Engine is one discrete-event kernel instance, driving the tasks of one
// simulated job tree. All Engine and Task methods except Run must be called
// either before Run or from a currently running task ("holding the baton");
// the kernel's serialisation makes that safe without locks.
type Engine struct {
	g0     group    // group 0, pooled with the engine
	groups []*group // groups[0] is &g0; more only after SetParallel

	cbq    vclock.CalQueue[kev] // callbacks of a multi-group kernel
	cbs    []func()             // callback registry, indexed by kev.cb-1
	cbFree []int32              // free registry slots

	tasks    []*Task // every task of this run, for recycling
	taskFree []*Task // retired task structs ready for reuse

	// lookahead is the cross-group lookahead: Never with one group, so the
	// single round's window is unbounded.
	lookahead vclock.Time
	// windowEnd is the exclusive end of the current round's window.
	// Written by the coordinator between rounds, read by group chains
	// during the round; the kickstart/round-done channel handoffs order
	// every write before every read.
	windowEnd vclock.Time
	// inRound is true while several group chains may run at once. Same
	// publication discipline as windowEnd. Task.Defer and the CallAt
	// guard read it.
	inRound bool
	// roundDone receives one signal per chain that went idle; it holds a
	// slot per group, so no chain blocks while the coordinator collects.
	roundDone chan struct{}

	stats Stats
}

// enginePool recycles kernels across launches: group 0's queue buckets,
// batch buffer and blocked set, the callback registry and task structs all
// come back warm.
var enginePool = sync.Pool{New: func() any {
	e := &Engine{lookahead: vclock.Never, roundDone: make(chan struct{}, 1)}
	e.groups = []*group{&e.g0}
	return e
}}

// New returns an empty one-group kernel, reusing a recycled one when
// available.
func New() *Engine { return enginePool.Get().(*Engine) }

// Recycle returns a finished kernel to the pool for the next launch. Only
// call it after Run has returned and every result (Stats included) has been
// read; the engine and all its tasks are dead to the caller afterwards.
func (e *Engine) Recycle() {
	e.g0.reset()
	clear(e.groups[1:])
	e.groups = e.groups[:1]
	e.cbq.Reset()
	clear(e.cbs)
	e.cbs = e.cbs[:0]
	e.cbFree = e.cbFree[:0]
	for _, t := range e.tasks {
		t.reset()
		e.taskFree = append(e.taskFree, t)
	}
	e.tasks = e.tasks[:0]
	e.lookahead = vclock.Never
	e.stats = Stats{}
	enginePool.Put(e)
}

// reset empties the group, keeping its queue ring and buffers warm.
func (g *group) reset() {
	g.queue.Reset()
	clear(g.batch)
	g.batch = g.batch[:0]
	g.bi = 0
	clear(g.blocked)
	g.blocked = g.blocked[:0]
	clear(g.outbox)
	g.outbox = g.outbox[:0]
	g.live = 0
	g.stats = Stats{}
}

// Task is one simulated execution context bound to an Engine.
type Task struct {
	eng     *Engine
	grp     *group // the task's group (group 0 unless SetGroup moved it)
	label   string // free-form name, or the node name for rank tasks
	rank    int    // rank id when >= 0; the name is then "rank R @ label"
	resume  chan struct{}
	state   int
	bIdx    int   // index in the group's blocked set while stateBlocked
	poison  bool  // woken only to fail with a deadlock error
	failure error // set by Fail: the task dies at its next scheduling point
}

// name renders the task's diagnostic name. Rank tasks store the parts and
// format lazily — names appear only in failure reports, and a fig8-scale
// launch would otherwise pay thousands of Sprintfs just to boot.
func (t *Task) name() string {
	if t.rank >= 0 {
		return fmt.Sprintf("rank %d @ %s", t.rank, t.label)
	}
	return t.label
}

// reset prepares a retired task struct for reuse; the resume channel is
// empty (every handoff is consumed before a task exits) and kept.
func (t *Task) reset() {
	t.grp = nil
	t.label = ""
	t.rank = -1
	t.state = stateCreated
	t.bIdx = 0
	t.poison = false
	t.failure = nil
}

// TaskFailure is the panic value a task dies with after Fail: the kernel
// raises it at the task's next scheduling point. Job runners recover it and
// record Reason as the task's error.
type TaskFailure struct {
	Task   string
	Reason error
}

// Error renders the failure; TaskFailure is an error so recovered panics can
// travel through error-wrapping paths unchanged.
func (f *TaskFailure) Error() string {
	return fmt.Sprintf("task %q torn down: %v", f.Task, f.Reason)
}

// Unwrap exposes the teardown reason to errors.Is/As.
func (f *TaskFailure) Unwrap() error { return f.Reason }

// newTask registers a task in group 0 with the given name parts (rank < 0
// for plain labels). Task structs come from the recycle pool when available.
func (e *Engine) newTask(label string, rank int) *Task {
	var t *Task
	if n := len(e.taskFree); n > 0 {
		t = e.taskFree[n-1]
		e.taskFree[n-1] = nil
		e.taskFree = e.taskFree[:n-1]
	} else {
		t = &Task{resume: make(chan struct{}, 1)}
	}
	t.eng = e
	t.grp = &e.g0
	t.label = label
	t.rank = rank
	t.state = stateCreated
	e.tasks = append(e.tasks, t)
	e.g0.live++
	e.stats.Tasks++
	return t
}

// NewTask registers a task. Call StartAt to schedule its first run; the
// task's goroutine must call WaitStart before touching any simulation state
// and Exit (via defer) when it returns.
func (e *Engine) NewTask(name string) *Task { return e.newTask(name, -1) }

// NewRankTask registers a task named "rank R @ node" without formatting the
// name up front (it is rendered only if the task ever fails).
func (e *Engine) NewRankTask(rank int, node string) *Task { return e.newTask(node, rank) }

// StartAt schedules the task's first execution at virtual time at.
func (t *Task) StartAt(at vclock.Time) {
	if t.state != stateCreated {
		panic(fmt.Sprintf("engine: StartAt on task %q in state %d", t.name(), t.state))
	}
	t.state = stateReady
	t.grp.queue.Push(at, kev{task: t})
}

// WaitStart blocks the task's goroutine until its start event fires.
func (t *Task) WaitStart() {
	<-t.resume
	t.checkPoison()
}

// Park blocks the task until another task calls WakeAt on it. The group's
// baton passes to its earliest pending event; if the kernel has none, every
// live task is blocked and the kernel fails them all with a deadlock error
// (Park panics; the job runner converts rank panics to errors).
func (t *Task) Park() {
	g := t.grp
	t.state = stateBlocked
	t.bIdx = len(g.blocked)
	g.blocked = append(g.blocked, t)
	g.stats.Parks++
	if n := len(g.blocked); n > g.stats.PeakParked {
		g.stats.PeakParked = n
	}
	t.eng.dispatch(g)
	<-t.resume
	t.checkPoison()
}

// WakeAt schedules a wakeup event for a blocked task at virtual time at.
// Only the condition-resolver that knows the task is parked may call it:
// the task's own group, a callback, or a barrier closure (Defer) — never
// directly across groups mid-round. When the wakeup is the earliest pending
// event it lands in the queue's front register, and the waker's next park
// hands the baton over without a bucket operation — the direct-handoff fast
// path.
func (t *Task) WakeAt(at vclock.Time) {
	if t.state != stateBlocked {
		panic(fmt.Sprintf("engine: WakeAt on task %q in state %d", t.name(), t.state))
	}
	t.wake(at)
}

// wake moves a blocked task back into its group's queue, due at at.
func (t *Task) wake(at vclock.Time) {
	g := t.grp
	g.unblock(t)
	t.state = stateReady
	g.queue.Push(at, kev{task: t})
}

// CallAt schedules fn to run at virtual time at while no task runs, so fn
// may touch any kernel or model state (schedule events, wake or fail
// tasks). Callbacks scheduled for the same instant as task wakeups fire in
// schedule order, like any event. A callback still pending when the last
// task exits never runs. On a multi-group kernel callbacks are coordinator
// state: schedule them before Run, from another callback, or from a
// barrier closure.
func (e *Engine) CallAt(at vclock.Time, fn func()) {
	if fn == nil {
		panic("engine: CallAt with nil callback")
	}
	if e.inRound {
		panic("engine: CallAt from a task during a parallel round")
	}
	var idx int32
	if n := len(e.cbFree); n > 0 {
		idx = e.cbFree[n-1]
		e.cbFree = e.cbFree[:n-1]
		e.cbs[idx] = fn
	} else {
		e.cbs = append(e.cbs, fn)
		idx = int32(len(e.cbs) - 1)
	}
	q := &e.g0.queue
	if len(e.groups) > 1 {
		q = &e.cbq
	}
	q.Push(at, kev{cb: idx + 1})
}

// runCallback executes a popped callback event and frees its registry slot.
func (e *Engine) runCallback(cb int32) {
	fn := e.cbs[cb-1]
	e.cbs[cb-1] = nil
	e.cbFree = append(e.cbFree, cb-1)
	e.stats.Callbacks++
	fn()
}

// Fail marks the task for teardown with the given reason: at its next
// scheduling point the kernel panics it with a *TaskFailure carrying reason.
// A parked task is woken at virtual time at just to die; ready or running
// tasks die when their next event fires or they next touch the kernel. The
// first reason wins; failing a finished task is a no-op.
func (t *Task) Fail(at vclock.Time, reason error) {
	if t.state == stateDone || t.failure != nil {
		return
	}
	t.failure = reason
	if t.state == stateBlocked {
		t.wake(at)
	}
}

// inWindow reports whether an event at virtual time at lies inside a window
// ending at w: strictly before it, or anywhere when the window is unbounded.
func inWindow(at, w vclock.Time) bool { return at < w || w == vclock.Never }

// next takes the group's next event inside the window ending at w: first
// from the drained same-instant batch, then from the queue (draining the
// next instant's batch in one go).
func (g *group) next(w vclock.Time) (vclock.Entry[kev], bool) {
	if g.bi >= len(g.batch) {
		if w != vclock.Never { // a bounded window: stop at its end
			if head, ok := g.queue.Peek(); !ok || head.At >= w {
				return vclock.Entry[kev]{}, false
			}
		}
		g.batch = g.queue.PopRun(g.batch[:0])
		g.bi = 0
		if len(g.batch) == 0 {
			return vclock.Entry[kev]{}, false
		}
	}
	ev := g.batch[g.bi]
	g.batch[g.bi] = vclock.Entry[kev]{} // release the task reference
	g.bi++
	return ev, true
}

// pendingAt reports whether the group has an event pending at or before
// virtual time at — i.e. whether a wakeup scheduled at at would NOT be its
// next event.
func (g *group) pendingAt(at vclock.Time) bool {
	if g.bi < len(g.batch) {
		return true // batched events precede anything pushed now
	}
	head, ok := g.queue.Peek()
	return ok && head.At <= at
}

// SleepUntil schedules the task's own wakeup at virtual time at and yields.
// If the wakeup would be the next event anyway, the task keeps the baton:
// when it is strictly the earliest it returns immediately without touching
// the queue at all, and otherwise it pops its own event back — a timer that
// fires "next" costs at most two queue operations and no goroutine switch.
// Callback events due before the wakeup run inline, in order, on the way.
// A wakeup at or past the round's window end always yields: another group
// (or a deferred cross-group effect) may own an earlier event.
func (t *Task) SleepUntil(at vclock.Time) {
	e, g := t.eng, t.grp
	if inWindow(at, e.windowEnd) && !g.pendingAt(at) {
		// Strictly earliest: nothing can run before this wakeup, so the
		// event need not exist. Counted as a processed, baton-keeping event.
		g.stats.Events++
		g.stats.Kept++
		t.checkPoison()
		return
	}
	g.queue.Push(at, kev{task: t})
	nt := e.nextTask(g)
	if nt == t {
		g.stats.Kept++
		t.checkPoison()
		return // still the earliest: keep running
	}
	t.state = stateReady
	g.stats.Parks++
	e.switchTo(g, nt)
	<-t.resume
	t.checkPoison()
}

// Exit retires the task and passes its group's baton on. A group whose last
// task exits ends its chain; the kernel completes when every group has.
// Must be deferred by the task's goroutine (after any panic recovery that
// should see the baton held).
func (t *Task) Exit() {
	if t.state == stateDone {
		return
	}
	g := t.grp
	t.state = stateDone
	g.live--
	if g.live == 0 {
		// The group is finished. With one group so is the job, and its
		// pending callbacks never run.
		t.eng.switchTo(g, nil)
		return
	}
	t.eng.dispatch(g)
}

// dispatch hands the group's baton to its earliest task event inside the
// window (running callback events inline on the way), or ends the group's
// chain when there is none.
func (e *Engine) dispatch(g *group) { e.switchTo(g, e.nextTask(g)) }

// nextTask pops the group's next task event inside the window, running the
// callback events due before it inline; nil when the window holds none.
func (e *Engine) nextTask(g *group) *Task {
	for {
		ev, ok := g.next(e.windowEnd)
		if !ok {
			return nil
		}
		g.stats.Events++
		if t := ev.Payload.task; t != nil {
			return t
		}
		e.runCallback(ev.Payload.cb)
	}
}

// switchTo hands the group's baton to t, or — when t is nil — ends the
// group's chain for this round and wakes the coordinator.
func (e *Engine) switchTo(g *group, t *Task) {
	if t == nil {
		e.roundDone <- struct{}{}
		return
	}
	g.stats.Switches++
	t.state = stateRunning
	t.resume <- struct{}{}
}

// unblock removes a task from the group's blocked set (order-free swap
// removal).
func (g *group) unblock(t *Task) {
	last := len(g.blocked) - 1
	g.blocked[t.bIdx] = g.blocked[last]
	g.blocked[t.bIdx].bIdx = t.bIdx
	g.blocked[last] = nil
	g.blocked = g.blocked[:last]
}

// checkPoison tears down a task that was resumed only to die: a Fail victim
// panics with its *TaskFailure, a task woken by the deadlock detector with a
// deadlock report. Failure wins over deadlock poison — the failure is the
// cause, the starved queue its symptom.
func (t *Task) checkPoison() {
	t.state = stateRunning
	if t.failure != nil {
		panic(&TaskFailure{Task: t.name(), Reason: t.failure})
	}
	if t.poison {
		panic(fmt.Sprintf("engine: deadlock: task %q blocked with no pending events (%d tasks affected)",
			t.name(), t.eng.blockedCount()+1))
	}
}

// Stats returns this kernel's counters. Valid after Run returns.
func (e *Engine) Stats() Stats { return e.stats }
