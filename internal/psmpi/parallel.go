package psmpi

import (
	"sync/atomic"

	"clusterbooster/internal/machine"
)

// Conservative parallel execution (multi-kernel-worker launches).
//
// A launch may opt in to the engine's conservative synchronous-window
// parallel mode (engine.SetParallel) by setting LaunchSpec.KernelWorkers > 1.
// The runtime partitions the job's nodes into contiguous groups — every rank
// of a node lands in that node's group — and registers each rank's task with
// its group. The fabric's cross-node lookahead (wire latency plus the minimum
// send overhead, fabric.Network.CrossLookahead) bounds how soon any send can
// become visible on another node, which makes node groups safe to advance
// concurrently within that window.
//
// Cross-group interaction points in this package are routed through
// engine.Task.Defer so they replay at the round barrier in deterministic
// group order instead of racing between worker goroutines:
//
//   - message delivery into another group's mailbox (sendTagged),
//   - the sender-visible rendezvous completion (dmaEnd/dmaDone and the
//     parked sender's wakeup) when the matching receiver is in another
//     group (completeMatch, completeRecvUnexpected),
//   - arming a spawned child world's tasks (startJob).
//
// Everything else a rank touches — its clock, its mailbox, its node's
// injection/ejection links — is group-local by construction, so no locking
// is added to the hot paths. Shared free lists become per-group
// (launch.envFree, launch.f64Free) and the envelope refcount becomes atomic
// (a rendezvous envelope's two owners may release it from different groups
// in the same round).
//
// Restrictions: AnySource receives and Probe depend on the exact global
// interleaving of deliveries from different senders, which round-based
// delivery does not reproduce; they panic on a parallel kernel, and Launch
// returns the panic as the rank's error. Launches with tracing, failure
// injection or allocation revocations fall back to serial with a recorded
// reason (engine.Stats.Fallback).

// defaultKernelWorkers is the process-wide default worker count applied by
// callers that consult DefaultKernelWorkers (the experiment drivers); 0 or 1
// means serial.
var defaultKernelWorkers atomic.Int32

// SetDefaultKernelWorkers sets the process-wide default kernel worker count
// used by launch sites that opt eligible jobs into parallel execution (the
// -kworkers flag of cbctl). n <= 1 selects serial execution.
func SetDefaultKernelWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultKernelWorkers.Store(int32(n))
}

// DefaultKernelWorkers returns the process-wide default kernel worker count.
func DefaultKernelWorkers() int { return int(defaultKernelWorkers.Load()) }

// Fallback reasons recorded by the runtime (the engine records its own for
// "single group" and "zero lookahead").
const (
	// FallbackTracing: the event trace must interleave all ranks in one
	// global order, which only the serial kernel produces directly.
	FallbackTracing = "tracing"
	// FallbackFailures: failure injection tears down all ranks at once and
	// joins their errors in completion order; parallel teardown would make
	// that order (and the exact teardown interleaving) host-dependent.
	FallbackFailures = "failure injection"
	// FallbackRevocations: allocation revocations tear the tree down
	// exactly like injected failures, with the same ordering argument.
	FallbackRevocations = "allocation revocation"
)

// parState is the launch's group partition: node ID -> group index.
type parState struct {
	groups int
	gid    []int32 // indexed by machine.Node.ID; -1 = not yet assigned
	rr     int     // round-robin cursor for nodes first seen at spawn time
}

// assign returns the node's group, assigning lazily (round-robin) for nodes
// that enter the job tree through a spawn after the initial partition.
func (ps *parState) assign(node *machine.Node) int32 {
	if g := ps.gid[node.ID]; g >= 0 {
		return g
	}
	g := int32(ps.rr % ps.groups)
	ps.rr++
	ps.gid[node.ID] = g
	return g
}

// crossGroup reports whether src lives in a different group than p — the
// test that decides whether an effect must be deferred to the round barrier.
// Always false on a serial launch.
func (p *Proc) crossGroup(src *machine.Node) bool {
	return p.l.par != nil && p.l.par.gid[src.ID] != p.gid
}

// setupParallel decides whether the launch runs the parallel kernel and
// builds the node partition. Serial fallbacks record their reason in the
// kernel's stats; a spec that never requested workers stays silently serial.
func (rt *Runtime) setupParallel(l *launch, spec LaunchSpec) {
	kw := spec.KernelWorkers
	if kw <= 1 {
		return
	}
	if rt.trace != nil {
		l.eng.NoteSerialFallback(FallbackTracing)
		return
	}
	if spec.Failures != nil {
		l.eng.NoteSerialFallback(FallbackFailures)
		return
	}
	if len(spec.Revocations) > 0 {
		l.eng.NoteSerialFallback(FallbackRevocations)
		return
	}
	// Unique nodes in first-appearance (rank) order, chunked contiguously:
	// neighbouring ranks — the dominant traffic in the reproduced codes —
	// tend to share a group, keeping cross-group events rare.
	total := len(rt.sys.Nodes())
	seen := make([]bool, total)
	uniq := make([]*machine.Node, 0, len(spec.Nodes))
	for _, n := range spec.Nodes {
		if !seen[n.ID] {
			seen[n.ID] = true
			uniq = append(uniq, n)
		}
	}
	groups := kw
	if groups > len(uniq) {
		groups = len(uniq)
	}
	if !l.eng.SetParallel(groups, rt.net.CrossLookahead()) {
		return // the engine recorded the reason (single group, zero lookahead)
	}
	ps := &parState{groups: groups, gid: make([]int32, total)}
	for i := range ps.gid {
		ps.gid[i] = -1
	}
	for i, n := range uniq {
		ps.gid[n.ID] = int32(i * groups / len(uniq))
	}
	l.par = ps
}
