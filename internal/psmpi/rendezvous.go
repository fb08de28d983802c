package psmpi

import (
	"errors"
	"fmt"
	"sync/atomic"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// Collective rendezvous for allreduce on order-free launches.
//
// On the message path an allreduce is a binomial ReduceF64 to rank 0 and a
// binomial BcastF64 from it: 2(n−1) envelopes through mailboxes, and a
// kernel park for nearly every tree message. On a launch that declares
// LaunchSpec.OrderFree, an eager-sized AllreduceF64 instead deposits the
// rank's buffer and op on its Proc and parks once. The last rank to arrive
// replays both trees (replayAllreduce): the reduce children before parents,
// the bcast parents before children, each rank's steps in its program
// order, making the message path's exact EagerSend/EagerEject calls and
// float operations and the same updates to clocks, Stats, collSeq, sendSeq
// and trace spans. It then wakes every other rank at the instant the
// message path would last have resumed it: when its bcast message reached
// it, or for the root when its reduce completed. Only the order of those
// resumes depends on the choice, and mirroring the tree's order keeps the
// halo exchanges that follow from parking more often than they do on the
// message path.
//
// Why that is exact: with one proc per node every injection and ejection
// link has a single writer, whose reservations the replay makes in that
// writer's program order, exactly as the message path would; every other
// quantity the trees compute is a function of rank clocks and link state,
// not of the order in which the kernel resumes ranks. The checks in
// orderDependent and claimOrderFree keep out everything that does observe
// that order. DESIGN.md ("One park per allreduce") has the full argument.
//
// On the serial kernel the last arrival replays inline and runs on. Every
// wake instant lies after the root's reduce completion, hence after every
// arrival clock, so no wakeup lands in the kernel's past.
// On a parallel kernel ranks of several groups arrive concurrently, so each
// arrival is counted at the round barrier (Task.Defer), in deterministic
// group order; the arrival that completes the count replays there, with
// every group quiescent, and wakes each rank no earlier than the end of the
// window just finished.

// messagePathOnly keeps every allreduce on the message path (tests compare
// the two paths through it; see export_test.go).
var messagePathOnly atomic.Bool

// errOrderFree prefixes every refusal of the OrderFree declaration.
var errOrderFree = errors.New("psmpi: order-free launch")

// claimOrderFree checks a launch's OrderFree declaration and records the
// nodes its initial job occupies.
func (l *launch) claimOrderFree(rt *Runtime, spec LaunchSpec) error {
	if spec.Failures != nil {
		return fmt.Errorf("%w: failure injection armed", errOrderFree)
	}
	if len(spec.Revocations) > 0 {
		return fmt.Errorf("%w: allocation revocations armed", errOrderFree)
	}
	l.onNode = make([]bool, len(rt.sys.Nodes()))
	return l.claimNodes(spec.Nodes)
}

// claimNodes marks nodes as hosting a proc of the tree, refusing any node
// that already hosts one. Spawns may run concurrently on a parallel kernel,
// hence the lock.
func (l *launch) claimNodes(nodes []*machine.Node) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, n := range nodes {
		if l.onNode[n.ID] {
			for _, m := range nodes[:i] {
				l.onNode[m.ID] = false
			}
			return fmt.Errorf("%w: two procs on node %s", errOrderFree, n.Name())
		}
		l.onNode[n.ID] = true
	}
	return nil
}

// orderDependent fails the calling rank on an order-free launch: op
// observes the order in which ranks resume, which the launch promised
// nothing depends on.
func (p *Proc) orderDependent(op string) {
	if p.l.onNode != nil {
		panic(fmt.Sprintf("%v: %s observes the resume order", errOrderFree, op))
	}
}

// rendezvousAllreduce reports whether an allreduce of buf over c takes the
// rendezvous: an order-free launch, an intra-communicator whose tag block
// fits (the message path panics otherwise), and an eager-sized buffer.
func (p *Proc) rendezvousAllreduce(c *Comm, buf []float64) bool {
	return p.l.onNode != nil && !messagePathOnly.Load() && !c.IsInter() &&
		c.Size() <= collTagBlock && p.rt.net.Eager(8*len(buf))
}

// allreduceRendezvous deposits buf and op, parks until the last rank of c
// has arrived and replayed the allreduce, and returns with the result in
// buf and the clock at this rank's completion instant.
func (p *Proc) allreduceRendezvous(c *Comm, buf []float64, op Op) {
	p.rvBuf, p.rvOp, p.rvComm = buf, op, c
	if p.l.par != nil {
		if p.rvArrive == nil {
			p.rvArrive = p.arriveAtBarrier // bound once: Defer then allocates nothing
		}
		p.task.Defer(p.rvArrive)
		p.task.Park()
		return
	}
	if !c.arrive() {
		p.task.Park()
		return
	}
	for _, q := range c.local {
		if q != p {
			q.task.WakeAt(q.rvWake)
		}
	}
}

// arriveAtBarrier counts p into the rendezvous on p.rvComm at a round
// barrier of a parallel kernel. The completing arrival wakes every rank,
// itself included, at its wake instant, but no earlier than the end
// of the window just run.
func (p *Proc) arriveAtBarrier() {
	c := p.rvComm
	if !c.arrive() {
		return
	}
	floor := p.l.eng.Frontier()
	for _, q := range c.local {
		q.task.WakeAt(vclock.Max(q.rvWake, floor))
	}
}

// arrive counts one rank into the communicator's pending rendezvous; the
// arrival that completes it replays the allreduce and reports true.
func (c *Comm) arrive() bool {
	c.rvArrived++
	if c.rvArrived < len(c.local) {
		return false
	}
	c.rvArrived = 0
	c.replayAllreduce()
	return true
}

// replayAllreduce performs, for every rank of c, what ReduceF64 to rank 0
// followed by BcastF64 from rank 0 would: the same tree, the same fabric
// calls per rank in program order, the same operand order in every
// reduction. Accumulation runs in place in each rank's deposited buffer: a
// rank's partial is final when it sends, and the broadcast overwrites it.
func (c *Comm) replayAllreduce() {
	n := len(c.local)
	bytes := 8 * len(c.local[0].rvBuf)
	for r, q := range c.local {
		q.Stats.Collectives += 2 // ReduceF64 and BcastF64
		c.collSeq[r] += 2
	}
	// Reduce to 0: rank r receives from r|mask for each clear low bit, then
	// sends its partial to r&^mask at its lowest set bit. Children have
	// higher ranks, so descending rank order runs every child first; its
	// send leaves the message's NIC arrival in its own rvArr.
	for r := n - 1; r >= 0; r-- {
		q := c.local[r]
		for mask := 1; mask < n; mask <<= 1 {
			if r&mask == 0 {
				if src := r | mask; src < n {
					child := c.local[src]
					q.replayRecv(child.node, bytes, child.rvArr)
					q.rvOp.apply(q.rvBuf, child.rvBuf)
				}
				continue
			}
			q.rvArr = q.replaySend(c.local[r&^mask].node, bytes)
			break
		}
	}
	// Bcast from 0: rank r receives from r−lowbit(r), then forwards to
	// r+mask for each lower mask, highest first. Parents have lower ranks,
	// so ascending rank order runs every parent first; its send leaves the
	// NIC arrival in the child's rvArr. A rank's wake instant is its
	// message path wakeup (recvWake): the later of posting the receive and
	// the message's NIC arrival; the root's is its reduce completion.
	root := c.local[0].rvBuf
	for r := 0; r < n; r++ {
		q := c.local[r]
		q.rvWake = q.clock.Now()
		mask := 1
		for mask < n {
			if r&mask != 0 {
				q.rvWake = vclock.Max(q.rvWake, q.rvArr)
				q.replayRecv(c.local[r-mask].node, bytes, q.rvArr)
				copy(q.rvBuf, root)
				break
			}
			mask <<= 1
		}
		for mask >>= 1; mask > 0; mask >>= 1 {
			if r+mask < n {
				child := c.local[r+mask]
				child.rvArr = q.replaySend(child.node, bytes)
			}
		}
	}
}

// replaySend is sendTagged's blocking eager path on an intra-communicator,
// minus the envelope: it books the injection link, advances the clock and
// records the span, and returns the message's NIC arrival at dst.
func (p *Proc) replaySend(dst *machine.Node, bytes int) vclock.Time {
	begin := p.clock.Now()
	p.Stats.Sends++
	p.Stats.BytesSent += int64(bytes)
	p.sendSeq++
	senderFree, nicArrival := p.rt.net.EagerSend(p.node, dst, bytes, begin)
	p.elapseComm(senderFree)
	if p.rt.trace != nil {
		p.record("send", begin)
	}
	return nicArrival
}

// replayRecv is recvCommon for an eager message from src that reached this
// rank's NIC at arrival: it books the ejection link, advances the clock and
// records the span.
func (p *Proc) replayRecv(src *machine.Node, bytes int, arrival vclock.Time) {
	begin := p.clock.Now()
	p.completeEager(src, bytes, arrival)
	if p.rt.trace != nil {
		p.record("recv", begin)
	}
}
