package psmpi

import (
	"fmt"

	"clusterbooster/internal/engine"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// payload is a message body with a tagged fast lane: []float64 — the
// platform's dominant traffic (halo rows, moments, reduction accumulators,
// checkpoint state) — travels in its own field, so the send path never boxes
// a slice header into an interface (one heap allocation per send through
// PR 4, the single largest allocation source of the kernel benchmarks).
// Everything else rides in val. pooled marks f64 as a launch-pool buffer
// whose sole consumer may recycle it after copying out.
type payload struct {
	f64    []float64
	val    any
	pooled bool
}

// value returns the body for the untyped receive APIs. Boxing happens here,
// on demand, instead of on every send.
func (pl payload) value() any {
	if pl.f64 != nil {
		return pl.f64
	}
	return pl.val
}

// slice returns the body as a []float64 for the typed receive APIs.
func (pl payload) slice() []float64 {
	if pl.f64 != nil {
		return pl.f64
	}
	if pl.val == nil {
		return nil
	}
	return pl.val.([]float64)
}

// envelope is a message in flight. Envelopes are pooled per launch: refs
// counts the parties that still read the envelope (the receiver; plus the
// sender for rendezvous messages, which reads the completion time resolved
// at match), and the last one returns it to the free list. The kernel's
// serialisation makes the pool safe without any synchronisation — except
// refs, dropped atomically because a rendezvous envelope's two owners may
// release it concurrently from different groups of a parallel kernel.
type envelope struct {
	commID    uint64
	src       int // sender's rank in its group
	tag       int
	pl        payload
	bytes     int
	seq       uint64
	refs      int32 // atomic decrement; plain writes only before delivery
	eager     bool
	interComm bool        // sent on an inter-communicator (staged path)
	arrival   vclock.Time // eager only: when data is at the destination NIC

	// Rendezvous handshake state. The fabric times the transfer in three
	// phases (issue, match, eject) so each booking happens at the modelled
	// instant it occurs on the hardware; the execution kernel serialises the
	// calls, so any task may resolve any phase.
	srcNode      *machine.Node // needed to time the transfer at match time
	rts          vclock.Time   // RTS at the receiver NIC (RendezvousIssue)
	injEnd       vclock.Time   // booked injection-link end (RendezvousIssue)
	dmaEnd       vclock.Time   // sender completion, resolved at match
	dmaDone      bool          // dmaEnd is valid
	senderWaiter *engine.Task  // sender parked awaiting the match, if any
}

// postedRecv is a receive posted before its message arrived.
type postedRecv struct {
	commID uint64
	src    int // AnySource allowed
	tag    int // AnyTag allowed
	posted vclock.Time
	env    *envelope // set when matched
	done   bool
	waiter *engine.Task // receiver parked on this receive, if any
	// senderDone is the receiver's copy of a matched rendezvous transfer's
	// completion time. The receive paths read it instead of env.dmaEnd: when
	// the matching sender sits in another kernel group, the write to the
	// envelope (which the sender polls) is deferred to the round barrier,
	// but the receiver may complete within the round.
	senderDone vclock.Time
	// prev and next link the record into its mailbox's posted queue while
	// queued is set.
	prev, next *postedRecv
	queued     bool
}

func (pr *postedRecv) matches(e *envelope) bool {
	return pr.commID == e.commID &&
		(pr.src == AnySource || pr.src == e.src) &&
		(pr.tag == AnyTag || pr.tag == e.tag)
}

// mailbox holds a rank's unexpected-message queue and posted-receive queue,
// with standard MPI matching precedence. The execution kernel runs exactly
// one rank at a time, so the mailbox needs no locking: deliver (called by
// the sending rank) and the receive paths (called by the owning rank) can
// never overlap. The posted queue is an intrusive doubly linked list in
// post order: deliver scans it front to back, and a completed receive
// unlinks itself in O(1) wherever it sits.
type mailbox struct {
	unexpected []*envelope
	head, tail *postedRecv // posted receives, oldest first
	probers    []*Proc     // ranks parked in Probe, woken on new unexpected mail
}

func newMailbox() *mailbox { return &mailbox{} }

// deliver is called from the sender's task. It matches the envelope against
// posted receives (in post order) or queues it as unexpected. For rendezvous
// messages matched against a posted receive, the sender's completion is
// resolved here (pure arithmetic — the receive-post time is already known
// and no link state is touched), so a blocking sender never waits for the
// receiver to reach its own completion call. Ejection-link serialisation and
// the receiver-side arrival happen later, in the receiver's task.
func (mb *mailbox) deliver(e *envelope, dst *Proc) {
	for pr := mb.head; pr != nil; pr = pr.next {
		if pr.env == nil && pr.matches(e) {
			completeMatch(pr, e, dst)
			return
		}
	}
	mb.unexpected = append(mb.unexpected, e)
	// New unexpected mail: re-run any parked Probe loops.
	for _, q := range mb.probers {
		q.task.WakeAt(q.clock.Now())
	}
	mb.probers = mb.probers[:0]
}

// completeMatch resolves a (posted receive, envelope) pair: for rendezvous
// messages it computes the sender's completion time, and it wakes whichever
// side is parked on the outcome — the sender blocked in waitSend at its
// transfer completion, the receiver blocked in Recv/Wait at the message's
// arrival estimate. On a parallel kernel, a sender in another group may be
// concurrently polling the envelope's completion state, so the sender-
// visible commit is deferred to the round barrier; the receiver keeps its
// own copy of the completion time in pr.senderDone.
func completeMatch(pr *postedRecv, e *envelope, dst *Proc) {
	pr.env = e
	if !e.eager {
		dmaEnd := dst.rt.net.RendezvousMatch(
			e.srcNode, dst.node, e.bytes, e.rts, e.injEnd, pr.posted)
		pr.senderDone = dmaEnd
		if dst.crossGroup(e.srcNode) {
			dst.task.Defer(func() { commitSenderDone(e, dmaEnd) })
		} else {
			commitSenderDone(e, dmaEnd)
		}
	}
	pr.done = true
	if w := pr.waiter; w != nil {
		pr.waiter = nil
		w.WakeAt(recvWake(pr, e))
	}
}

// commitSenderDone publishes a rendezvous transfer's completion to the
// sender: from the matching receiver directly when both sides share a kernel
// group (or the kernel is serial), otherwise replayed at the round barrier.
func commitSenderDone(e *envelope, dmaEnd vclock.Time) {
	e.dmaEnd = dmaEnd
	e.dmaDone = true
	if w := e.senderWaiter; w != nil {
		e.senderWaiter = nil
		w.WakeAt(dmaEnd)
	}
}

// recvWake is the virtual time at which a matched receive's waiter resumes:
// the message's arrival estimate, no earlier than the receive was posted.
// (The receiver recomputes the exact arrival — ejection-link serialisation
// included — when it completes the receive; the wakeup time only orders the
// resume among the kernel's events.)
func recvWake(pr *postedRecv, e *envelope) vclock.Time {
	if e.eager {
		return vclock.Max(pr.posted, e.arrival)
	}
	return vclock.Max(pr.posted, pr.senderDone)
}

// takeUnexpected removes and returns the first unexpected envelope matching
// (commID, src, tag), or nil.
func (mb *mailbox) takeUnexpected(commID uint64, src, tag int) *envelope {
	probe := postedRecv{commID: commID, src: src, tag: tag}
	for i, e := range mb.unexpected {
		if probe.matches(e) {
			mb.unexpected = append(mb.unexpected[:i], mb.unexpected[i+1:]...)
			return e
		}
	}
	return nil
}

// Request is a handle for a non-blocking operation, completed by Wait.
type Request struct {
	p    *Proc
	done bool

	// send-side
	isSend bool
	env    *envelope // rendezvous/synchronous sends: handshake state

	// recv-side
	pr     *postedRecv
	mb     *mailbox
	data   payload // extracted body, once completed
	status Status  // extracted status, once completed
}

// sendMode selects the send protocol.
type sendMode int

const (
	modeStandard sendMode = iota // eager below threshold, rendezvous above
	modeSync                     // always rendezvous (MPI_Issend)
)

// send implements all send flavours. Blocking sends wait for local completion
// (standard mode: buffer reusable; synchronous mode: matched), non-blocking
// sends return a Request.
func (p *Proc) send(c *Comm, dst, tag int, pl payload, bytes int, mode sendMode, blocking bool) *Request {
	if tag < 0 || tag >= MaxUserTag {
		// Internal callers use sendTagged with reserved tags.
		panic(fmt.Sprintf("psmpi: tag %d out of user range [0,%d)", tag, MaxUserTag))
	}
	return p.sendTagged(c, dst, tag, pl, bytes, mode, blocking)
}

func (p *Proc) sendTagged(c *Comm, dst, tag int, pl payload, bytes int, mode sendMode, blocking bool) *Request {
	if p.rt.trace != nil {
		defer p.record("send", p.clock.Now())
	}
	target := c.target(dst)
	// Inter-communicator traffic is staged through the MPI layer on the
	// sending side (see Config.InterCommStagingGBs).
	if c.IsInter() && bytes > 0 {
		p.addComm(vclock.Time(float64(bytes) / (p.rt.cfg.InterCommStagingGBs * 1e9)))
	}
	begin := p.clock.Now()
	p.Stats.Sends++
	p.Stats.BytesSent += int64(bytes)
	p.sendSeq++

	e := p.newEnv()
	*e = envelope{
		commID:    c.id,
		src:       p.rankIn(c),
		tag:       tag,
		pl:        pl,
		bytes:     bytes,
		seq:       p.sendSeq,
		refs:      1, // the receiver
		srcNode:   p.node,
		interComm: c.IsInter(),
	}

	if mode == modeStandard && p.rt.net.Eager(bytes) {
		senderFree, nicArrival := p.rt.net.EagerSend(p.node, target.node, bytes, begin)
		e.eager = true
		e.arrival = nicArrival
		p.deliverTo(target, e)
		// The sending CPU is busy until the NIC has the data, then free.
		p.elapseComm(senderFree)
		if blocking {
			return nil
		}
		// Eager sends complete locally: the request is born done, and since a
		// done send request carries no state, every eager Isend of a rank
		// shares one request struct instead of allocating.
		return &p.eagerDone
	}
	e.refs++ // the sender reads the matched completion time
	e.rts, e.injEnd = p.rt.net.RendezvousIssue(p.node, target.node, bytes, begin)
	p.deliverTo(target, e)
	// Rendezvous: the sender's CPU pays the issue overhead (posting the RTS)
	// and may then continue; completion arrives through the handshake.
	p.addComm(p.rt.net.SendOverheadOf(p.node))
	if blocking {
		p.waitSendEnv(e)
		return nil
	}
	return &Request{p: p, isSend: true, env: e}
}

// deliverTo hands an envelope to the target's mailbox. Same-group targets
// (and every target of a serial kernel) receive it immediately, in the
// sending rank's event order. A target in another kernel group owns its
// mailbox concurrently, so the delivery is deferred to the round barrier;
// the fabric's cross-node lookahead guarantees the message's effects lie at
// or beyond the window edge, which keeps the replayed delivery order
// consistent with the serial schedule.
func (p *Proc) deliverTo(target *Proc, e *envelope) {
	if p.l.par != nil && p.gid != target.gid {
		p.task.Defer(func() { target.mbox.deliver(e, target) })
		return
	}
	target.mbox.deliver(e, target)
}

// waitSend completes a non-blocking send request.
func (p *Proc) waitSend(req *Request) {
	if req.done {
		return
	}
	p.waitSendEnv(req.env)
	req.env = nil
	req.done = true
}

// waitSendEnv blocks until a rendezvous send's transfer completes. If the
// match has not happened yet, the sender parks in the kernel; the receiver's
// match resolves the completion time and wakes it exactly then.
func (p *Proc) waitSendEnv(e *envelope) {
	if !e.dmaDone {
		e.senderWaiter = p.task
		p.task.Park()
	}
	p.elapseComm(e.dmaEnd)
	p.releaseEnv(e)
}

// Send is a blocking standard-mode send (MPI_Send): it returns when the send
// buffer is reusable — immediately after injection for eager messages, after
// the transfer for rendezvous messages.
func (p *Proc) Send(c *Comm, dst, tag int, data any, bytes int) {
	p.send(c, dst, tag, payload{val: data}, bytes, modeStandard, true)
}

// Isend is a non-blocking standard-mode send (MPI_Isend).
func (p *Proc) Isend(c *Comm, dst, tag int, data any, bytes int) *Request {
	return p.send(c, dst, tag, payload{val: data}, bytes, modeStandard, false)
}

// Issend is a non-blocking synchronous send (MPI_Issend): the request
// completes only once the matching receive is posted. xPic uses this for the
// Cluster↔Booster moment/field exchange (Listing 4 of the paper).
func (p *Proc) Issend(c *Comm, dst, tag int, data any, bytes int) *Request {
	return p.send(c, dst, tag, payload{val: data}, bytes, modeSync, false)
}

// IsendF64Shared is Isend for a []float64 the caller promises not to touch
// until the message is consumed (xPic's halo, moment and migration buffers
// follow this discipline by protocol order). The slice travels by reference
// and unboxed: no copy, no allocation.
func (p *Proc) IsendF64Shared(c *Comm, dst, tag int, buf []float64) *Request {
	return p.send(c, dst, tag, payload{f64: buf}, 8*len(buf), modeStandard, false)
}

// IssendF64Shared is Issend with the same shared-buffer contract as
// IsendF64Shared.
func (p *Proc) IssendF64Shared(c *Comm, dst, tag int, buf []float64) *Request {
	return p.send(c, dst, tag, payload{f64: buf}, 8*len(buf), modeSync, false)
}

// recvCommon matches a message, timing the receive. Returns the envelope.
func (p *Proc) recvCommon(c *Comm, src, tag int) *envelope {
	if src == AnySource {
		p.anySource()
	}
	if p.rt.trace != nil {
		defer p.record("recv", p.clock.Now())
	}
	mb := p.mbox
	if e := mb.takeUnexpected(c.id, src, tag); e != nil {
		p.completeRecvUnexpected(e)
		return e
	}
	// A blocking receive's posting lives only until this call returns, so it
	// reuses a per-rank scratch record instead of allocating.
	pr := &p.recvScratch
	*pr = postedRecv{commID: c.id, src: src, tag: tag, posted: p.clock.Now(), waiter: p.task}
	mb.post(pr)
	p.task.Park()
	mb.removePosted(pr)
	p.completeRecvPosted(pr)
	return pr.env
}

// post appends a receive to the posted queue.
func (mb *mailbox) post(pr *postedRecv) {
	pr.prev, pr.next, pr.queued = mb.tail, nil, true
	if mb.tail != nil {
		mb.tail.next = pr
	} else {
		mb.head = pr
	}
	mb.tail = pr
}

// anySource refuses an AnySource receive where its match would depend on
// the order in which senders run: on a parallel kernel and on an
// order-free launch.
func (p *Proc) anySource() {
	if p.l.par != nil {
		panic("psmpi: AnySource receive on a parallel kernel (run with 1 kernel worker)")
	}
	p.orderDependent("an AnySource receive")
}

// removePosted unlinks a completed receive from the posted queue; a
// receive matched at post time was never queued, and is left alone.
func (mb *mailbox) removePosted(pr *postedRecv) {
	if !pr.queued {
		return
	}
	if pr.prev != nil {
		pr.prev.next = pr.next
	} else {
		mb.head = pr.next
	}
	if pr.next != nil {
		pr.next.prev = pr.prev
	} else {
		mb.tail = pr.prev
	}
	pr.prev, pr.next, pr.queued = nil, nil, false
}

// completeRecvUnexpected times a receive that found its message already
// queued (sender was first). The sender-visible rendezvous commit follows
// the same cross-group deferral rule as completeMatch; the receiver works
// with its locally computed completion time either way.
func (p *Proc) completeRecvUnexpected(e *envelope) {
	if e.eager {
		p.completeEager(e.srcNode, e.bytes, e.arrival)
		p.stageInterRecv(e)
		return
	}
	p.Stats.Recvs++
	p.Stats.BytesRecv += int64(e.bytes)
	dmaEnd := p.rt.net.RendezvousMatch(
		e.srcNode, p.node, e.bytes, e.rts, e.injEnd, p.clock.Now())
	if p.crossGroup(e.srcNode) {
		p.task.Defer(func() { commitSenderDone(e, dmaEnd) })
	} else {
		commitSenderDone(e, dmaEnd)
	}
	p.elapseComm(p.rendezvousArrival(e, dmaEnd))
	p.stageInterRecv(e)
}

// completeRecvPosted times a receive whose posting preceded the message.
func (p *Proc) completeRecvPosted(pr *postedRecv) {
	e := pr.env
	if e.eager {
		p.completeEager(e.srcNode, e.bytes, e.arrival)
		p.stageInterRecv(e)
		return
	}
	p.Stats.Recvs++
	p.Stats.BytesRecv += int64(e.bytes)
	p.elapseComm(p.rendezvousArrival(e, pr.senderDone))
	p.stageInterRecv(e)
}

// completeEager times the receipt of an eager message of bytes from src
// that reached this rank's NIC at arrival: the message is serialised on the
// ejection link at receive-completion time (intra-node messages have no
// link to serialise on), then the receiving CPU matches and copies it out.
func (p *Proc) completeEager(src *machine.Node, bytes int, arrival vclock.Time) {
	p.Stats.Recvs++
	p.Stats.BytesRecv += int64(bytes)
	if src.ID != p.node.ID {
		arrival = p.rt.net.EagerEject(p.node, bytes, arrival)
	}
	p.elapseComm(arrival)
	p.addComm(p.rt.net.EagerRecvCost(p.node, bytes))
}

// rendezvousArrival serialises a matched rendezvous transfer on this rank's
// ejection link. dmaEnd is the completion time resolved at match, passed by
// value: the envelope's copy may still be in flight to the round barrier
// when the sender sits in another kernel group.
func (p *Proc) rendezvousArrival(e *envelope, dmaEnd vclock.Time) vclock.Time {
	if e.srcNode.ID == p.node.ID {
		return dmaEnd
	}
	return p.rt.net.RendezvousEject(p.node, e.bytes, dmaEnd)
}

// stageInterRecv charges the receiver-side staging copy of
// inter-communicator messages (the non-RDMA spawn-intercomm path).
func (p *Proc) stageInterRecv(e *envelope) {
	if e.interComm && e.bytes > 0 {
		p.addComm(vclock.Time(float64(e.bytes) / (p.rt.cfg.InterCommStagingGBs * 1e9)))
	}
}

// Recv is a blocking receive (MPI_Recv). It returns the message payload and
// its status. src may be AnySource and tag may be AnyTag.
func (p *Proc) Recv(c *Comm, src, tag int) (any, Status) {
	e := p.recvCommon(c, src, tag)
	data, st := e.pl.value(), Status{Source: e.src, Tag: e.tag, Bytes: e.bytes}
	p.releaseEnv(e)
	return data, st
}

// RecvF64Shared is a blocking receive of a []float64 payload, returned by
// reference and unboxed: the caller reads it but must not retain it past the
// sender's reuse point (the shared-buffer contract of IsendF64Shared).
func (p *Proc) RecvF64Shared(c *Comm, src, tag int) ([]float64, Status) {
	e := p.recvCommon(c, src, tag)
	v, st := e.pl.slice(), Status{Source: e.src, Tag: e.tag, Bytes: e.bytes}
	p.releaseEnv(e)
	return v, st
}

// newPR takes a posting record from the rank's free list (or allocates one);
// Wait returns completed records to it.
func (p *Proc) newPR() *postedRecv {
	if n := len(p.prFree); n > 0 {
		pr := p.prFree[n-1]
		p.prFree[n-1] = nil
		p.prFree = p.prFree[:n-1]
		return pr
	}
	return &postedRecv{}
}

// Irecv posts a non-blocking receive (MPI_Irecv); complete it with Wait.
func (p *Proc) Irecv(c *Comm, src, tag int) *Request {
	if src == AnySource {
		p.anySource()
	}
	mb := p.mbox
	req := &Request{p: p, mb: mb}
	pr := p.newPR()
	*pr = postedRecv{commID: c.id, src: src, tag: tag, posted: p.clock.Now()}
	req.pr = pr
	if e := mb.takeUnexpected(c.id, src, tag); e != nil {
		completeMatch(pr, e, p)
		return req
	}
	mb.post(pr)
	return req
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Bytes  int
}

// wait drives the request to completion without extracting a typed body.
func (p *Proc) wait(req *Request) {
	if req.p != p {
		panic("psmpi: waiting on another rank's request")
	}
	if p.rt.trace != nil {
		defer p.record("wait", p.clock.Now())
	}
	if req.isSend {
		p.waitSend(req)
		return
	}
	pr := req.pr
	if req.done {
		return
	}
	if !pr.done {
		pr.waiter = p.task
		p.task.Park()
	}
	req.mb.removePosted(pr)
	p.completeRecvPosted(pr)
	e := pr.env
	req.data = e.pl
	req.status = Status{Source: e.src, Tag: e.tag, Bytes: e.bytes}
	*pr = postedRecv{}
	p.prFree = append(p.prFree, pr)
	req.pr = nil
	p.releaseEnv(e)
	req.done = true
}

// Wait blocks until the request completes (MPI_Wait) and returns the received
// payload and status for receives (nil payload for sends).
func (p *Proc) Wait(req *Request) (any, Status) {
	p.wait(req)
	if req.isSend {
		return nil, Status{}
	}
	return req.data.value(), req.status
}

// WaitF64 is Wait for receives of []float64 payloads, returned by reference
// and unboxed (the shared-buffer contract of IsendF64Shared applies).
func (p *Proc) WaitF64(req *Request) ([]float64, Status) {
	p.wait(req)
	if req.isSend {
		return nil, Status{}
	}
	return req.data.slice(), req.status
}

// Waitall completes all requests (MPI_Waitall).
func (p *Proc) Waitall(reqs ...*Request) {
	for _, r := range reqs {
		if r != nil {
			p.Wait(r)
		}
	}
}

// sendF64Copy implements the copying F64 send flavours: the copy comes from
// the launch's buffer pool and is marked for recycling by its sole consumer
// (RecvF64 returns it to the pool after copying out), so the steady-state
// F64 traffic of a job allocates nothing.
func (p *Proc) sendF64Copy(c *Comm, dst, tag int, buf []float64, mode sendMode, blocking bool) *Request {
	cp := p.getF64(len(buf))
	copy(cp, buf)
	return p.send(c, dst, tag, payload{f64: cp, pooled: true}, 8*len(buf), mode, blocking)
}

// SendF64 copies and sends a []float64 payload; the wire size is 8 bytes per
// element. The copy gives MPI value semantics: the caller may reuse buf
// immediately.
func (p *Proc) SendF64(c *Comm, dst, tag int, buf []float64) {
	p.sendF64Copy(c, dst, tag, buf, modeStandard, true)
}

// IsendF64 is the non-blocking variant of SendF64.
func (p *Proc) IsendF64(c *Comm, dst, tag int, buf []float64) *Request {
	return p.sendF64Copy(c, dst, tag, buf, modeStandard, false)
}

// IssendF64 is the synchronous non-blocking variant of SendF64.
func (p *Proc) IssendF64(c *Comm, dst, tag int, buf []float64) *Request {
	return p.sendF64Copy(c, dst, tag, buf, modeSync, false)
}

// RecvF64 receives a []float64 payload into buf (which must be large enough)
// and returns the element count. Pool-copied payloads (the SendF64 family)
// are recycled here — the receiver is their last reader.
func (p *Proc) RecvF64(c *Comm, src, tag int, buf []float64) (int, Status) {
	e := p.recvCommon(c, src, tag)
	v := e.pl.slice()
	st := Status{Source: e.src, Tag: e.tag, Bytes: e.bytes}
	n := copy(buf, v)
	if n < len(v) {
		panic(fmt.Sprintf("psmpi: receive buffer too small: %d < %d", len(buf), len(v)))
	}
	if e.pl.pooled {
		p.putF64(v)
	}
	p.releaseEnv(e)
	return n, st
}
