package psmpi

import "fmt"

// Collective operations, built on top of the timed point-to-point layer with
// the standard algorithms (dissemination barrier, binomial trees, ring
// allgather, pairwise alltoall), so that their virtual-time cost emerges from
// the fabric model rather than being postulated.
//
// As in MPI, all members of the communicator must call the same collectives
// in the same order. Collectives are not supported on inter-communicators.

// Op is a reduction operator over float64.
type Op int

const (
	// OpSum adds elementwise.
	OpSum Op = iota
	// OpMax takes the elementwise maximum.
	OpMax
	// OpMin takes the elementwise minimum.
	OpMin
)

func (o Op) apply(dst, src []float64) {
	switch o {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("psmpi: unknown op %d", int(o)))
	}
}

// collTag reserves a fresh tag block for one collective invocation on comm.
// Every rank calls collectives in the same order (an MPI requirement), so the
// per-rank sequence counters agree across ranks without synchronisation.
func (p *Proc) collTag(c *Comm) int {
	if c.IsInter() {
		panic("psmpi: collectives on inter-communicators are not supported")
	}
	if c.Size() > collTagBlock {
		panic(fmt.Sprintf("psmpi: communicator size %d exceeds collective tag block %d", c.Size(), collTagBlock))
	}
	me := p.rankIn(c)
	seq := c.collSeq[me]
	c.collSeq[me] = seq + 1
	return MaxUserTag + int(seq)*collTagBlock
}

// collTagBlock is the number of reserved tags per collective invocation; it
// bounds the number of internal rounds/steps a single collective may use —
// and with them the largest communicator (the ring allgather uses one tag
// per step, so size <= block). 65536 admits the fig8-scale16384 jobs and
// the n=65536 deep-scale test point. Tag values only ever matter for
// matching, so the block size has no timing effect.
const collTagBlock = 1 << 16

// Barrier synchronises all ranks of the communicator (dissemination
// algorithm: ⌈log2 p⌉ rounds of zero-byte messages). On return every rank's
// clock is at least the maximum pre-barrier clock plus the network rounds.
func (p *Proc) Barrier(c *Comm) {
	p.Stats.Collectives++
	base := p.collTag(c)
	me := p.rankIn(c)
	n := c.Size()
	for k, round := 1, 0; k < n; k, round = k<<1, round+1 {
		dst := (me + k) % n
		src := (me - k + n) % n
		req := p.sendTagged(c, dst, base+round, payload{}, 0, modeStandard, false)
		p.recvTagged(c, src, base+round)
		p.wait(req)
	}
}

// recvTagged is Recv for internal (reserved-tag) traffic; it returns the
// body unboxed.
func (p *Proc) recvTagged(c *Comm, src, tag int) payload {
	e := p.recvCommon(c, src, tag)
	pl := e.pl
	p.releaseEnv(e)
	return pl
}

// bcastTree walks the binomial broadcast tree for this rank: receive once
// from the parent (every rank but the root has exactly one), then forward
// down the subtree in decreasing-mask order. Both broadcast flavours share
// this traversal so the tree topology cannot diverge between them; only the
// payload handling differs.
func (p *Proc) bcastTree(c *Comm, root int, recv func(src int), forward func(dst int)) {
	me := p.rankIn(c)
	n := c.Size()
	rel := (me - root + n) % n

	mask := 1
	for mask < n {
		if rel&mask != 0 {
			recv((rel - mask + root + n) % n)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			forward((rel + mask + root) % n)
		}
		mask >>= 1
	}
}

// Bcast broadcasts data (of the given wire size) from root to all ranks using
// a binomial tree, and returns the value each rank ends up with.
func (p *Proc) Bcast(c *Comm, root int, data any, bytes int) any {
	p.Stats.Collectives++
	base := p.collTag(c)
	p.bcastTree(c, root,
		func(src int) { data = p.recvTagged(c, src, base).value() },
		func(dst int) { p.sendTagged(c, dst, base, payload{val: data}, bytes, modeStandard, true) })
	return data
}

// BcastF64 broadcasts a float64 slice from root; every rank receives a copy
// into buf (root's buf is the source). One pristine copy of root's buf — a
// rank's own buf may be rewritten the moment the collective returns, so the
// in-flight tree cannot share it — travels the whole binomial tree unboxed
// and by reference; the single allocation per broadcast is that copy.
func (p *Proc) BcastF64(c *Comm, root int, buf []float64) {
	p.Stats.Collectives++
	base := p.collTag(c)
	var blk []float64
	if p.rankIn(c) == root {
		blk = append([]float64(nil), buf...)
	}
	p.bcastTree(c, root,
		func(src int) {
			blk = p.recvTagged(c, src, base).slice()
			copy(buf, blk)
		},
		func(dst int) { p.sendTagged(c, dst, base, payload{f64: blk}, 8*len(blk), modeStandard, true) })
}

// ReduceF64 reduces buf elementwise onto root with op (binomial tree). On
// root, buf holds the result afterwards; on other ranks buf is untouched.
// The accumulators travel rank to rank inside the collective and die at the
// receiving end, so they come from the launch's buffer pool: a sent
// accumulator is recycled by its receiver after the reduction step, the
// root's after the final copy-out.
func (p *Proc) ReduceF64(c *Comm, root int, buf []float64, op Op) {
	p.Stats.Collectives++
	base := p.collTag(c)
	me := p.rankIn(c)
	n := c.Size()
	rel := (me - root + n) % n

	acc := p.getF64(len(buf))
	copy(acc, buf)
	sent := false
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < n {
				src := (srcRel + root) % n
				part := p.recvTagged(c, src, base).slice()
				op.apply(acc, part)
				p.putF64(part)
			}
		} else {
			dstRel := rel &^ mask
			dst := (dstRel + root) % n
			p.sendTagged(c, dst, base, payload{f64: acc}, 8*len(acc), modeStandard, true)
			sent = true
			break
		}
	}
	if me == root {
		copy(buf, acc)
	}
	if !sent {
		p.putF64(acc)
	}
}

// AllreduceF64 reduces buf elementwise across all ranks and leaves the result
// in every rank's buf (reduce-to-0 + broadcast; 2⌈log2 p⌉ rounds). On an
// order-free launch an eager-sized buffer takes the collective rendezvous
// instead, with identical results, clocks and statistics (rendezvous.go).
func (p *Proc) AllreduceF64(c *Comm, buf []float64, op Op) {
	if p.rendezvousAllreduce(c, buf) {
		p.allreduceRendezvous(c, buf, op)
		return
	}
	p.ReduceF64(c, 0, buf, op)
	p.BcastF64(c, 0, buf)
}

// AllreduceScalar reduces a single float64 across the communicator. The
// one-element working buffer is a per-rank scratch: the collectives below
// only read it (and write the result back), never retain it.
func (p *Proc) AllreduceScalar(c *Comm, v float64, op Op) float64 {
	if p.scalarBuf == nil {
		p.scalarBuf = make([]float64, 1)
	}
	buf := p.scalarBuf
	buf[0] = v
	p.AllreduceF64(c, buf, op)
	return buf[0]
}

// GatherF64 gathers each rank's buf (equal lengths) onto root. On root the
// returned slice is the concatenation in rank order; other ranks get nil.
func (p *Proc) GatherF64(c *Comm, root int, buf []float64) []float64 {
	p.Stats.Collectives++
	base := p.collTag(c)
	me := p.rankIn(c)
	n := c.Size()
	if me != root {
		cp := p.getF64(len(buf))
		copy(cp, buf)
		p.sendTagged(c, root, base, payload{f64: cp, pooled: true}, 8*len(buf), modeStandard, true)
		return nil
	}
	out := make([]float64, len(buf)*n)
	reqs := make([]*Request, n)
	for r := 0; r < n; r++ {
		if r == me {
			copy(out[r*len(buf):], buf)
			continue
		}
		reqs[r] = p.Irecv(c, r, base)
	}
	for r := 0; r < n; r++ {
		if reqs[r] == nil {
			continue
		}
		data, _ := p.WaitF64(reqs[r])
		copy(out[r*len(buf):], data)
		if reqs[r].data.pooled {
			p.putF64(data)
		}
	}
	return out
}

// ScatterF64 scatters equal chunks of root's data to all ranks; each rank
// receives its chunk of the given length into buf.
func (p *Proc) ScatterF64(c *Comm, root int, data []float64, buf []float64) {
	p.Stats.Collectives++
	base := p.collTag(c)
	me := p.rankIn(c)
	n := c.Size()
	chunk := len(buf)
	if me == root {
		if len(data) != chunk*n {
			panic(fmt.Sprintf("psmpi: scatter size mismatch: %d != %d×%d", len(data), chunk, n))
		}
		reqs := make([]*Request, 0, n-1)
		for r := 0; r < n; r++ {
			if r == me {
				copy(buf, data[r*chunk:(r+1)*chunk])
				continue
			}
			part := p.getF64(chunk)
			copy(part, data[r*chunk:(r+1)*chunk])
			reqs = append(reqs, p.sendTagged(c, r, base, payload{f64: part, pooled: true}, 8*chunk, modeStandard, false))
		}
		p.Waitall(reqs...)
		return
	}
	pl := p.recvTagged(c, root, base)
	copy(buf, pl.slice())
	if pl.pooled {
		p.putF64(pl.f64)
	}
}

// AllgatherF64 gathers equal-length contributions from all ranks to all
// ranks using the ring algorithm (p−1 steps, each forwarding one block).
func (p *Proc) AllgatherF64(c *Comm, buf []float64) []float64 {
	p.Stats.Collectives++
	base := p.collTag(c)
	me := p.rankIn(c)
	n := c.Size()
	chunk := len(buf)
	out := make([]float64, chunk*n)
	copy(out[me*chunk:], buf)

	right := (me + 1) % n
	left := (me - 1 + n) % n
	cur := me
	for step := 0; step < n-1; step++ {
		block := p.getF64(chunk)
		copy(block, out[cur*chunk:(cur+1)*chunk])
		req := p.sendTagged(c, right, base+step, payload{f64: block, pooled: true}, 8*chunk, modeStandard, false)
		in := p.recvTagged(c, left, base+step)
		cur = (cur - 1 + n) % n
		copy(out[cur*chunk:], in.slice())
		if in.pooled {
			p.putF64(in.f64)
		}
		p.wait(req)
	}
	return out
}

// AlltoallF64 exchanges chunk i of each rank's data with rank i (pairwise
// exchange). data must have length chunk×p; the result likewise.
func (p *Proc) AlltoallF64(c *Comm, data []float64, chunk int) []float64 {
	p.Stats.Collectives++
	base := p.collTag(c)
	me := p.rankIn(c)
	n := c.Size()
	if len(data) != chunk*n {
		panic(fmt.Sprintf("psmpi: alltoall size mismatch: %d != %d×%d", len(data), chunk, n))
	}
	out := make([]float64, chunk*n)
	copy(out[me*chunk:], data[me*chunk:(me+1)*chunk])
	for k := 1; k < n; k++ {
		dst := (me + k) % n
		src := (me - k + n) % n
		block := p.getF64(chunk)
		copy(block, data[dst*chunk:(dst+1)*chunk])
		req := p.sendTagged(c, dst, base+k, payload{f64: block, pooled: true}, 8*chunk, modeStandard, false)
		in := p.recvTagged(c, src, base+k)
		copy(out[src*chunk:], in.slice())
		if in.pooled {
			p.putF64(in.f64)
		}
		p.wait(req)
	}
	return out
}
