package psmpi

// Comm is a communicator: an isolated message-matching context over a group
// of processes. An intra-communicator has only a local group; an
// inter-communicator (produced by Spawn) additionally has a remote group, and
// point-to-point ranks address the remote group, as in MPI.
type Comm struct {
	rt     *Runtime
	id     uint64
	local  []*Proc // the local group, indexed by rank
	remote []*Proc // remote group for inter-communicators, else nil

	// collSeq counts collective invocations per local rank (each rank only
	// touches its own slot). All ranks call the same collectives in the same
	// order, so the counters agree and tag blocks match without any
	// cross-rank coordination.
	collSeq []uint64
	// rvArrived counts the ranks parked in the pending allreduce
	// rendezvous (rendezvous.go).
	rvArrived int
}

// Size returns the number of processes in the local group.
func (c *Comm) Size() int { return len(c.local) }

// RemoteSize returns the number of processes in the remote group (0 for
// intra-communicators).
func (c *Comm) RemoteSize() int { return len(c.remote) }

// IsInter reports whether c is an inter-communicator.
func (c *Comm) IsInter() bool { return c.remote != nil }

// target resolves the destination proc for a p2p operation: rank addresses
// the remote group on an inter-communicator, the local group otherwise.
func (c *Comm) target(rank int) *Proc {
	grp := c.local
	if c.IsInter() {
		grp = c.remote
	}
	if rank < 0 || rank >= len(grp) {
		panic("psmpi: destination rank out of range")
	}
	return grp[rank]
}
