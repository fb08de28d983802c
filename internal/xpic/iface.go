package xpic

import (
	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
)

// Interface buffers (Fig. 5 of the paper): the field solver and the particle
// solver do not touch each other's data structures; they communicate through
// flat pack/unpack buffers. In mono mode the buffer stays in memory (the
// cpyToArr/cpyFromArr calls of Listing 1); in Cluster-Booster mode the same
// buffers are the payload of the inter-communicator messages (Listings 2–4).

// packFields serialises the local real rows of the named fields into one
// flat buffer and charges the copy cost (cpyToArr).
func packFields(p *psmpi.Proc, g *Grid, names []Field) []float64 {
	span := g.NX * g.LY // the real rows are contiguous: [NX, NX·(LY+1))
	buf := make([]float64, len(names)*span)
	for i, name := range names {
		copy(buf[i*span:(i+1)*span], g.F(name)[g.NX:g.NX+span])
	}
	p.Compute(machine.Work{Class: machine.KernelStream, Bytes: float64(8 * len(buf))})
	return buf
}

// unpackFields deserialises a flat buffer into the local real rows of the
// named fields and charges the copy cost (cpyFromArr).
func unpackFields(p *psmpi.Proc, g *Grid, names []Field, buf []float64) {
	span := g.NX * g.LY
	i := 0
	for _, name := range names {
		copy(g.F(name)[g.NX:g.NX+span], buf[i:i+span])
		i += span
	}
	p.Compute(machine.Work{Class: machine.KernelStream, Bytes: float64(8 * i)})
}
