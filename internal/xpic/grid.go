package xpic

import (
	"clusterbooster/internal/psmpi"
)

// Grid is one rank's slab of the global 2-D periodic grid: rows are
// decomposed over the ranks of a solver communicator; each local array has
// one ghost row below (index 0) and one above (index ly+1).
type Grid struct {
	NX     int // global (and local) columns
	NY     int // global rows
	LY     int // local real rows (NY / ranks)
	Rank   int // slab index
	Ranks  int // slabs
	Y0     int // first global row of this slab
	fields [numFields][]float64
}

// Field indexes one array of a slab: a field or a moment component.
type Field int

// The arrays of a slab, fields first, then moments.
const (
	FEx Field = iota
	FEy
	FEz
	FBx
	FBy
	FBz
	FRho
	FJx
	FJy
	FJz
	// FRhoE is the electron charge-density magnitude, the moment the
	// implicit-moment field solver needs to assemble the plasma
	// susceptibility of its implicit operator.
	FRhoE
	numFields
)

var fieldNames = [numFields]string{"Ex", "Ey", "Ez", "Bx", "By", "Bz", "Rho", "Jx", "Jy", "Jz", "RhoE"}

// String names the array.
func (f Field) String() string { return fieldNames[f] }

// FieldNames lists the electromagnetic field components.
var FieldNames = []Field{FEx, FEy, FEz, FBx, FBy, FBz}

// MomentNames lists the particle-moment components shipped from the particle
// solver to the field solver (the ρ,J of Fig. 5, plus the electron density
// for the susceptibility assembly).
var MomentNames = []Field{FRho, FJx, FJy, FJz, FRhoE}

// gridState lists every array of a slab, fields then moments: the layout of
// the checkpoint snapshots.
var gridState = append(append([]Field(nil), FieldNames...), MomentNames...)

// NewGrid builds the slab for the given rank.
func NewGrid(nx, ny, rank, ranks int) *Grid {
	ly := ny / ranks
	g := &Grid{
		NX: nx, NY: ny, LY: ly,
		Rank: rank, Ranks: ranks, Y0: rank * ly,
	}
	for f := range g.fields {
		g.fields[f] = make([]float64, nx*(ly+2))
	}
	return g
}

// F returns the named field array (with ghost rows).
func (g *Grid) F(name Field) []float64 { return g.fields[name] }

// Idx converts local coordinates (ix in [0,NX), iy in [0, LY+2)) to the array
// index; iy=0 and iy=LY+1 are the ghost rows.
func (g *Grid) Idx(ix, iy int) int { return iy*g.NX + ix }

// WrapX wraps a column index periodically.
func (g *Grid) WrapX(ix int) int {
	ix %= g.NX
	if ix < 0 {
		ix += g.NX
	}
	return ix
}

// Row returns a copy of row iy of the named field (real row indices 1..LY,
// ghosts 0 and LY+1).
func (g *Grid) Row(name Field, iy int) []float64 {
	a := g.F(name)
	out := make([]float64, g.NX)
	copy(out, a[g.Idx(0, iy):g.Idx(0, iy)+g.NX])
	return out
}

// SetRow overwrites row iy of the named field.
func (g *Grid) SetRow(name Field, iy int, row []float64) {
	a := g.F(name)
	copy(a[g.Idx(0, iy):g.Idx(0, iy)+g.NX], row)
}

// AddRow accumulates into row iy of the named field.
func (g *Grid) AddRow(name Field, iy int, row []float64) {
	a := g.F(name)
	base := g.Idx(0, iy)
	for i, v := range row {
		a[base+i] += v
	}
}

// ClearGhosts zeroes the ghost rows of the named fields.
func (g *Grid) ClearGhosts(names ...Field) {
	for _, name := range names {
		a := g.F(name)
		for ix := 0; ix < g.NX; ix++ {
			a[g.Idx(ix, 0)] = 0
			a[g.Idx(ix, g.LY+1)] = 0
		}
	}
}

// Zero clears the named fields entirely (ghosts included).
func (g *Grid) Zero(names ...Field) {
	for _, name := range names {
		a := g.F(name)
		for i := range a {
			a[i] = 0
		}
	}
}

// Halo communication tags (user tag space).
const (
	tagHaloUp   = 1 // payload travelling towards higher slab index
	tagHaloDown = 2
	tagMomUp    = 3
	tagMomDown  = 4
	tagPartUp   = 5
	tagPartDown = 6
	tagPartCnt  = 7
	tagIfaceF   = 8 // interface buffer: fields Cluster → Booster
	tagIfaceM   = 9 // interface buffer: moments Booster → Cluster
)

// up/down neighbours in the periodic slab ring.
func (g *Grid) up() int   { return (g.Rank + 1) % g.Ranks }
func (g *Grid) down() int { return (g.Rank - 1 + g.Ranks) % g.Ranks }

// ExchangeHalos fills the ghost rows of the named fields from the
// neighbouring slabs (periodic): ghost 0 receives the neighbour-below's top
// row, ghost LY+1 the neighbour-above's bottom row. All components are packed
// into one message per direction, as the real code does.
//
// p is the calling rank's process and comm the solver communicator; with one
// rank the exchange degenerates to a local periodic copy.
func (g *Grid) ExchangeHalos(p *psmpi.Proc, comm *psmpi.Comm, names ...Field) {
	nx := g.NX
	if g.Ranks == 1 {
		for _, name := range names {
			a := g.F(name)
			copy(a[:nx], a[g.LY*nx:(g.LY+1)*nx])
			copy(a[(g.LY+1)*nx:(g.LY+2)*nx], a[nx:2*nx])
		}
		return
	}
	// pack copies row iy of every named field into one fresh buffer; the
	// buffer is handed to Isend directly (never reused), so no further
	// value-semantics copy is needed.
	pack := func(iy int) []float64 {
		buf := make([]float64, len(names)*nx)
		for i, name := range names {
			copy(buf[i*nx:(i+1)*nx], g.F(name)[iy*nx:(iy+1)*nx])
		}
		return buf
	}
	unpack := func(iy int, buf []float64) {
		for i, name := range names {
			g.SetRow(name, iy, buf[i*nx:(i+1)*nx])
		}
	}
	// Top real row travels up (becomes up-neighbour's ghost 0);
	// bottom real row travels down (becomes down-neighbour's ghost LY+1).
	bufUp, bufDn := pack(g.LY), pack(1)
	reqUp := p.IsendF64Shared(comm, g.up(), tagHaloUp, bufUp)
	reqDn := p.IsendF64Shared(comm, g.down(), tagHaloDown, bufDn)
	fromDn, _ := p.RecvF64Shared(comm, g.down(), tagHaloUp)
	unpack(0, fromDn)
	fromUp, _ := p.RecvF64Shared(comm, g.up(), tagHaloDown)
	unpack(g.LY+1, fromUp)
	p.Waitall(reqUp, reqDn)
}

// ReduceMomentHalos sends the deposits accumulated in the ghost rows to the
// neighbours that own those rows, where they are added to the boundary real
// rows, and clears the ghosts — the "halo add" step after moment gathering.
func (g *Grid) ReduceMomentHalos(p *psmpi.Proc, comm *psmpi.Comm) {
	names := MomentNames
	if g.Ranks == 1 {
		for _, name := range names {
			g.AddRow(name, g.LY, g.Row(name, 0))
			g.AddRow(name, 1, g.Row(name, g.LY+1))
		}
		g.ClearGhosts(names...)
		return
	}
	pack := func(iy int) []float64 {
		buf := make([]float64, len(names)*g.NX)
		for i, name := range names {
			copy(buf[i*g.NX:(i+1)*g.NX], g.F(name)[iy*g.NX:(iy+1)*g.NX])
		}
		return buf
	}
	// Ghost LY+1 holds deposits belonging to the up-neighbour's row 1;
	// ghost 0 belongs to the down-neighbour's row LY.
	bufUp, bufDn := pack(g.LY+1), pack(0)
	reqUp := p.IsendF64Shared(comm, g.up(), tagMomUp, bufUp)
	reqDn := p.IsendF64Shared(comm, g.down(), tagMomDown, bufDn)
	fromDn, _ := p.RecvF64Shared(comm, g.down(), tagMomUp)
	buf := fromDn
	for i, name := range names {
		g.AddRow(name, 1, buf[i*g.NX:(i+1)*g.NX])
	}
	fromUp, _ := p.RecvF64Shared(comm, g.up(), tagMomDown)
	buf = fromUp
	for i, name := range names {
		g.AddRow(name, g.LY, buf[i*g.NX:(i+1)*g.NX])
	}
	p.Waitall(reqUp, reqDn)
	g.ClearGhosts(names...)
}
