package xpic

import (
	"encoding/binary"
	"fmt"
	"math"

	"clusterbooster/internal/psmpi"
)

// Sim is one rank's xPic state in mono mode: grid, both solvers and the loop
// position. It exposes single-stepping and binary snapshot/restore, which is
// what the SCR checkpoint integration and the resilience experiments build
// on (§III-D: "the data required by the application to restart execution").
type Sim struct {
	Cfg Config
	G   *Grid
	Fld *FieldSolver
	Pcl *ParticleSolver

	Step    int
	T       Times
	CGIters int
	FieldE  float64
	KinE    float64
}

// NewSim builds the rank-local simulation state for rank p of comm.
func NewSim(p *psmpi.Proc, comm *psmpi.Comm, cfg Config) *Sim {
	g := NewGrid(cfg.NX, cfg.NY, p.Rank(), comm.Size())
	return &Sim{
		Cfg: cfg,
		G:   g,
		Fld: NewFieldSolver(g, cfg),
		Pcl: NewParticleSolver(g, cfg),
	}
}

// Advance executes one Listing-1 iteration (calculateE, interface copies,
// particle move + moments, calculateB, periodic diagnostics).
func (s *Sim) Advance(p *psmpi.Proc, comm *psmpi.Comm) {
	cfg := s.Cfg
	phase(p, &s.T.Field, func() { s.Fld.SolveE(p, comm) })
	s.CGIters += s.Fld.LastIters

	phase(p, &s.T.Exchange, func() {
		buf := packFields(p, s.G, FieldNames)
		unpackFields(p, s.G, FieldNames, buf)
	})

	phase(p, &s.T.Particle, func() {
		s.Pcl.Move(p)
		s.Pcl.Migrate(p, comm)
		s.Pcl.Gather(p)
		s.G.ReduceMomentHalos(p, comm)
	})

	phase(p, &s.T.Exchange, func() {
		buf := packFields(p, s.G, MomentNames)
		unpackFields(p, s.G, MomentNames, buf)
	})

	phase(p, &s.T.Field, func() { s.Fld.SolveB(p, comm) })

	if s.Step%cfg.DiagEvery == 0 {
		phase(p, &s.T.Aux, func() {
			s.FieldE = p.AllreduceScalar(comm, s.Fld.FieldEnergy(p), psmpi.OpSum)
			s.KinE = p.AllreduceScalar(comm, s.Pcl.KineticEnergy(p), psmpi.OpSum)
		})
	}
	s.Step++
}

// snapshot format magic/version.
const (
	snapMagic   = uint32(0x78504943) // "xPIC"
	snapVersion = uint32(1)
)

// Snapshot serialises this rank's full physics state (step, fields, moments,
// particles) — the checkpoint payload.
func (s *Sim) Snapshot() []byte {
	var out []byte
	var b8 [8]byte
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b8[:4], v)
		out = append(out, b8[:4]...)
	}
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		out = append(out, b8[:]...)
	}
	putF64s := func(a []float64) {
		putU64(uint64(len(a)))
		for _, v := range a {
			putU64(math.Float64bits(v))
		}
	}
	putU32(snapMagic)
	putU32(snapVersion)
	putU64(uint64(s.Step))
	putU64(uint64(len(gridState)))
	for _, name := range gridState {
		putF64s(s.G.F(name))
	}
	putU64(uint64(len(s.Pcl.Species)))
	for _, sp := range s.Pcl.Species {
		putU64(math.Float64bits(sp.Q))
		putF64s(sp.X)
		putF64s(sp.Y)
		putF64s(sp.VX)
		putF64s(sp.VY)
		putF64s(sp.VZ)
	}
	return out
}

// Restore loads a snapshot produced by Snapshot on a Sim with the same
// configuration and decomposition.
func (s *Sim) Restore(data []byte) error {
	pos := 0
	fail := func(what string) error {
		return fmt.Errorf("xpic: corrupt snapshot (%s at offset %d)", what, pos)
	}
	getU32 := func() (uint32, bool) {
		if pos+4 > len(data) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		return v, true
	}
	getU64 := func() (uint64, bool) {
		if pos+8 > len(data) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(data[pos:])
		pos += 8
		return v, true
	}
	getF64s := func() ([]float64, bool) {
		n, ok := getU64()
		// Divide the remaining bytes rather than multiplying the length: a
		// corrupt length field must fail the check, not overflow past it.
		if !ok || n > uint64((len(data)-pos)/8) {
			return nil, false
		}
		out := make([]float64, n)
		for i := range out {
			v, _ := getU64()
			out[i] = math.Float64frombits(v)
		}
		return out, true
	}
	if m, ok := getU32(); !ok || m != snapMagic {
		return fail("magic")
	}
	if v, ok := getU32(); !ok || v != snapVersion {
		return fail("version")
	}
	step, ok := getU64()
	if !ok {
		return fail("step")
	}
	s.Step = int(step)
	nNames, ok := getU64()
	if !ok || int(nNames) != len(gridState) {
		return fail("field count")
	}
	for _, name := range gridState {
		a, ok := getF64s()
		if !ok || len(a) != len(s.G.F(name)) {
			return fail("field " + name.String())
		}
		copy(s.G.F(name), a)
	}
	nSpec, ok := getU64()
	if !ok || int(nSpec) != len(s.Pcl.Species) {
		return fail("species count")
	}
	for _, sp := range s.Pcl.Species {
		q, ok := getU64()
		if !ok {
			return fail("charge")
		}
		sp.Q = math.Float64frombits(q)
		if sp.X, ok = getF64s(); !ok {
			return fail("X")
		}
		if sp.Y, ok = getF64s(); !ok {
			return fail("Y")
		}
		if sp.VX, ok = getF64s(); !ok {
			return fail("VX")
		}
		if sp.VY, ok = getF64s(); !ok {
			return fail("VY")
		}
		if sp.VZ, ok = getF64s(); !ok {
			return fail("VZ")
		}
	}
	return nil
}

// Checksum returns the deterministic physics fingerprint of this rank.
func (s *Sim) Checksum() float64 { return checksum(s.Pcl) }
