package xpic

import (
	"encoding/binary"
	"fmt"
	"testing"

	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/vclock"
)

// memStore is a zero-cost in-memory CheckpointStore for tests: snapshots by
// (step, rank), restarts served from loadStep.
type memStore struct {
	saves     map[int]map[int][]byte
	completed []int
	loadStep  int
	loads     int
}

func newMemStore() *memStore { return &memStore{saves: map[int]map[int][]byte{}} }

func (m *memStore) Save(p *psmpi.Proc, rank, step int, data []byte) error {
	if m.saves[step] == nil {
		m.saves[step] = map[int][]byte{}
	}
	m.saves[step][rank] = append([]byte(nil), data...)
	return nil
}

func (m *memStore) Complete(p *psmpi.Proc, step int) error {
	m.completed = append(m.completed, step)
	return nil
}

func (m *memStore) Load(p *psmpi.Proc, rank int) ([]byte, error) {
	m.loads++
	data, ok := m.saves[m.loadStep][rank]
	if !ok {
		return nil, fmt.Errorf("memstore: no snapshot for step %d rank %d", m.loadStep, rank)
	}
	return data, nil
}

// TestResilientMonoMatchesRunMono checks that a resilient run without
// checkpoints or failures reproduces RunMono bit-for-bit.
func TestResilientMonoMatchesRunMono(t *testing.T) {
	cfg := QuickConfig(6)
	rt1 := newRuntime(2, 0)
	plain, err := RunMono(rt1, clusterNodes(rt1, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := newRuntime(2, 0)
	res, err := RunResilient(rt2, ResilientSpec{
		Mode: ClusterOnly, Nodes: clusterNodes(rt2, 2), RanksPerSolver: 2, Cfg: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain != res {
		t.Fatalf("resilient run drifted from RunMono:\n plain %+v\n resil %+v", plain, res)
	}
}

// TestResilientMonoRestartEquivalence checkpoints a mono run, replays the
// tail from the last checkpoint on a fresh system, and requires identical
// physics — and a makespan that starts where the restart attempt began.
func TestResilientMonoRestartEquivalence(t *testing.T) {
	cfg := QuickConfig(9)
	store := newMemStore()

	rt1 := newRuntime(2, 0)
	full, err := RunResilient(rt1, ResilientSpec{
		Mode: ClusterOnly, Nodes: clusterNodes(rt1, 2), RanksPerSolver: 2, Cfg: cfg,
		CheckpointEvery: 3, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(store.saves[3]) != 2 || len(store.saves[6]) != 2 || store.saves[9] != nil {
		t.Fatalf("checkpoint cadence wrong: saved steps %v", store.completed)
	}

	// Restart from step 6 on a fresh system, as a post-failure attempt would.
	store.loadStep = 6
	const resumeAt = 123 * vclock.Second
	rt2 := newRuntime(2, 0)
	tail, err := RunResilient(rt2, ResilientSpec{
		Mode: ClusterOnly, Nodes: clusterNodes(rt2, 2), RanksPerSolver: 2, Cfg: cfg,
		CheckpointEvery: 3, Store: store, StartStep: 6, StartTime: resumeAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if store.loads != 2 {
		t.Fatalf("loads = %d, want one per rank", store.loads)
	}
	if tail.Checksum != full.Checksum || tail.KineticEnergy != full.KineticEnergy {
		t.Fatalf("restarted physics drifted: %+v vs %+v", tail, full)
	}
	if tail.Makespan <= resumeAt {
		t.Fatalf("restart makespan %v not past its start time %v", tail.Makespan, resumeAt)
	}
	if grew := tail.Makespan - resumeAt; grew >= full.Makespan {
		t.Fatalf("3-step tail (%v) not shorter than the 9-step run (%v)", grew, full.Makespan)
	}
}

// TestResilientSplitRestartEquivalence is the same replay check for the
// C+B mode: both solver sides checkpoint and restore at the same step.
func TestResilientSplitRestartEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("split replay is seconds-scale")
	}
	cfg := QuickConfig(6)
	store := newMemStore()

	rt1 := newRuntime(2, 2)
	full, err := RunResilient(rt1, ResilientSpec{
		Mode: SplitCB, Nodes: boosterNodes(rt1, 2), RanksPerSolver: 2, Cfg: cfg,
		CheckpointEvery: 2, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both sides save: 2 booster ranks (0,1) + 2 cluster ranks (2,3).
	if len(store.saves[4]) != 4 {
		t.Fatalf("split checkpoint of step 4 covers %d ranks, want 4", len(store.saves[4]))
	}

	store.loadStep = 4
	rt2 := newRuntime(2, 2)
	tail, err := RunResilient(rt2, ResilientSpec{
		Mode: SplitCB, Nodes: boosterNodes(rt2, 2), RanksPerSolver: 2, Cfg: cfg,
		CheckpointEvery: 2, Store: store, StartStep: 4, StartTime: 10 * vclock.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tail.Checksum != full.Checksum || tail.KineticEnergy != full.KineticEnergy ||
		tail.FieldEnergy != full.FieldEnergy {
		t.Fatalf("restarted split physics drifted:\n full %+v\n tail %+v", full, tail)
	}
}

// TestDecodersRejectHugeLength corrupts a snapshot's length field with a
// value whose byte size overflows int: the decoders must return the corrupt-
// snapshot error, not panic allocating.
func TestDecodersRejectHugeLength(t *testing.T) {
	g := NewGrid(8, 8, 0, 1)
	snap := snapGrid(g, gridState, 3)
	// Layout: magic(4) version(4) step(8) nNames(8), then the first array's
	// length at offset 24.
	corrupt := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint64(corrupt[24:], 1<<60)
	if _, err := restoreGrid(g, gridState, corrupt); err == nil {
		t.Fatal("huge length field accepted by restoreGrid")
	}

	pcl := NewParticleSolver(g, QuickConfig(1))
	psnap := snapParticles(pcl, 3)
	// Layout: magic(4) version(4) step(8) nSpecies(8) Q(8), then species 0's
	// X length at offset 32.
	corrupt = append([]byte(nil), psnap...)
	binary.LittleEndian.PutUint64(corrupt[32:], 1<<60)
	if _, err := restoreParticles(pcl, corrupt); err == nil {
		t.Fatal("huge length field accepted by restoreParticles")
	}
}

// TestResilientFailureAborts arms an aggressive injector and checks the run
// dies with a recoverable NodeFailure.
func TestResilientFailureAborts(t *testing.T) {
	cfg := QuickConfig(50)
	rt := newRuntime(2, 0)
	nodes := clusterNodes(rt, 2)
	inj := psmpi.NewFailureInjector(40*vclock.Millisecond, 11, 1, nodes)
	_, err := RunResilient(rt, ResilientSpec{
		Mode: ClusterOnly, Nodes: nodes, RanksPerSolver: 2, Cfg: cfg,
		CheckpointEvery: 5, Store: newMemStore(),
		Failures: inj,
	})
	if err == nil {
		t.Fatal("run survived an aggressive injector")
	}
	if _, ok := psmpi.FailureOf(err); !ok {
		t.Fatalf("no NodeFailure in %v", err)
	}
}
