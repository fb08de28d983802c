package psmpi

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// mixedNodes returns n distinct nodes alternating Cluster and Booster, so
// the allreduce trees cross node types (different CPU and copy costs).
func mixedNodes(rt *Runtime, n int) []*machine.Node {
	cl, bo := rt.System().Module(machine.Cluster), rt.System().Module(machine.Booster)
	nodes := make([]*machine.Node, 0, n)
	for i := 0; len(nodes) < n; i++ {
		if i < len(cl) {
			nodes = append(nodes, cl[i])
		}
		if i < len(bo) && len(nodes) < n {
			nodes = append(nodes, bo[i])
		}
	}
	return nodes
}

// allreduceRun is what one allreduce job leaves behind: every rank's
// results (as bits), clocks and statistics, and the trace.
type allreduceRun struct {
	results [][]uint64
	ranks   []RankResult
	trace   []TraceEvent
	engine  struct{ parks, events uint64 }
}

// allreduceJob describes one randomised allreduce job.
type allreduceJob struct {
	ranks    int
	elems    int
	op       Op
	seed     int64
	kworkers int
	trace    bool
}

// run executes the job: per-rank compute drawn from the seed, then an
// AllreduceF64, a message-path Barrier, more compute and an
// AllreduceScalar. With messagePath set, every allreduce takes the tree.
func (j allreduceJob) run(t *testing.T, messagePath bool) allreduceRun {
	t.Helper()
	rt := testRuntime(j.ranks/2+1, j.ranks/2+1)
	if j.trace {
		rt.EnableTracing()
	}
	out := allreduceRun{results: make([][]uint64, j.ranks)}
	main := func(p *Proc) error {
		rng := rand.New(rand.NewSource(j.seed + int64(p.Rank())))
		w := p.World()
		buf := make([]float64, j.elems)
		for i := range buf {
			buf[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		}
		p.Compute(machine.Work{Class: machine.KernelParticle, Flops: rng.Float64() * 1e7})
		p.AllreduceF64(w, buf, j.op)
		p.Barrier(w)
		p.Compute(machine.Work{Class: machine.KernelFieldSolver, Flops: rng.Float64() * 1e6})
		s := p.AllreduceScalar(w, rng.Float64(), j.op)
		for _, v := range append(buf, s) {
			out.results[p.Rank()] = append(out.results[p.Rank()], math.Float64bits(v))
		}
		return nil
	}
	spec := LaunchSpec{Nodes: mixedNodes(rt, j.ranks), Main: main, KernelWorkers: j.kworkers, OrderFree: true}
	if messagePath {
		defer ForceMessagePath()()
	}
	res, err := rt.Launch(spec)
	if err != nil {
		t.Fatalf("job %+v: %v", j, err)
	}
	out.ranks = res.Ranks
	out.trace = rt.TraceEvents()
	out.engine.parks, out.engine.events = res.Engine.Parks, res.Engine.Events
	return out
}

// compare fails the test on any difference in results, clocks, statistics
// or trace between the two runs.
func compareRuns(t *testing.T, j allreduceJob, fast, msg allreduceRun) {
	t.Helper()
	if !reflect.DeepEqual(fast.results, msg.results) {
		t.Fatalf("job %+v: results differ:\nrendezvous %v\nmessage    %v", j, fast.results, msg.results)
	}
	if !reflect.DeepEqual(fast.ranks, msg.ranks) {
		t.Fatalf("job %+v: rank clocks or stats differ:\nrendezvous %+v\nmessage    %+v", j, fast.ranks, msg.ranks)
	}
	if !reflect.DeepEqual(fast.trace, msg.trace) {
		t.Fatalf("job %+v: traces differ (%d vs %d events)", j, len(fast.trace), len(msg.trace))
	}
}

// TestAllreduceRendezvousTraceMatchesMessagePath: an 8-rank traced
// allreduce records exactly the spans of the message path, in the same
// TraceEvents order, and parks each rank at most once per allreduce.
func TestAllreduceRendezvousTraceMatchesMessagePath(t *testing.T) {
	j := allreduceJob{ranks: 8, elems: 3, op: OpSum, seed: 7, trace: true}
	fast, msg := j.run(t, false), j.run(t, true)
	if len(fast.trace) == 0 {
		t.Fatal("no trace events recorded")
	}
	compareRuns(t, j, fast, msg)
	if fast.engine.parks >= msg.engine.parks {
		t.Errorf("rendezvous parks %d, message path %d: want fewer", fast.engine.parks, msg.engine.parks)
	}
}

// TestAllreduceRendezvousParallelKernel: arrivals counted at the round
// barrier give the same results, clocks and statistics as the serial
// message path, for several group counts.
func TestAllreduceRendezvousParallelKernel(t *testing.T) {
	for _, kw := range []int{2, 3, 4} {
		j := allreduceJob{ranks: 23, elems: 2, op: OpMax, seed: 11, kworkers: kw}
		fast := j.run(t, false)
		j.kworkers = 1
		compareRuns(t, j, fast, j.run(t, true))
	}
}

// TestAllreduceRendezvousParksOnce: on the serial kernel each allreduce
// costs n−1 parks, one per rank but the last to arrive.
func TestAllreduceRendezvousParksOnce(t *testing.T) {
	const n, calls = 16, 10
	rt := testRuntime(n, 0)
	res, err := rt.Launch(LaunchSpec{
		Nodes:     rt.System().Module(machine.Cluster)[:n],
		OrderFree: true,
		Main: func(p *Proc) error {
			for i := 0; i < calls; i++ {
				if got := p.AllreduceScalar(p.World(), 1, OpSum); got != n {
					return errors.New("wrong sum")
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(calls * (n - 1)); res.Engine.Parks != want {
		t.Errorf("parks %d, want %d", res.Engine.Parks, want)
	}
}

// TestAllreduceRendezvousOnlyWhereEligible: rendezvous-sized buffers and
// launches that do not declare OrderFree keep the message path.
func TestAllreduceRendezvousOnlyWhereEligible(t *testing.T) {
	rt := testRuntime(4, 0)
	nodes := rt.System().Module(machine.Cluster)[:4]
	eager := rt.Network().Config().EagerThreshold / 8
	for _, tc := range []struct {
		name      string
		orderFree bool
		elems     int
		want      bool
	}{
		{"order-free eager", true, eager, true},
		{"order-free rendezvous-sized", true, eager + 1, false},
		{"plain launch", false, 1, false},
	} {
		var got bool
		_, err := rt.Launch(LaunchSpec{Nodes: nodes, OrderFree: tc.orderFree, Main: func(p *Proc) error {
			if p.Rank() == 0 {
				got = p.rendezvousAllreduce(p.World(), make([]float64, tc.elems))
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: rendezvous %v, want %v", tc.name, got, tc.want)
		}
	}
}

// FuzzAllreduceRendezvous checks the rendezvous against the message path
// over communicator sizes 2–70, random per-rank compute before each call,
// every Op, eager-sized buffers and 1–3 kernel workers: results, clocks and
// statistics must be identical.
func FuzzAllreduceRendezvous(f *testing.F) {
	f.Add(uint8(0), uint16(1), uint8(0), int64(1), uint8(0))
	f.Add(uint8(5), uint16(7), uint8(1), int64(42), uint8(1))
	f.Add(uint8(30), uint16(0), uint8(2), int64(-3), uint8(2))
	f.Add(uint8(68), uint16(2047), uint8(0), int64(99), uint8(0))
	f.Fuzz(func(t *testing.T, size uint8, elems uint16, op uint8, seed int64, kw uint8) {
		j := allreduceJob{
			ranks:    2 + int(size)%69,
			elems:    1 + int(elems)%2048, // up to the 16 KiB eager threshold
			op:       Op(op % 3),
			seed:     seed,
			kworkers: 1 + int(kw)%3,
		}
		fast := j.run(t, false)
		j.kworkers = 1
		compareRuns(t, j, fast, j.run(t, true))
	})
}

// TestOrderFreeLaunchRefusals: Launch refuses an OrderFree declaration that
// a node shared by two procs, failure injection or revocations would
// break.
func TestOrderFreeLaunchRefusals(t *testing.T) {
	rt := testRuntime(2, 0)
	nodes := rt.System().Module(machine.Cluster)
	main := func(p *Proc) error { return nil }
	for _, tc := range []struct {
		name string
		spec LaunchSpec
		want string
	}{
		{"two procs on one node", LaunchSpec{Nodes: []*machine.Node{nodes[0], nodes[1], nodes[0]}}, "two procs on node"},
		{"failure injection", LaunchSpec{Nodes: nodes, Failures: NewFailureInjector(vclock.Second, 1, 1, nodes)}, "failure injection"},
		{"revocations", LaunchSpec{Nodes: nodes, Revocations: []Revocation{{At: vclock.Second, Nodes: nodes}}}, "revocations"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Main, tc.spec.OrderFree = main, true
			_, err := rt.Launch(tc.spec)
			if err == nil || !errors.Is(err, errOrderFree) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Launch error %v, want an order-free refusal naming %q", err, tc.want)
			}
		})
	}
}

// TestOrderFreeSpawnOntoOccupiedNode: a spawn whose placement lands a
// child on a node that already hosts a proc of the tree returns an error.
func TestOrderFreeSpawnOntoOccupiedNode(t *testing.T) {
	rt := testRuntime(1, 1)
	rt.Register("child", func(p *Proc) error { return nil })
	var spawnErr error
	_, err := rt.Launch(LaunchSpec{
		Nodes:     rt.System().Module(machine.Booster),
		OrderFree: true,
		Main: func(p *Proc) error {
			// The default placement wraps round the one Cluster node.
			_, spawnErr = p.Spawn(p.World(), SpawnSpec{Binary: "child", Procs: 2, Module: machine.Cluster})
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spawnErr == nil || !errors.Is(spawnErr, errOrderFree) {
		t.Fatalf("Spawn error %v, want an order-free refusal", spawnErr)
	}
}

// TestOrderFreeRankRefusals: every operation that observes the order in
// which ranks resume fails the calling rank on an order-free launch.
func TestOrderFreeRankRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(p *Proc)
	}{
		{"AnySource Recv", func(p *Proc) { p.Recv(p.World(), AnySource, 0) }},
		{"AnySource Irecv", func(p *Proc) { p.Irecv(p.World(), AnySource, 0) }},
		{"Probe", func(p *Proc) { p.Probe(p.World(), 1, 0) }},
		{"Iprobe", func(p *Proc) { p.Iprobe(p.World(), 1, 0) }},
		{"Elapse", func(p *Proc) { p.Elapse(vclock.Microsecond) }},
		{"CallAt", func(p *Proc) { p.CallAt(p.Now()+vclock.Microsecond, func() {}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := testRuntime(2, 0)
			_, err := rt.Launch(LaunchSpec{
				Nodes:     rt.System().Module(machine.Cluster),
				OrderFree: true,
				Main: func(p *Proc) error {
					if p.Rank() == 0 {
						tc.call(p)
					}
					return nil
				},
			})
			if err == nil || !strings.Contains(err.Error(), errOrderFree.Error()) {
				t.Fatalf("error %v, want an order-free refusal", err)
			}
		})
	}
}
