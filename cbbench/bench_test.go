package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"clusterbooster/internal/exp"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

// protoBuf is a minimal protobuf writer for synthetic profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(num int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(num, q)
}

// syntheticProfile encodes stacks of function names (innermost first) with
// their counts as a gzipped pprof profile. Each function gets its own
// location, except that a name of the form "a+b" makes one location whose
// lines are a inlined into b.
func syntheticProfile(t *testing.T, stacks map[string]int64) []byte {
	t.Helper()
	var prof protoBuf
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	fns := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := fns[name]; ok {
			return id
		}
		id := uint64(len(fns) + 1)
		fns[name] = id
		var f protoBuf
		f.varint(1, id)
		f.varint(2, str(name))
		prof.bytes(5, f.b)
		return id
	}
	locs := map[string]uint64{}
	loc := func(frame string) uint64 {
		if id, ok := locs[frame]; ok {
			return id
		}
		id := uint64(len(locs) + 1)
		locs[frame] = id
		var l protoBuf
		l.varint(1, id)
		for _, name := range strings.Split(frame, "+") {
			var line protoBuf
			line.varint(1, fn(name))
			line.varint(2, 10)
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
		return id
	}
	keys := make([]string, 0, len(stacks))
	for k := range stacks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		var ids []uint64
		for _, frame := range strings.Split(k, " ") {
			ids = append(ids, loc(frame))
		}
		var s protoBuf
		if i%2 == 0 {
			s.packed(1, ids...)
		} else {
			for _, id := range ids {
				s.varint(1, id)
			}
		}
		s.packed(2, uint64(stacks[k]), uint64(stacks[k])*10_000_000)
		var label protoBuf
		label.varint(1, str("key"))
		s.bytes(3, label.b)
		prof.bytes(2, s.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	const (
		grid  = "clusterbooster/internal/xpic.(*Grid).F"
		park  = "clusterbooster/internal/engine.(*Task).Park"
		send  = "clusterbooster/internal/psmpi.(*Proc).Send"
		store = "clusterbooster/internal/runstore.(*Store).Get.func1"
	)
	data := syntheticProfile(t, map[string]int64{
		// Runtime work under a module counts as that module's.
		"runtime.mallocgc " + grid + " " + send + " main.main": 3,
		"runtime.chanrecv " + park + " " + send:                2,
		// No internal frame at all.
		"runtime.gcBgMarkWorker runtime.goexit": 4,
		send + " main.main":                     1,
		// Inlined: the innermost line of the location decides.
		"runtime.memmove+" + store + " " + send: 5,
	})
	stacks, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	p := attribute(stacks)
	want := map[string]int64{"xpic": 3, "engine": 2, "": 4, "psmpi": 1, "runstore": 5}
	if p.samples != 15 || !reflect.DeepEqual(p.byModule, want) {
		t.Fatalf("got %d samples %v, want 15 %v", p.samples, p.byModule, want)
	}
	if got := p.frac("xpic"); got != 0.2 {
		t.Errorf("xpic share %v, want 0.2", got)
	}
	if got := p.frac(""); math.Abs(got-4.0/15) > 1e-15 {
		t.Errorf("other share %v, want 4/15", got)
	}
}

func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	if _, err := parseProfile(buf.Bytes()); err != nil {
		t.Fatalf("parse runtime/pprof output: %v", err)
	}
}

func TestParseRejectsTruncatedProfile(t *testing.T) {
	var p protoBuf
	p.bytes(2, []byte{0x0a, 0x05, 0x01})
	if _, err := parseProfile(p.b[:len(p.b)-1]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, gen := range map[string]func(int64) []xpicOp{
		"xpic-paper": xpicPaperInputs, "xpic-strong": xpicStrongInputs,
	} {
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
		// The warm-up op is the grid's last op; it must cross the halo
		// exchange and the Cluster-Booster coupling.
		if last := a[len(a)-1]; last.mode != xpic.SplitCB || last.n < 2 {
			t.Errorf("%s: warm-up op %s is not a multi-rank C+B point", name, last.point())
		}
		for _, o := range a {
			if o.cfg.Seed != 7 {
				t.Errorf("%s: op %s runs seed %d", name, o.point(), o.cfg.Seed)
			}
		}
	}
	if got := len(xpicPaperInputs(1)); got != 12 {
		t.Errorf("xpic-paper has %d ops, want 12", got)
	}
	if got := len(xpicStrongInputs(1)); got != 4 {
		t.Errorf("xpic-strong has %d ops, want 4", got)
	}

	a, b := catalogInputs(7), catalogInputs(7)
	if !reflect.DeepEqual(a, b) {
		t.Error("catalog-warm: seed 7 generated different orders")
	}
	if len(a) != 15 {
		t.Errorf("catalog-warm has %d documents, want 15", len(a))
	}
	differs := false
	for s := int64(8); s < 12; s++ {
		c := catalogInputs(s)
		differs = differs || !reflect.DeepEqual(a, c)
		sort.Strings(c)
		sorted := append([]string(nil), a...)
		sort.Strings(sorted)
		if !reflect.DeepEqual(sorted, c) {
			t.Errorf("catalog-warm: seed %d requests another set of documents", s)
		}
	}
	if !differs {
		t.Error("catalog-warm: seeds 8-11 all kept seed 7's order")
	}
	for _, n := range a {
		if strings.HasPrefix(n, "fig8-scale") {
			t.Errorf("catalog-warm requests %s", n)
		}
	}
}

// goldenReport returns the fig8 golden report at one point.
func goldenReport(t *testing.T, golden map[string][]byte, point string) xpic.Report {
	t.Helper()
	var rep xpic.Report
	if err := json.Unmarshal(golden[point], &rep); err != nil {
		t.Fatalf("golden %s: %v", point, err)
	}
	return rep
}

func TestTamperedReportFails(t *testing.T) {
	golden, err := goldenReports("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != 12 {
		t.Fatalf("fig8 golden has %d reports, want 12", len(golden))
	}
	op := xpicOp{mode: xpic.SplitCB, n: 2, nodes: 8, cfg: exp.CIProfile()}
	rep := goldenReport(t, golden, op.point())

	r := &xpicRunner{golden: golden, first: map[string][]byte{}}
	if err := r.check(op, rep); err != nil {
		t.Fatalf("golden report rejected: %v", err)
	}
	tampered := rep
	tampered.Makespan += vclock.Nanosecond
	if r.check(op, tampered) == nil {
		t.Error("report off the golden accepted at the registry seed")
	}

	// Off the registry seed only the run's first report binds.
	op.cfg.Seed = 7
	r = &xpicRunner{golden: golden, first: map[string][]byte{}}
	if err := r.check(op, rep); err != nil {
		t.Fatalf("first report rejected: %v", err)
	}
	if r.check(op, tampered) == nil {
		t.Error("report differing from the run's first accepted")
	}

	// Physics must agree across modes at one n.
	ops := []xpicOp{{mode: xpic.ClusterOnly, n: 2}, {mode: xpic.BoosterOnly, n: 2}, {mode: xpic.SplitCB, n: 2}}
	reps := []xpic.Report{
		goldenReport(t, golden, "n=2/Cluster"), goldenReport(t, golden, "n=2/Booster"), rep,
	}
	failed := make([]bool, 3)
	checkModes(ops, reps, failed)
	if failed[0] || failed[1] || failed[2] {
		t.Fatalf("golden physics disagree across modes: %v", failed)
	}
	reps[2].KineticEnergy = math.Nextafter(reps[2].KineticEnergy, 0)
	checkModes(ops, reps, failed)
	if !failed[2] {
		t.Error("physics differing across modes accepted")
	}
}

func TestTamperedReportCountsAsFailedOp(t *testing.T) {
	cfg := xpic.QuickConfig(2)
	cfg.Seed = registrySeed
	ops := []xpicOp{
		{mode: xpic.ClusterOnly, n: 1, nodes: 1, cfg: cfg},
		{mode: xpic.SplitCB, n: 1, nodes: 1, cfg: cfg},
	}
	golden := map[string][]byte{}
	for _, o := range ops {
		rep, err := o.run(nil, nil, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		golden[o.point()], _ = json.Marshal(rep)
	}
	r := &xpicRunner{ops: ops, golden: golden, first: map[string][]byte{}}
	if out := r.pass(nil, 0); out.ops != 2 || out.failed != 0 {
		t.Fatalf("clean pass: %+v", out.opCount)
	}
	// A golden one bit off stands for a report one bit off.
	var rep xpic.Report
	json.Unmarshal(golden[ops[1].point()], &rep)
	rep.FieldEnergy = math.Nextafter(rep.FieldEnergy, 0)
	golden[ops[1].point()], _ = json.Marshal(rep)
	if out := r.pass(nil, 1); out.ops != 2 || out.failed != 1 {
		t.Fatalf("tampered pass: %+v, want 1 of 2 failed", out.opCount)
	}
}

func TestTamperedDocumentCountsAsFailedOp(t *testing.T) {
	e, ok := exp.Get("table1")
	if !ok {
		t.Fatal("table1 not registered")
	}
	g, _, err := exp.Golden(e.Name, "")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := exp.ParseDocument(g)
	if err != nil {
		t.Fatal(err)
	}
	r := &catalogRunner{exps: []exp.Experiment{e}, golden: map[string][]byte{e.Name: g}}
	if out := r.pass(nil, 0); out.ops != 1 || out.failed != 0 {
		t.Fatalf("clean pass: %+v", out.opCount)
	}

	tampered := doc
	tampered.Version++
	e.Run = func(exp.Options) (exp.Document, error) { return tampered, nil }
	r.exps[0] = e
	if out := r.pass(nil, 1); out.failed != 1 {
		t.Fatalf("tampered document: %+v, want it failed", out.opCount)
	}

	// A document equal to its golden still fails when it breaks a budget.
	e.Budgets = []exp.Budget{{Measure: "rows", Kind: exp.MinBudget, Bound: math.Inf(1)}}
	e.Run = func(exp.Options) (exp.Document, error) { return exp.ParseDocument(g) }
	r.exps[0] = e
	if out := r.pass(nil, 2); out.failed != 1 {
		t.Fatalf("budget violation: %+v, want it failed", out.opCount)
	}
}

func TestCounterChecksFailPasses(t *testing.T) {
	mk := func(events float64, invariant string) passStat {
		return passStat{
			passOutput: passOutput{opCount: opCount{ops: 4}, exact: map[string]float64{"engine.events": events}},
			invariant:  invariant,
		}
	}
	passes := []passStat{mk(10, ""), mk(10, ""), mk(11, ""), mk(10, "engine events 10 != ...")}
	checkPasses(passes)
	for i, want := range []int{0, 0, 4, 4} {
		if passes[i].failed != want {
			t.Errorf("pass %d: %d failed, want %d", i, passes[i].failed, want)
		}
	}
}

func TestPsmpiTally(t *testing.T) {
	us := func(x int) vclock.Time { return vclock.Time(x) * vclock.Microsecond }
	ev := []psmpi.TraceEvent{
		{Rank: 0, Node: "b0", Name: "compute/particle", Start: us(0), End: us(6)},
		{Rank: 0, Node: "b0", Name: "send", Start: us(6), End: us(8)},
		{Rank: 0, Node: "b0", Name: "wait", Start: us(7), End: us(10)}, // overlaps the send
		{Rank: 1, Node: "b1", Name: "recv", Start: us(0), End: us(10)},
	}
	var tally psmpiTally
	tally.add(ev)
	if tally.sends != 1 || tally.recvs != 1 || tally.waits != 1 {
		t.Errorf("counts %+v", tally)
	}
	// rank 0: 4 of 10 us communicating; rank 1: 10 of 10.
	if got := ratio(tally.comm, tally.all); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("comm share %v, want 0.7", got)
	}
}

// TestBenchmarkJSONNamesMetrics pins BENCHMARK.json to what the benchmark
// prints: its workloads, its end-to-end metrics and its per-layer metrics.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}

	pass := passStat{
		passOutput: passOutput{exact: map[string]float64{}},
		timed:      map[string]float64{},
	}
	after := takeSnapshot()
	pass = after.delta(after, pass.passOutput)
	check := func(kind string, m map[string]metric, listed []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, x := range listed {
			want[x.Name] = x.Unit
		}
		got := map[string]string{}
		for k, v := range m {
			got[k] = v.Unit
		}
		if !reflect.DeepEqual(got, want) {
			for k, u := range got {
				if want[k] != u {
					t.Errorf("%s %s printed in %q, BENCHMARK.json says %q", kind, k, u, want[k])
				}
			}
			for k := range want {
				if _, ok := got[k]; !ok {
					t.Errorf("%s %s listed but not printed", kind, k)
				}
			}
		}
	}
	check("end-to-end", endToEnd([]passStat{pass}, []float64{1}, 1, result{Attempted: 1}), spec.EndToEnd)
	m, _ := perLayer([]passStat{pass}, []passStat{pass}, &pass, cpuProfile{}, newTracer(false), 0)
	check("per-layer", m, spec.PerLayer)
	m, unmeasured := perLayer([]passStat{pass}, []passStat{pass}, nil, cpuProfile{}, newTracer(false), 0)
	check("per-layer without a virtual-time pass", m, spec.PerLayer)
	if !slices.Contains(unmeasured, "psmpi.sends") {
		t.Errorf("psmpi.sends not marked unmeasured without a virtual-time pass: %v", unmeasured)
	}
}
