package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"

	"clusterbooster/internal/bench"
	"clusterbooster/internal/core"
	"clusterbooster/internal/exp"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/runstore"
	"clusterbooster/internal/sweep"
	"clusterbooster/internal/xpic"
)

// workload is one input set the benchmark runs.
type workload struct {
	name string
	// procs, when non-zero, is the GOMAXPROCS the workload runs at.
	procs int
	// setups is how often set-up runs; setup_s is the median.
	setups int
	// vtrace is whether the runner's ops honour the psmpi virtual-time
	// trace; only then does a traced run spend a pass on it.
	vtrace bool
	// setup generates the inputs from seed, prepares the program and runs
	// the untimed warm-up ops, whose count it returns. out is the directory
	// the workload may write to.
	setup func(seed int64, out string) (runner, opCount, error)
}

// xpic-paper runs one serial kernel at a time on one P: its CPU is in the
// physics, and a second P only exposes the run to twice the host's CPU
// steal, which on a shared 2-CPU host tripled the run-to-run spread of
// pass_s. xpic-strong runs at the default GOMAXPROCS, as cbctl and deepsim
// do, because the idle-P wake-ups on every baton handoff are part of the
// handoff cost it exists to measure. catalog-warm keeps every CPU because
// its requests fan out over the sweep worker pool. The set-up counts take
// the median over 5 to 15 s of set-up on each workload.
var workloads = map[string]workload{
	"xpic-paper":   {"xpic-paper", 1, 15, true, setupXPic(xpicPaperInputs, "fig8")},
	"xpic-strong":  {"xpic-strong", 0, 4, true, setupXPic(xpicStrongInputs, "fig8-scale")},
	"catalog-warm": {"catalog-warm", 0, 3, false, setupCatalog},
}

// registrySeed is the seed every registry experiment and golden uses.
var registrySeed = xpic.Table2Config().Seed

// xpicOp is one xPic scenario: a mode at n ranks per solver, run on a
// freshly booted machine of nodes Cluster and nodes Booster nodes.
type xpicOp struct {
	mode  xpic.Mode
	n     int
	nodes int
	cfg   xpic.Config
}

// point names the op's place in the golden grid.
func (o xpicOp) point() string { return fmt.Sprintf("n=%d/%s", o.n, o.mode) }

// xpicPaperInputs is the Fig. 7/8 grid on the prototype: n = 1, 2, 4, 8
// ranks per solver in each of the three modes, at the CI profile.
func xpicPaperInputs(seed int64) []xpicOp {
	cfg := exp.CIProfile()
	cfg.Seed = seed
	var ops []xpicOp
	for _, n := range []int{1, 2, 4, 8} {
		for _, m := range bench.AllModes() {
			ops = append(ops, xpicOp{mode: m, n: n, nodes: 8, cfg: cfg})
		}
	}
	return ops
}

// xpicStrongInputs is strong scaling past the prototype: n = 256 and 1024
// ranks per solver, Booster-only and C+B, at the scale profile, where every
// rank holds the two-row minimum of the grid.
func xpicStrongInputs(seed int64) []xpicOp {
	cfg := exp.ScaleProfile()
	cfg.Seed = seed
	var ops []xpicOp
	for _, n := range []int{256, 1024} {
		for _, m := range []xpic.Mode{xpic.BoosterOnly, xpic.SplitCB} {
			ops = append(ops, xpicOp{mode: m, n: n, nodes: n, cfg: cfg})
		}
	}
	return ops
}

// xpicRunner runs an xPic input set and checks every report.
type xpicRunner struct {
	ops []xpicOp
	// golden holds the report JSON of the golden document at the registry
	// seed, by grid point.
	golden map[string][]byte
	// first holds the first report JSON of this run, by seed and point.
	first map[string][]byte
}

// setupXPic returns the set-up of an xPic workload whose golden rows are in
// the named registry document. The warm-up op is the last op of the grid
// at the registry seed, the largest multi-rank C+B point, so every run
// checks a report that crosses the halo exchange and the Cluster-Booster
// coupling against the golden whatever its seed, and set-up does the same
// work for every seed.
func setupXPic(inputs func(int64) []xpicOp, goldenDoc string) func(int64, string) (runner, opCount, error) {
	return func(seed int64, _ string) (runner, opCount, error) {
		golden, err := goldenReports(goldenDoc)
		if err != nil {
			return nil, opCount{}, err
		}
		r := &xpicRunner{ops: inputs(seed), golden: golden, first: map[string][]byte{}}
		grid := inputs(registrySeed)
		op := grid[len(grid)-1]
		rep, err := op.run(nil, nil, 0, 0, -1)
		if err == nil {
			err = r.check(op, rep)
		}
		if err != nil {
			fmt.Printf("warm-up op %s failed: %v\n", op.point(), err)
			return r, opCount{ops: 1, failed: 1}, nil
		}
		return r, opCount{ops: 1}, nil
	}
}

// goldenReports reads the xPic reports of a registry golden (the fig8
// series or a sweep result set) keyed by grid point.
func goldenReports(name string) (map[string][]byte, error) {
	b, _, err := exp.Golden(name, "")
	if err != nil {
		return nil, err
	}
	doc, err := exp.ParseDocument(b)
	if err != nil {
		return nil, err
	}
	reps := map[string]xpic.Report{}
	if name == "fig8" {
		var res bench.Fig8Result
		if err := json.Unmarshal(doc.Payload, &res); err != nil {
			return nil, fmt.Errorf("golden %s: %w", name, err)
		}
		for _, p := range res.Points {
			for _, r := range []xpic.Report{p.Cluster, p.Booster, p.Split} {
				reps[xpicOp{mode: r.Mode, n: p.Nodes}.point()] = r
			}
		}
	} else {
		var rs sweep.ResultSet
		if err := json.Unmarshal(doc.Payload, &rs); err != nil {
			return nil, fmt.Errorf("golden %s: %w", name, err)
		}
		for _, r := range rs.Results {
			if r.XPic != nil {
				reps[xpicOp{mode: r.XPic.Mode, n: r.XPic.RanksPerSolver}.point()] = *r.XPic
			}
		}
	}
	out := map[string][]byte{}
	for k, r := range reps {
		if out[k], err = json.Marshal(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// run boots the op's machine and runs it, recording spans on t. When t
// asks for the psmpi virtual-time trace, the op's trace is added to tally.
func (o xpicOp) run(t *tracer, tally *psmpiTally, parent, opID, pass int) (xpic.Report, error) {
	sp := t.start("xpic.op", parent, opID, pass)
	defer t.end(sp)
	boot := t.start("core.New", sp, opID, pass)
	sys := core.New(o.nodes, o.nodes, core.Options{WithoutStorage: true})
	t.end(boot)
	if t.vtrace() {
		sys.Runtime.EnableTracing()
	}
	run := t.start("core.RunXPic", sp, opID, pass)
	rep, err := sys.RunXPic(o.mode, o.n, o.cfg)
	t.end(run)
	if t.vtrace() {
		tally.add(sys.Runtime.TraceEvents())
	}
	return rep, err
}

// check is the output oracle of one report: it must be byte-identical to
// the run's first report of the same op and, at the registry seed, to the
// golden row.
func (r *xpicRunner) check(o xpicOp, rep xpic.Report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("seed=%d/%s", o.cfg.Seed, o.point())
	if prev, ok := r.first[key]; !ok {
		r.first[key] = b
	} else if !bytes.Equal(prev, b) {
		return fmt.Errorf("report differs from the first run of %s", key)
	}
	if o.cfg.Seed == registrySeed {
		if g, ok := r.golden[o.point()]; !ok || !bytes.Equal(g, b) {
			return fmt.Errorf("report differs from the golden row %s", o.point())
		}
	}
	return nil
}

// physics is the part of a report every mode must reproduce bit for bit.
func physics(r xpic.Report) [5]float64 {
	return [5]float64{r.FieldEnergy, r.KineticEnergy, r.TotalCharge, r.Checksum, float64(r.CGIters)}
}

// checkModes marks failed every report whose physics differs from that of
// the first mode at the same n. failed[i] already set means op i produced
// no report.
func checkModes(ops []xpicOp, reps []xpic.Report, failed []bool) {
	ref := map[int]int{} // n -> index of the first report at n
	for i, o := range ops {
		if failed[i] {
			continue
		}
		j, ok := ref[o.n]
		if !ok {
			ref[o.n] = i
			continue
		}
		if physics(reps[i]) != physics(reps[j]) {
			fmt.Printf("physics of %s differs from %s\n", o.point(), ops[j].point())
			failed[i], failed[j] = true, true
		}
	}
}

func (r *xpicRunner) pass(t *tracer, passID int) passOutput {
	root := t.start("pass", 0, 0, passID)
	defer t.end(root)
	reps := make([]xpic.Report, len(r.ops))
	failed := make([]bool, len(r.ops))
	var tally psmpiTally
	for i, o := range r.ops {
		rep, err := o.run(t, &tally, root, passID*len(r.ops)+i+1, passID)
		if err == nil {
			err = r.check(o, rep)
		}
		if err != nil {
			fmt.Printf("op %s failed: %v\n", o.point(), err)
			failed[i] = true
		}
		reps[i] = rep
	}
	checkModes(r.ops, reps, failed)

	out := passOutput{opCount: opCount{ops: len(r.ops)}, exact: map[string]float64{}}
	var cg, makespan float64
	for i, rep := range reps {
		if failed[i] {
			out.failed++
		}
		cg += float64(rep.CGIters)
		makespan += rep.Makespan.Seconds()
	}
	out.exact["xpic.cg_iters"] = cg
	out.exact["xpic.sim_makespan_s"] = makespan
	if t.vtrace() {
		out.traceExact = map[string]float64{
			"psmpi.sends":      tally.sends,
			"psmpi.recvs":      tally.recvs,
			"psmpi.waits":      tally.waits,
			"psmpi.comm_vfrac": ratio(tally.comm, tally.all),
		}
	}
	return out
}

func (r *xpicRunner) close() error { return nil }

// psmpiTally sums a psmpi virtual-time trace: the point-to-point spans,
// and per rank the virtual seconds covered by its communication spans and
// by all its spans.
type psmpiTally struct {
	sends, recvs, waits float64
	comm, all           float64
}

// add tallies one runtime's trace. Ranks are summed in a fixed order so
// the float sums repeat bit for bit.
func (t *psmpiTally) add(events []psmpi.TraceEvent) {
	type rank struct {
		node string
		rank int
	}
	byRank := map[rank][]psmpi.TraceEvent{}
	var ranks []rank
	for _, e := range events {
		switch e.Name {
		case "send":
			t.sends++
		case "recv":
			t.recvs++
		case "wait":
			t.waits++
		}
		k := rank{e.Node, e.Rank}
		if _, ok := byRank[k]; !ok {
			ranks = append(ranks, k)
		}
		byRank[k] = append(byRank[k], e)
	}
	sort.Slice(ranks, func(i, j int) bool {
		if ranks[i].node != ranks[j].node {
			return ranks[i].node < ranks[j].node
		}
		return ranks[i].rank < ranks[j].rank
	})
	for _, k := range ranks {
		ev := byRank[k]
		t.all += union(ev, func(psmpi.TraceEvent) bool { return true })
		t.comm += union(ev, func(e psmpi.TraceEvent) bool { return !strings.HasPrefix(e.Name, "compute") })
	}
}

// union returns the virtual seconds covered by the kept spans.
func union(ev []psmpi.TraceEvent, keep func(psmpi.TraceEvent) bool) float64 {
	var kept []psmpi.TraceEvent
	for _, e := range ev {
		if keep(e) {
			kept = append(kept, e)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Start < kept[j].Start })
	var total float64
	for i := 0; i < len(kept); {
		lo, hi := kept[i].Start, kept[i].End
		for i++; i < len(kept) && kept[i].Start <= hi; i++ {
			if kept[i].End > hi {
				hi = kept[i].End
			}
		}
		total += (hi - lo).Seconds()
	}
	return total
}

// catalogInputs is every registry experiment except the fig8-scale family
// (whose largest points alone outlast a pass), in an order drawn from seed.
func catalogInputs(seed int64) []string {
	var names []string
	for _, n := range exp.Names() {
		if !strings.HasPrefix(n, "fig8-scale") {
			names = append(names, n)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(names), func(i, j int) {
		names[i], names[j] = names[j], names[i]
	})
	return names
}

// catalogRunner requests registry documents the way cbctl run and serve
// do, over a persistent run store filled during set-up.
type catalogRunner struct {
	exps   []exp.Experiment
	golden map[string][]byte
	dir    string
}

// setupCatalog opens an empty run store under out and fills it cold with
// one request for every document; those requests are the warm-up ops. The
// fill requests the documents in name order whatever the seed: which
// document first computes a scenario that several share decides how much
// of the fill runs on the sweep worker pool, and so its wall time.
func setupCatalog(seed int64, out string) (runner, opCount, error) {
	exps, err := exp.Resolve(catalogInputs(seed))
	if err != nil {
		return nil, opCount{}, err
	}
	r := &catalogRunner{exps: exps, golden: map[string][]byte{}}
	for _, e := range exps {
		if r.golden[e.Name], _, err = exp.Golden(e.Name, ""); err != nil {
			return nil, opCount{}, err
		}
	}
	if r.dir, err = os.MkdirTemp(out, "store-"); err != nil {
		return nil, opCount{}, err
	}
	st, err := runstore.Open(r.dir, exp.CacheEpoch())
	if err != nil {
		r.close()
		return nil, opCount{}, err
	}
	sweep.SetDiskRunStore(st)
	sweep.ResetRunCache()
	fill := *r
	fill.exps = slices.Clone(exps)
	slices.SortFunc(fill.exps, func(a, b exp.Experiment) int { return strings.Compare(a.Name, b.Name) })
	return r, fill.pass(nil, -1).opCount, nil
}

func (r *catalogRunner) pass(t *tracer, passID int) passOutput {
	root := t.start("pass", 0, 0, passID)
	defer t.end(root)
	out := passOutput{opCount: opCount{ops: len(r.exps)}}
	for i, e := range r.exps {
		opID := passID*len(r.exps) + i + 1
		sp := t.start("exp.request", root, opID, passID)
		if err := r.request(e, t, sp, opID, passID); err != nil {
			fmt.Printf("op %s failed: %v\n", e.Name, err)
			out.failed++
		}
		t.end(sp)
	}
	return out
}

// request runs one experiment, renders its canonical document and checks
// it.
func (r *catalogRunner) request(e exp.Experiment, t *tracer, parent, opID, pass int) error {
	sp := t.start("exp.Run", parent, opID, pass)
	doc, err := e.Run(exp.Options{})
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.start("exp.Canonical", parent, opID, pass)
	b, err := doc.Canonical()
	t.end(sp)
	if err != nil {
		return err
	}
	return r.check(e, doc, b)
}

// check is the output oracle of one document: its canonical bytes must
// equal the golden and its measures must hold the experiment's budgets.
func (r *catalogRunner) check(e exp.Experiment, doc exp.Document, canonical []byte) error {
	if !bytes.Equal(canonical, r.golden[e.Name]) {
		return fmt.Errorf("document differs from its golden")
	}
	if v := e.CheckBudgets(doc); len(v) > 0 {
		return fmt.Errorf("%d budget violations, first: %s", len(v), v[0])
	}
	return nil
}

// close disconnects and deletes the run store.
func (r *catalogRunner) close() error {
	sweep.SetDiskRunStore(nil)
	if r.dir == "" {
		return nil
	}
	return os.RemoveAll(r.dir)
}
