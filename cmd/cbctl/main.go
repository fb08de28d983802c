// Command cbctl is the simulator's one command. It drives the experiment
// registry: it lists the catalog, runs experiments to canonical JSON or
// paper-style text, diffs fresh runs against the checked-in golden
// baselines, and re-records (blesses) baselines after an intentional model
// change. Two exploratory verbs, resilience and facility, run single
// scenarios with every model parameter on the command line.
//
// Usage:
//
//	cbctl list [-v]
//	cbctl run   [-workers N] [-kworkers K] [-store DIR] [-v] [-text] [-ndjson] [-stats] [-steps N] [-scale K] [-cpuprofile F] [-memprofile F] -all | <experiment> ...
//	cbctl diff  [-workers N] [-kworkers K] [-store DIR] [-v] [-stats] [-tolerance] [-C dir] -all | <experiment> ...
//	cbctl bless [-workers N] [-kworkers K] [-store DIR] [-v] [-stats] [-C dir] -all | <experiment> ...
//	cbctl bench [-in FILE] [-check] [-update] [-max-regress F] [-C dir]
//	cbctl serve [-addr HOST:PORT] [-workers N] [-kworkers K] [-store DIR] [-v]
//	cbctl resilience [-mode M] [-nodes N] [-level L] [-ckpt N] [-mtbf S] [-failures N] [-seed S] [-restart-overhead S] [-steps N] [-scale K] [-json] [-kworkers K] [-stats] [-cpuprofile F] [-memprofile F]
//	cbctl facility [-policy P] [-jobs N] [-load F] [-mtbf S] [-mttr S] [-retries N] [-ckpt-every S] [-seed S] [-json] [-kworkers K] [-stats] [-cpuprofile F] [-memprofile F]
//
// run prints one canonical JSON document per selected experiment; with
// several experiments the output is a concatenated stream of documents (use
// a streaming decoder, or select one experiment for a single JSON value).
// -ndjson switches to one compact document per line — byte-identical to the
// serve stream, which the CI serve smoke job relies on. -stats adds the
// execution-kernel counters, the scenario-cache hit/miss counters and (with
// -store) the persistent-store counters on stderr; -cpuprofile/-memprofile
// capture pprof profiles of the runs for perf work. -steps N / -scale K
// override the xPic workload, starting from the ci-quick profile (golden
// runs never take them, so diff and bless reject them). -kworkers K runs each
// eligible scenario's event kernel on K cores with the conservative
// synchronous-window scheme — results are bit-identical to serial for every
// K, so run, diff and bless all accept it.
//
// -store DIR layers the persistent, shared result store (internal/runstore)
// under the in-process scenario cache: successful compute runs are published
// to DIR under the current cache epoch (exp.CacheEpoch — registry versions
// plus the model fingerprint) and later processes start warm. Results are
// byte-identical with the store disabled, cold, warm, or shared between
// processes; the CI cold/warm diff legs hold that line.
//
// serve turns the catalog into a long-running HTTP service: experiment
// requests stream canonical documents as NDJSON, concurrent requests for
// overlapping grids dedupe in-flight compute through the scenario cache's
// singleflight entries, and /statsz exposes the runtime counters. See
// serve.go for the endpoints.
//
// resilience and facility are the exploratory single-point runs no registry
// experiment produces (see explore.go): one checkpoint/restart scenario
// under live node failures, and one arrival stream through the batch queue
// on a failing machine.
//
// bench maintains BENCH_kernel.json, the checked-in machine-readable
// baseline of the kernel benchmarks: it parses `go test -bench -benchmem`
// output from stdin (or -in), prints the canonical JSON form, records it
// (-update), or gates a fresh run against the baseline (-check fails on
// regressions beyond -max-regress; the CI bench-regression job runs it).
//
// diff exits non-zero when any experiment drifts from its golden, misses a
// baseline, or violates a declared virtual-time perf budget — the `golden`
// CI job runs `cbctl diff -all` so paper-artifact drift fails the build.
// Goldens are embedded into the binary; when the source tree is reachable
// (cwd inside the module, or -C), the on-disk copy under
// internal/exp/testdata/ takes precedence, so bless→diff needs no rebuild.
//
// By default diff is byte-for-byte: the simulation platform is deterministic
// in virtual time, so canonical documents must match exactly. -tolerance
// relaxes numeric leaves by each experiment's declared per-metric relative
// tolerances (for comparing across intentional model refinements before a
// bless).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"clusterbooster/internal/benchdata"
	"clusterbooster/internal/engine"
	"clusterbooster/internal/exp"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/prof"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/runstore"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/sweep"
	"clusterbooster/internal/xpic"
)

func main() {
	flag.Usage = func() { usage(os.Stderr) }
	flag.Parse()
	os.Exit(dispatch(flag.Args(), os.Stdout, os.Stderr))
}

// dispatch routes a verb invocation; the writers make every verb — output,
// exit code and all — table-testable without touching the process streams.
func dispatch(args []string, out, errw io.Writer) int {
	if len(args) < 1 {
		usage(errw)
		return 2
	}
	verb, args := args[0], args[1:]
	switch verb {
	case "list":
		return runList(args, out, errw)
	case "run":
		return runRun(args, out, errw)
	case "diff":
		return runDiff(args, out, errw)
	case "bless":
		return runBless(args, out, errw)
	case "bench":
		return runBench(args, out, errw)
	case "serve":
		return runServe(args, out, errw)
	case "resilience":
		return runResilience(args, out, errw)
	case "facility":
		return runFacility(args, out, errw)
	case "help", "-h", "-help", "--help":
		usage(errw)
		return 0
	default:
		fmt.Fprintf(errw, "cbctl: unknown verb %q\n", verb)
		usage(errw)
		return 2
	}
}

func usage(errw io.Writer) {
	fmt.Fprintf(errw, `usage:
  cbctl list [-v]
  cbctl run   [-workers N] [-kworkers K] [-store DIR] [-v] [-text] [-ndjson] [-stats] [-steps N] [-scale K] [-cpuprofile F] [-memprofile F] -all | <experiment> ...
  cbctl diff  [-workers N] [-kworkers K] [-store DIR] [-v] [-stats] [-tolerance] [-C dir] -all | <experiment> ...
  cbctl bless [-workers N] [-kworkers K] [-store DIR] [-v] [-stats] [-C dir] -all | <experiment> ...
  cbctl bench [-in FILE] [-check] [-update] [-max-regress F] [-C dir]
  cbctl serve [-addr HOST:PORT] [-workers N] [-kworkers K] [-store DIR] [-v]
  cbctl resilience [-mode M] [-nodes N] [-level L] [-ckpt N] [-mtbf S] [-failures N] [-seed S] [-restart-overhead S] [-steps N] [-scale K] [-json] [-kworkers K] [-stats] [-cpuprofile F] [-memprofile F]
  cbctl facility [-policy P] [-jobs N] [-load F] [-mtbf S] [-mttr S] [-retries N] [-ckpt-every S] [-seed S] [-json] [-kworkers K] [-stats] [-cpuprofile F] [-memprofile F]

Experiments are the registered paper artifacts and sweeps (see 'cbctl list'
and EXPERIMENTS.md). diff exits non-zero on golden drift, missing baselines,
or virtual-time budget violations. -store DIR shares compute results across
processes through an on-disk, epoch-scoped store (results are byte-identical
with the store disabled, cold or warm). run -steps N / -scale K override
the xPic workload, starting from the ci-quick profile; the document's meta
then records the profile it ran (-steps 900 -scale 64 is the paper's).

resilience runs one checkpoint/restart scenario under live failure
injection (-mtbf per node, virtual seconds; ci-quick workload unless
-steps/-scale); facility runs one arrival stream through the batch queue
(-mtbf/-mttr per module) and prints the analytic MTBF/(MTBF+MTTR)
availability next to the simulated one.

bench parses 'go test -bench -benchmem' output (stdin, or -in FILE) into the
canonical baseline JSON: -update records it as BENCH_kernel.json at the
module root, -check compares against the recorded baseline and exits
non-zero on any benchmark slower than -max-regress (default 0.25 = +25%%)
or allocating beyond it.

serve runs the catalog as an HTTP service: GET /v1/run?exp=NAME streams
canonical documents as NDJSON (one compact document per line, the same bytes
as 'cbctl run -ndjson'), GET /v1/experiments lists the catalog, /statsz the
runtime counters, /healthz liveness.
`)
}

// common per-verb flags.
type verbFlags struct {
	fs         *flag.FlagSet
	all        *bool
	workers    *int
	kworkers   *int
	store      *string
	verbose    *bool
	stats      *bool
	tolerance  *bool
	chdir      *string
	text       *bool
	ndjson     *bool
	cpuprofile *string
	memprofile *string
	steps      *int
	scale      *int
}

// Flag groups a verb opts into; -kworkers is common to all.
const (
	selectFlag    = 1 << iota // -all
	sweepFlags                // -workers -store -v
	statsFlag                 // -stats
	toleranceFlag             // -tolerance
	rootFlag                  // -C
	outputFlags               // -text -ndjson
	profileFlags              // -cpuprofile -memprofile
	workloadFlags             // -steps -scale
	expFlags      = selectFlag | sweepFlags | statsFlag
)

// parse runs the flag set; ok=false stops the verb with the given exit
// code — 0 for an explicit -h/--help (matching flag.ExitOnError's exit
// status), 2 for a genuine usage error.
func (v verbFlags) parse(args []string) (code int, ok bool) {
	switch err := v.fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return 2, false
	}
}

func newFlags(verb string, errw io.Writer, groups int) verbFlags {
	fs := flag.NewFlagSet("cbctl "+verb, flag.ContinueOnError)
	fs.SetOutput(errw)
	v := verbFlags{
		fs:       fs,
		kworkers: fs.Int("kworkers", 0, "kernel workers per eligible launch: conservative parallel execution of each scenario, bit-identical to serial (0/1 = serial)"),
	}
	if groups&selectFlag != 0 {
		v.all = fs.Bool("all", false, "select every registered experiment")
	}
	if groups&sweepFlags != 0 {
		v.workers = fs.Int("workers", 0, "sweep worker pool bound (0 = GOMAXPROCS)")
		v.store = fs.String("store", "", "persistent run-store directory shared across processes (\"\" = in-process cache only); results are byte-identical either way")
		v.verbose = fs.Bool("v", false, "per-scenario progress on stderr")
	}
	if groups&statsFlag != 0 {
		v.stats = fs.Bool("stats", false, "print execution-kernel, scenario-cache and run-store stats to stderr after the runs")
	}
	if groups&toleranceFlag != 0 {
		v.tolerance = fs.Bool("tolerance", false, "apply per-experiment relative tolerances to numeric drift")
	}
	if groups&rootFlag != 0 {
		v.chdir = fs.String("C", "", "module root for on-disk goldens (default: walk up from cwd)")
	}
	if groups&outputFlags != 0 {
		v.text = fs.Bool("text", false, "render paper-style text instead of canonical JSON")
		v.ndjson = fs.Bool("ndjson", false, "emit one compact JSON document per line (the cbctl serve stream format)")
	}
	if groups&profileFlags != 0 {
		v.cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the runs to this file")
		v.memprofile = fs.String("memprofile", "", "write a pprof allocation profile of the runs to this file")
	}
	if groups&workloadFlags != 0 {
		v.steps = fs.Int("steps", 0, "override the xPic step count (starts from the ci-quick profile)")
		v.scale = fs.Int("scale", 0, "override the xPic particle fidelity divisor (starts from the ci-quick profile)")
	}
	return v
}

// workload resolves -steps/-scale: nil (each experiment's pinned profile)
// unless either is set, otherwise the ci-quick profile with the overrides
// applied.
func (v verbFlags) workload() *xpic.Config {
	if v.steps == nil || (*v.steps <= 0 && *v.scale <= 0) {
		return nil
	}
	cfg := exp.CIProfile()
	if *v.steps > 0 {
		cfg.Steps = *v.steps
	}
	if *v.scale > 0 {
		cfg.ParticleScale = *v.scale
	}
	return &cfg
}

// openStore connects the persistent run store when -store is set; reports
// whether the verb can proceed.
func (v verbFlags) openStore(errw io.Writer) bool {
	if v.store == nil || *v.store == "" {
		return true
	}
	st, err := runstore.Open(*v.store, exp.CacheEpoch())
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return false
	}
	sweep.SetDiskRunStore(st)
	return true
}

// reportStats prints the runtime counters to stderr when the verb's -stats
// flag is set.
func (v verbFlags) reportStats(errw io.Writer) {
	if v.stats != nil && *v.stats {
		writeRuntimeStats(errw, "cbctl: ")
	}
}

// writeRuntimeStats prints the aggregated execution-kernel counters, the I/O
// stack's event counters, the batch-queue counters, the scenario-cache
// hit/miss counters and (when a -store is connected) the persistent-store
// counters, one prefixed line each — the -stats lines and the body of serve's
// /statsz.
func writeRuntimeStats(w io.Writer, prefix string) {
	fmt.Fprintf(w, "%skernel %s\n", prefix, engine.Global())
	fmt.Fprintf(w, "%sio %s\n", prefix, ioev.Global())
	fmt.Fprintf(w, "%squeue %s\n", prefix, sched.Global())
	fmt.Fprintf(w, "%s%s\n", prefix, sweep.RunCacheStats())
	if st := sweep.DiskRunStore(); st != nil {
		fmt.Fprintf(w, "%srun store: %s\n", prefix, st.Stats())
	}
}

// startProfiles arms -cpuprofile/-memprofile capture; the returned stop
// function is safe to call unconditionally.
func (v verbFlags) startProfiles(errw io.Writer) (func(), bool) {
	cpu, mem := "", ""
	if v.cpuprofile != nil {
		cpu = *v.cpuprofile
	}
	if v.memprofile != nil {
		mem = *v.memprofile
	}
	stop, err := prof.Start(cpu, mem)
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return func() {}, false
	}
	return func() {
		if err := stop(); err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
		}
	}, true
}

// select resolves the experiment selection from -all / positional names.
func (v verbFlags) selectExps() ([]exp.Experiment, error) {
	if *v.all {
		if v.fs.NArg() != 0 {
			return nil, fmt.Errorf("-all and explicit names are mutually exclusive")
		}
		return exp.All(), nil
	}
	if v.fs.NArg() == 0 {
		return nil, fmt.Errorf("no experiments selected (name them or pass -all)")
	}
	return exp.Resolve(v.fs.Args())
}

func (v verbFlags) options(errw io.Writer) exp.Options {
	v.setKernelWorkers()
	o := exp.Options{Workers: *v.workers, Workload: v.workload()}
	if *v.verbose {
		o.Observer = exp.ProgressObserver(errw, "cbctl")
	}
	return o
}

// setKernelWorkers applies -kworkers. The kernel worker count is a
// process-wide execution setting, not part of any scenario's configuration
// (results are bit-identical for every value, so it must never enter a
// cache key or a golden).
func (v verbFlags) setKernelWorkers() {
	psmpi.SetDefaultKernelWorkers(*v.kworkers)
}

// moduleRoot resolves the source tree for on-disk goldens ("" = embedded
// only).
func (v verbFlags) moduleRoot() string {
	if v.chdir != nil && *v.chdir != "" {
		return *v.chdir
	}
	return exp.FindModuleRoot(".")
}

func runList(args []string, out, errw io.Writer) int {
	v := newFlags("list", errw, expFlags|rootFlag)
	if code, ok := v.parse(args); !ok {
		return code
	}
	if *v.all || v.fs.NArg() != 0 {
		fmt.Fprintln(errw, "cbctl: list takes no experiment arguments")
		return 2
	}
	root := v.moduleRoot()
	nameW, gridW := len("EXPERIMENT"), len("GRID")
	for _, e := range exp.All() {
		nameW = max(nameW, len(e.Name))
		gridW = max(gridW, len(e.Grid))
	}
	fmt.Fprintf(out, "%-*s  %3s  %-8s  %-6s  %7s  %s\n", nameW, "EXPERIMENT", "VER", "PROFILE", "GOLDEN", "BUDGETS", "TITLE")
	for _, e := range exp.All() {
		golden := "yes"
		if !exp.HasGolden(e.Name, root) {
			golden = "NO"
		}
		fmt.Fprintf(out, "%-*s  %3d  %-8s  %-6s  %7d  %s\n",
			nameW, e.Name, e.Version, e.Profile, golden, len(e.Budgets), e.Title)
		if *v.verbose {
			fmt.Fprintf(out, "%-*s       grid: %s\n", nameW, "", e.Grid)
			for _, b := range e.Budgets {
				fmt.Fprintf(out, "%-*s       budget: %s %s %g\n", nameW, "", b.Measure, b.Kind, b.Bound)
			}
		}
	}
	return 0
}

func runRun(args []string, out, errw io.Writer) int {
	v := newFlags("run", errw, expFlags|outputFlags|profileFlags|workloadFlags)
	if code, ok := v.parse(args); !ok {
		return code
	}
	exps, err := v.selectExps()
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return 2
	}
	if *v.text && *v.ndjson {
		fmt.Fprintln(errw, "cbctl: -text and -ndjson are mutually exclusive")
		return 2
	}
	if !v.openStore(errw) {
		return 2
	}
	stopProf, ok := v.startProfiles(errw)
	if !ok {
		return 2
	}
	defer stopProf()
	opts := v.options(errw)
	for _, e := range exps {
		doc, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(errw, "cbctl: run %s: %v\n", e.Name, err)
			return 1
		}
		if *v.ndjson {
			line, err := doc.NDJSON()
			if err != nil {
				fmt.Fprintf(errw, "cbctl: %v\n", err)
				return 1
			}
			out.Write(line)
			continue
		}
		if *v.text && e.Render != nil {
			text, err := e.Render(doc)
			if err != nil {
				fmt.Fprintf(errw, "cbctl: render %s: %v\n", e.Name, err)
				return 1
			}
			fmt.Fprintln(out, text)
			continue
		}
		b, err := doc.Canonical()
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		out.Write(b)
	}
	v.reportStats(errw)
	return 0
}

func runDiff(args []string, out, errw io.Writer) int {
	v := newFlags("diff", errw, expFlags|toleranceFlag|rootFlag)
	if code, ok := v.parse(args); !ok {
		return code
	}
	exps, err := v.selectExps()
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return 2
	}
	if !v.openStore(errw) {
		return 2
	}
	opts := v.options(errw)
	root := v.moduleRoot()
	failed := 0
	for _, e := range exps {
		golden, source, err := exp.Golden(e.Name, root)
		if err != nil {
			fmt.Fprintf(out, "FAIL %-12s missing golden (%s) — bless it first\n", e.Name, exp.GoldenPath(e.Name))
			failed++
			continue
		}
		doc, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(out, "FAIL %-12s run error: %v\n", e.Name, err)
			failed++
			continue
		}
		fresh, err := doc.Canonical()
		if err != nil {
			fmt.Fprintf(out, "FAIL %-12s %v\n", e.Name, err)
			failed++
			continue
		}
		rep, err := exp.Diff(e, golden, fresh, v.tolerance != nil && *v.tolerance)
		if err != nil {
			fmt.Fprintf(out, "FAIL %-12s %v\n", e.Name, err)
			failed++
			continue
		}
		switch {
		case rep.Clean() && rep.Status == exp.Identical:
			fmt.Fprintf(out, "ok   %-12s identical to golden (%s)\n", e.Name, source)
		case rep.Clean():
			fmt.Fprintf(out, "ok   %-12s within tolerance (%d numeric deltas absorbed)\n", e.Name, len(rep.Tolerated))
		default:
			fmt.Fprintf(out, "FAIL %-12s %s: %d drifts, %d budget violations\n",
				e.Name, rep.Status, len(rep.Drifts), len(rep.Violations))
			fmt.Fprint(out, rep.Summary(8))
			failed++
		}
	}
	v.reportStats(errw)
	if failed > 0 {
		fmt.Fprintf(out, "\ncbctl diff: %d of %d experiments failed\n", failed, len(exps))
		fmt.Fprintln(out, "If the change is intentional, re-record with: cbctl bless -all")
		return 1
	}
	return 0
}

func runBless(args []string, out, errw io.Writer) int {
	v := newFlags("bless", errw, expFlags|rootFlag)
	if code, ok := v.parse(args); !ok {
		return code
	}
	exps, err := v.selectExps()
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return 2
	}
	root := v.moduleRoot()
	if root == "" {
		fmt.Fprintln(errw, "cbctl: bless needs the source tree; run from inside the module or pass -C <root>")
		return 2
	}
	if !v.openStore(errw) {
		return 2
	}
	opts := v.options(errw)
	warned := false
	for _, e := range exps {
		doc, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(errw, "cbctl: bless %s: %v\n", e.Name, err)
			return 1
		}
		b, err := doc.Canonical()
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		for _, viol := range e.CheckBudgets(doc) {
			fmt.Fprintf(errw, "cbctl: warning: %s: %s (blessed anyway; revise the budget if intentional)\n", e.Name, viol)
			warned = true
		}
		p, err := exp.WriteGolden(root, e.Name, b)
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "blessed %-12s -> %s\n", e.Name, p)
	}
	if warned {
		fmt.Fprintln(errw, "cbctl: note: budget violations persist until the declared bounds are revised in internal/exp")
	}
	v.reportStats(errw)
	return 0
}

// benchBaselineFile is the checked-in benchmark baseline at the module root.
const benchBaselineFile = "BENCH_kernel.json"

// runBench converts `go test -bench -benchmem` output into the canonical
// baseline JSON, records it (-update), or gates a fresh run against the
// checked-in baseline (-check).
func runBench(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("cbctl bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	in := fs.String("in", "-", "benchmark output to parse (default: stdin)")
	check := fs.Bool("check", false, "compare against the checked-in baseline; non-zero exit on regressions")
	update := fs.Bool("update", false, "record the parsed run as the new checked-in baseline")
	maxRegress := fs.Float64("max-regress", 0.25, "tolerated fractional ns/op slowdown per benchmark in -check mode")
	maxAllocs := fs.Float64("max-allocs-regress", -1, "tolerated fractional allocs/op growth in -check mode (default: -max-regress; allocs are machine-independent, so gate them tightly even when ns/op needs cross-machine slack)")
	note := fs.String("note", "", "provenance note stored in the baseline (with -update)")
	chdir := fs.String("C", "", "module root for the baseline file (default: walk up from cwd)")
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	if fs.NArg() != 0 || (*check && *update) {
		fmt.Fprintln(errw, "cbctl: bench takes no positional arguments; -check and -update are mutually exclusive")
		return 2
	}

	src := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		defer f.Close()
		src = f
	}
	fresh, err := benchdata.Parse(src)
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return 1
	}
	fresh.Note = *note

	root := *chdir
	if root == "" {
		root = exp.FindModuleRoot(".")
	}
	switch {
	case *update:
		if root == "" {
			fmt.Fprintln(errw, "cbctl: bench -update needs the source tree; run from inside the module or pass -C <root>")
			return 2
		}
		// The speedups section is hand-maintained policy, not measurement:
		// carry it forward from the previous baseline across re-records.
		if old, err := os.ReadFile(filepath.Join(root, benchBaselineFile)); err == nil {
			if prev, err := benchdata.ParseBaseline(old); err == nil {
				fresh.Speedups = prev.Speedups
			}
		}
		b, err := fresh.Canonical()
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		path := filepath.Join(root, benchBaselineFile)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "recorded %d benchmarks -> %s\n", len(fresh.Benchmarks), path)
		return 0
	case *check:
		if root == "" {
			fmt.Fprintln(errw, "cbctl: bench -check needs the source tree; run from inside the module or pass -C <root>")
			return 2
		}
		data, err := os.ReadFile(filepath.Join(root, benchBaselineFile))
		if err != nil {
			fmt.Fprintf(errw, "cbctl: no baseline: %v (record one with: cbctl bench -update)\n", err)
			return 1
		}
		baseline, err := benchdata.ParseBaseline(data)
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		if *maxAllocs < 0 {
			*maxAllocs = *maxRegress
		}
		regs := benchdata.Compare(baseline, fresh, *maxRegress, *maxAllocs)
		cpus := runtime.NumCPU()
		regs = append(regs, benchdata.CheckSpeedups(baseline, fresh, cpus)...)
		// An unenforceable speedup gate must be loud: a 2-CPU runner passing
		// -check is not evidence that the parallel kernel still wins.
		for _, s := range benchdata.SkippedSpeedups(baseline, cpus) {
			fmt.Fprintf(out, "skipped %s vs %s speedup gate: %d CPUs < %d required\n",
				s.Name, s.Base, cpus, s.MinCPUs)
		}
		if len(regs) == 0 {
			fmt.Fprintf(out, "ok   %d benchmarks within %.0f%% ns/op, %.0f%% allocs/op of %s\n",
				len(baseline.Benchmarks), *maxRegress*100, *maxAllocs*100, benchBaselineFile)
			return 0
		}
		for _, r := range regs {
			fmt.Fprintf(out, "FAIL %s\n", r)
		}
		fmt.Fprintf(out, "\ncbctl bench: %d of %d benchmarks regressed beyond %.0f%%\n",
			len(regs), len(baseline.Benchmarks), *maxRegress*100)
		fmt.Fprintln(out, "If the change is intentional, re-record with: go test ./internal/bench -run xxx -bench Kernel -benchmem | cbctl bench -update")
		return 1
	default:
		b, err := fresh.Canonical()
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		out.Write(b)
		return 0
	}
}
