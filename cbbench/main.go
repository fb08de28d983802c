// Command cbbench is the end-to-end benchmark of the Cluster-Booster
// simulator. One process runs one workload as a closed loop: a single
// client issues one op at a time and waits for it, on the default serial
// execution kernel. A pass runs every op of the workload's input set once;
// the benchmark runs passes for the requested number of seconds and reports
// medians over them.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash cbbench/run.sh --workload xpic-paper --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, taken from a
// traced phase that never feeds the end-to-end numbers. README.md describes
// the workloads and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"clusterbooster/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("cbbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long to run timed passes")
	trace := fs.Int("trace", 0, "1 runs the traced phase and prints the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the run store and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "cbbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cbbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cbbench: encode result: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload sets the workload up w.setups times, keeps the last set-up,
// and runs timed passes. A traced run spends a third of its time on
// untraced passes, a third on passes under the CPU profiler with spans,
// and then, for a workload whose ops honour it, runs one pass with the
// psmpi virtual-time trace, which costs more than the profile and would
// skew its split.
func runWorkload(w workload, seed int64, d time.Duration, traced bool, out string) (result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	printProvenance(w.name, seed)

	var r runner
	var setups []float64
	var warm opCount
	for i := 0; i < w.setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return result{}, err
			}
		}
		start := time.Now()
		var err error
		r, warm, err = w.setup(seed, out)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close()
	var putMs float64 // the last set-up's store writes
	if st := sweep.DiskRunStore(); st != nil {
		putMs = float64(st.Stats().PutNs) / 1e6
	}

	resetPeakRSS()
	var untraced, profiled, vtraced []passStat
	var prof cpuProfile
	var spans *tracer
	if !traced {
		untraced = measure(r, d, nil)
	} else {
		untraced = measure(r, d/3, nil)
		spans = newTracer(false)
		var err error
		prof, err = profileCPU(func() { profiled = measure(r, d/3, spans) })
		if err != nil {
			return result{}, err
		}
		if w.vtrace {
			vtraced = measure(r, 0, newTracer(true))
		}
	}
	peak := peakRSSMB()

	all := append(append(append([]passStat(nil), untraced...), profiled...), vtraced...)
	checkPasses(all)
	res := result{Attempted: warm.ops, Failed: warm.failed}
	for _, p := range all {
		res.Attempted += p.ops
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0

	e2e := endToEnd(untraced, setups, peak, res)
	fmt.Printf("setup_s: median of %.3f\n", setups)
	printEndToEnd(untraced, e2e)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	path, err := spans.write(out, w.name, seed)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans.spans), path)
	var vt *passStat
	if len(vtraced) > 0 {
		vt = &vtraced[0]
	}
	m, unmeasured := perLayer(untraced, profiled, vt, prof, spans, putMs)
	res.Metrics = m
	printPerLayer(m, unmeasured, prof)
	return res, nil
}

// endToEnd derives the end-to-end metrics from the untraced passes.
func endToEnd(passes []passStat, setups []float64, peakMB float64, res result) map[string]metric {
	walls := make([]float64, len(passes))
	cpus := make([]float64, len(passes))
	for i, p := range passes {
		walls[i], cpus[i] = p.wall, p.cpu
	}
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"pass_s":      {median(walls), "s"},
		"pass_cpu_s":  {median(cpus), "s"},
		"peak_rss_mb": {peakMB, "MB"},
		"ops_ok_frac": {float64(res.Attempted-res.Failed) / float64(res.Attempted), "frac"},
	}
}

func printEndToEnd(passes []passStat, m map[string]metric) {
	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wall
	}
	fmt.Printf("pass_s: median %.4f s over %d passes; %s; passes %.3f\n", m["pass_s"].Value, len(passes), tailNote(walls), walls)
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-14s %12.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// tailNote prints the highest percentile with at least ten passes beyond
// it, or says why there is none.
func tailNote(walls []float64) string {
	n := len(walls)
	if n < 20 {
		return fmt.Sprintf("no tail percentile (needs 20 passes, have %d)", n)
	}
	q := 100 * (n - 10) / n
	s := append([]float64(nil), walls...)
	sort.Float64s(s)
	return fmt.Sprintf("p%d %.4f s", q, s[(n*q)/100-1])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
