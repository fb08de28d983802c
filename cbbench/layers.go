package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"

	"clusterbooster/internal/psmpi"
)

// cpuModules are the internal modules whose share of CPU samples is
// reported as <module>.cpu_frac.
var cpuModules = []string{
	"beegfs", "bench", "benchdata", "core", "engine", "exp", "fabric", "ioev",
	"ioexp", "machine", "msa", "nam", "nvme", "omps", "prof", "psmpi",
	"resilience", "runstore", "sched", "scr", "sion", "sweep", "vclock", "xpic",
}

// partialMetrics are the per-layer metrics only some runners produce: the
// psmpi counts of the virtual-time traced pass and the simulated xPic
// statistics. A workload that does not produce one still reports it, as 0,
// and the printed table marks it as not measured.
var partialMetrics = []string{"psmpi.sends", "psmpi.recvs", "psmpi.waits", "psmpi.comm_vfrac", "xpic.cg_iters", "xpic.sim_makespan_s"}

// perLayer derives the per-layer metrics of a traced run. Counts come from
// the first profiled pass (every pass reproduces them or fails its check)
// and psmpi counts from the virtual-time traced pass vt, nil when the
// workload's ops cannot record that trace; host times are medians over the
// profiled passes, and CPU shares cover all of them. It also returns the
// names of the metrics the workload did not produce.
func perLayer(untraced, traced []passStat, vt *passStat, prof cpuProfile, spans *tracer, putMs float64) (map[string]metric, []string) {
	m := map[string]metric{}
	ref := traced[0]
	for k, v := range ref.exact {
		m[k] = metric{v, unitOf(k)}
	}
	if vt != nil {
		for k, v := range vt.traceExact {
			m[k] = metric{v, unitOf(k)}
		}
	}
	var unmeasured []string
	for _, k := range partialMetrics {
		if _, ok := m[k]; !ok {
			m[k] = metric{0, unitOf(k)}
			unmeasured = append(unmeasured, k)
		}
	}
	for k := range ref.timed {
		vals := make([]float64, len(traced))
		for i, p := range traced {
			vals[i] = p.timed[k]
		}
		m[k] = metric{median(vals), unitOf(k)}
	}
	m["engine.ns_per_event"] = metric{1e9 * ratio(m["engine.busy_s"].Value, m["engine.events"].Value), "ns"}
	for name, span := range map[string]string{
		"core.boot_s":     "core.New",
		"core.run_s":      "core.RunXPic",
		"exp.request_s":   "exp.Run",
		"exp.canonical_s": "exp.Canonical",
	} {
		m[name] = metric{median(spans.perPass(span)), "s"}
	}
	m["runstore.put_ms"] = metric{putMs, "ms"}
	for _, mod := range cpuModules {
		m[mod+".cpu_frac"] = metric{prof.frac(mod), "frac"}
	}
	m["go.other_cpu_frac"] = metric{prof.frac(""), "frac"}
	m["bench.cpu_samples"] = metric{float64(prof.samples), "count"}
	walls := func(ps []passStat) float64 {
		v := make([]float64, len(ps))
		for i, p := range ps {
			v[i] = p.wall
		}
		return median(v)
	}
	m["bench.tracing_overhead_frac"] = metric{ratio(walls(traced), walls(untraced)) - 1, "frac"}
	return m, unmeasured
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "frac"):
		return "frac"
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	}
	return "count"
}

// printPerLayer prints the per-layer table, every CPU share with its
// sample count as the base and every metric the workload did not produce
// marked as such.
func printPerLayer(m map[string]metric, unmeasured []string, prof cpuProfile) {
	for _, k := range sortedKeys(m) {
		v := m[k]
		note := ""
		if strings.HasSuffix(k, ".cpu_frac") {
			mod := strings.TrimSuffix(k, ".cpu_frac")
			if mod == "go.other" {
				mod = ""
			}
			note = fmt.Sprintf("  (%d of %d samples)", prof.byModule[mod], prof.samples)
		}
		if slices.Contains(unmeasured, k) {
			note = "  (not measured on this workload; reported as 0)"
		}
		fmt.Printf("  %-28s %14.6g %-5s%s\n", k, v.Value, v.Unit, note)
	}
}

// printProvenance prints where and how the numbers were taken.
func printProvenance(workload string, seed int64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("provenance: workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s kernel_workers=%d sweep_workers=GOMAXPROCS\n",
		workload, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit,
		psmpi.DefaultKernelWorkers())
}

// cpuModel reads the host CPU's model name.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
