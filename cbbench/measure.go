package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clusterbooster/internal/engine"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/runstore"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/sweep"
)

// runner runs the passes of one set-up workload.
type runner interface {
	// pass runs every op of the input set once, in order. spans is nil in
	// untraced passes.
	pass(spans *tracer, passID int) passOutput
	close() error
}

// opCount counts ops and the ones that errored or failed the output check.
type opCount struct{ ops, failed int }

// passOutput is what a runner reports about one pass.
type passOutput struct {
	opCount
	// exact holds simulated statistics that must repeat bit for bit in
	// every pass; traceExact the ones only a traced pass produces.
	exact, traceExact map[string]float64
}

// passStat is one measured pass: its host cost, the output of the runner
// and the per-pass deltas of the counters the program exposes.
type passStat struct {
	passOutput
	wall, cpu float64 // host seconds; cpu is user+system over all threads
	// timed holds per-pass values that vary with the host (kernel busy
	// time, store read time, Go runtime statistics).
	timed map[string]float64
	// invariant is "" when Events == Switches + Kept + Callbacks held.
	invariant string
}

// measure runs passes until d has elapsed, at least one. The in-process
// scenario cache is emptied before each pass so every pass does the same
// work; the persistent run store, where one is connected, stays warm.
func measure(r runner, d time.Duration, spans *tracer) []passStat {
	var out []passStat
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		sweep.ResetRunCache()
		before := takeSnapshot()
		o := r.pass(spans, len(out))
		after := takeSnapshot()
		out = append(out, after.delta(before, o))
	}
	return out
}

// checkPasses marks every op of a pass failed when the pass breaks the
// kernel's event invariant or does not reproduce the first pass's counts.
func checkPasses(passes []passStat) {
	var traceRef map[string]float64
	for i := range passes {
		p := &passes[i]
		why := p.invariant
		if why == "" {
			why = sameCounts(passes[0].exact, p.exact)
		}
		if why == "" && p.traceExact != nil {
			if traceRef == nil {
				traceRef = p.traceExact
			}
			why = sameCounts(traceRef, p.traceExact)
		}
		if why != "" {
			fmt.Printf("pass %d failed its counter check: %s\n", i, why)
			p.failed = p.ops
		}
	}
}

// sameCounts describes the first difference between two count sets, or
// returns "".
func sameCounts(want, got map[string]float64) string {
	for _, k := range sortedKeys(want) {
		if g, ok := got[k]; !ok || g != want[k] {
			return fmt.Sprintf("%s = %v, first pass %v", k, got[k], want[k])
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("%s not counted in the first pass", k)
		}
	}
	return ""
}

// runtimeMetrics are the Go runtime statistics read around each pass.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
}

// snapshot is the process's counters at one instant.
type snapshot struct {
	at    time.Time
	cpu   float64
	eng   engine.GlobalStats
	sch   sched.Stats
	io    ioev.Stats
	cache sweep.CacheStats
	store runstore.Stats
	rt    []metrics.Sample
}

func takeSnapshot() snapshot {
	s := snapshot{
		eng:   engine.Global(),
		sch:   sched.Global(),
		io:    ioev.Global(),
		cache: sweep.RunCacheStats(),
		rt:    make([]metrics.Sample, len(runtimeMetrics)),
	}
	if st := sweep.DiskRunStore(); st != nil {
		s.store = st.Stats()
	}
	for i, name := range runtimeMetrics {
		s.rt[i].Name = name
	}
	metrics.Read(s.rt)
	s.cpu = processCPU()
	s.at = time.Now()
	return s
}

// delta turns two snapshots around a pass into its passStat.
func (s snapshot) delta(b snapshot, o passOutput) passStat {
	e, be := s.eng, b.eng
	events := e.Events - be.Events
	switches := e.Switches - be.Switches
	kept := e.Kept - be.Kept
	callbacks := e.Callbacks - be.Callbacks
	p := passStat{
		passOutput: o,
		wall:       s.at.Sub(b.at).Seconds(),
		cpu:        s.cpu - b.cpu,
	}
	if events != switches+kept+callbacks {
		p.invariant = fmt.Sprintf("engine events %d != switches %d + kept %d + callbacks %d",
			events, switches, kept, callbacks)
	}
	if p.exact == nil {
		p.exact = map[string]float64{}
	}
	for k, v := range map[string]uint64{
		"engine.events":        events,
		"engine.switches":      switches,
		"engine.kept":          kept,
		"engine.callbacks":     callbacks,
		"engine.parks":         e.Parks - be.Parks,
		"engine.tasks":         uint64(e.Tasks - be.Tasks),
		"engine.peak_parked":   uint64(e.PeakParked),
		"sched.started":        s.sch.Started - b.sch.Started,
		"sched.backfilled":     s.sch.Backfilled - b.sch.Backfilled,
		"sched.requeues":       s.sch.Requeues - b.sch.Requeues,
		"ioev.container_bytes": s.io.ContainerBytes - b.io.ContainerBytes,
		"ioev.cache_flushes":   s.io.CacheFlushes - b.io.CacheFlushes,
		"ioev.buddy_copies":    s.io.BuddyCopies - b.io.BuddyCopies,
		"sweep.cache_hits":     s.cache.Hits - b.cache.Hits,
		"sweep.cache_misses":   s.cache.Misses - b.cache.Misses,
		"runstore.hits":        s.store.Hits - b.store.Hits,
		"runstore.misses":      s.store.Misses - b.store.Misses,
	} {
		p.exact[k] = float64(v)
	}
	rt := func(i int) metrics.Value { return s.rt[i].Value }
	brt := func(i int) metrics.Value { return b.rt[i].Value }
	gc := rt(3).Float64() - brt(3).Float64()
	used := (rt(4).Float64() - brt(4).Float64()) - (rt(5).Float64() - brt(5).Float64())
	p.timed = map[string]float64{
		"engine.busy_s":        (e.Wall - be.Wall).Seconds(),
		"runstore.get_ms":      float64(s.store.GetNs-b.store.GetNs) / 1e6,
		"go.alloc_mb":          float64(rt(0).Uint64()-brt(0).Uint64()) / 1e6,
		"go.allocs":            float64(rt(1).Uint64() - brt(1).Uint64()),
		"go.gc_cycles":         float64(rt(2).Uint64() - brt(2).Uint64()),
		"go.gc_cpu_frac":       ratio(gc, used),
		"go.sched_wait_p50_us": histMedian(rt(6).Float64Histogram(), brt(6).Float64Histogram()) * 1e6,
	}
	return p
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// histMedian returns the median of the observations added between two
// readings of a cumulative histogram, as the upper edge of its bucket (the
// lower edge for the open top bucket).
func histMedian(after, before *metrics.Float64Histogram) float64 {
	var total uint64
	counts := make([]uint64, len(after.Counts))
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if 2*seen >= total {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return 0
}

// processCPU returns the process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so the
// peak covers the timed passes and not set-up. It is best effort: where
// the reset is refused the peak covers set-up too.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark in MB (10^6 bytes).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
