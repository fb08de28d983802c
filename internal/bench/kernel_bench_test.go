package bench

// Hot-path benchmarks for the execution kernel: how fast the host can turn
// the simulated MPI traffic of the paper's workloads. These are wall-clock
// benchmarks of the simulator itself (virtual-time results are asserted
// elsewhere); run them before and after kernel changes:
//
//	go test ./internal/bench -run xxx -bench Kernel -benchmem
//
// CI executes them with -benchtime=1x as a smoke test so they cannot rot.

import (
	"testing"

	"clusterbooster/internal/core"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioexp"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/xpic"
)

// benchRuntime boots a runtime over c cluster and b booster nodes.
func benchRuntime(c, b int) *psmpi.Runtime {
	sys := machine.New(c, b)
	return psmpi.NewRuntime(sys, fabric.New(sys, fabric.Config{}), psmpi.Config{})
}

// benchChunk is how many iterations one launched job performs. Chunking b.N
// into fresh jobs on fresh systems keeps the virtual link history at a
// realistic per-job size (a benchmark that ran millions of messages over one
// fabric would mostly measure the ever-growing reservation history, which no
// real sweep scenario has) and includes the job boot cost sweeps actually
// pay.
const benchChunk = 512

// benchPingPong bounces one message of the given size back and forth between
// two cluster ranks, b.N times across chunked jobs.
func benchPingPong(b *testing.B, bytes int) {
	payload := make([]float64, bytes/8)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += benchChunk {
		iters := min(benchChunk, b.N-done)
		rt := benchRuntime(2, 0)
		nodes := rt.System().Module(machine.Cluster)[:2]
		_, err := rt.Launch(psmpi.LaunchSpec{Nodes: nodes, Main: func(p *psmpi.Proc) error {
			w := p.World()
			buf := make([]float64, len(payload))
			for i := 0; i < iters; i++ {
				if p.Rank() == 0 {
					p.SendF64(w, 1, 0, payload)
					p.RecvF64(w, 1, 1, buf)
				} else {
					p.RecvF64(w, 0, 0, buf)
					p.SendF64(w, 0, 1, payload)
				}
			}
			return nil
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelPingPongEager measures the eager-protocol p2p hot path
// (1 KiB, below the 16 KiB threshold).
func BenchmarkKernelPingPongEager(b *testing.B) { benchPingPong(b, 1<<10) }

// BenchmarkKernelPingPongRendezvous measures the rendezvous-protocol p2p hot
// path (256 KiB: RTS/CTS handshake plus blocking-sender completion).
func BenchmarkKernelPingPongRendezvous(b *testing.B) { benchPingPong(b, 256<<10) }

// benchAllreduce performs b.N 8-element allreduces over the given rank
// count, across chunked jobs.
func benchAllreduce(b *testing.B, ranks int) {
	chunk := benchChunk
	if ranks >= 256 {
		chunk = 64 // large jobs: keep per-job virtual history realistic
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		iters := min(chunk, b.N-done)
		rt := benchRuntime(ranks, 0)
		nodes := rt.System().Module(machine.Cluster)[:ranks]
		_, err := rt.Launch(psmpi.LaunchSpec{Nodes: nodes, Main: func(p *psmpi.Proc) error {
			w := p.World()
			buf := make([]float64, 8)
			for i := 0; i < iters; i++ {
				buf[0] = float64(p.Rank())
				p.AllreduceF64(w, buf, psmpi.OpSum)
			}
			return nil
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelAllreduce8 exercises the collective tree at prototype scale.
func BenchmarkKernelAllreduce8(b *testing.B) { benchAllreduce(b, 8) }

// BenchmarkKernelAllreduce64 exercises the collective tree at 8x the
// prototype's Booster, where host synchronization starts to dominate.
func BenchmarkKernelAllreduce64(b *testing.B) { benchAllreduce(b, 64) }

// BenchmarkKernelAllreduce512 exercises the collective tree far past the
// prototype — the scale the fig8-scale experiments run at, where the
// goroutine-per-rank rendezvous implementation paid for host synchronisation
// and allocation on every hop.
func BenchmarkKernelAllreduce512(b *testing.B) { benchAllreduce(b, 512) }

// launchOrderFree runs main on the first n Cluster nodes of a fresh machine
// as an order-free launch, with the benchmark timer stopped, and returns
// the kernel events the job processed. A main times its steady state
// itself with timeRank0.
func launchOrderFree(b *testing.B, n int, main psmpi.MainFunc) uint64 {
	b.StopTimer()
	rt := benchRuntime(n, 0)
	res, err := rt.Launch(psmpi.LaunchSpec{
		Nodes:     rt.System().Module(machine.Cluster)[:n],
		Main:      main,
		OrderFree: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Engine.Events
}

// timeRank0 runs fn with the benchmark timer running, as seen from rank 0.
// fn must start right after a collective that every rank has reached (so
// the job has booted) and end with one (so only exits remain); the serial
// kernel runs one rank at a time, so the bracket then holds the work of
// every rank, and ns/op and allocs/op do not depend on b.N.
func timeRank0(b *testing.B, p *psmpi.Proc, fn func()) {
	if p.Rank() != 0 {
		fn()
		return
	}
	b.StartTimer()
	fn()
	b.StopTimer()
}

// benchAllreduceScalar performs b.N AllreduceScalar calls over n ranks of
// an order-free launch (the CG solver's reduction), across chunked jobs,
// and reports the kernel events per call; job boot is excluded from all
// three metrics.
func benchAllreduceScalar(b *testing.B, n int) {
	const chunk = 64
	job := func(iters int) psmpi.MainFunc {
		return func(p *psmpi.Proc) error {
			w := p.World()
			v := p.AllreduceScalar(w, float64(p.Rank()), psmpi.OpSum)
			timeRank0(b, p, func() {
				for i := 0; i < iters; i++ {
					v = p.AllreduceScalar(w, v, psmpi.OpSum) / float64(n)
				}
			})
			return nil
		}
	}
	var events, boot uint64
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		events += launchOrderFree(b, n, job(min(chunk, b.N-done)))
		boot += launchOrderFree(b, n, job(0))
	}
	b.ReportMetric(float64(events-boot)/float64(b.N), "events/op")
}

// BenchmarkKernelAllreduceScalar1024 is one CG reduction at the fig8-scale
// strong-scaling limit (n = 1024).
func BenchmarkKernelAllreduceScalar1024(b *testing.B) { benchAllreduceScalar(b, 1024) }

// BenchmarkKernelAllreduceScalar4096 is one CG reduction at the
// fig8-scale4096 limit (n = 4096).
func BenchmarkKernelAllreduceScalar4096(b *testing.B) { benchAllreduceScalar(b, 4096) }

// BenchmarkKernelCGIteration times one conjugate-gradient iteration of the
// implicit field solve at n = 1024 on the scale profile: two halo
// exchanges of the three E components and two global reductions per rank.
// One job sets the solve up and then runs b.N iterations; job boot and
// set-up are excluded from all three metrics.
func BenchmarkKernelCGIteration(b *testing.B) {
	const n = 1024
	cfg := benchScaleConfig()
	job := func(iters int) psmpi.MainFunc {
		return func(p *psmpi.Proc) error {
			g := xpic.NewGrid(cfg.NX, cfg.NY, p.Rank(), n)
			ex, bz, rhoe := g.F(xpic.FEx), g.F(xpic.FBz), g.F(xpic.FRhoE)
			for i := range ex {
				v := float64((i+p.Rank())%7) - 3
				ex[i], bz[i], rhoe[i] = v, v/2, 1+v*v
			}
			fld := xpic.NewFieldSolver(g, cfg)
			fld.StartCG(p, p.World())
			timeRank0(b, p, func() {
				for i := 0; i < iters; i++ {
					fld.CGIteration(p, p.World())
				}
			})
			return nil
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	events := launchOrderFree(b, n, job(b.N))
	setup := launchOrderFree(b, n, job(0))
	b.ReportMetric(float64(events-setup)/float64(b.N), "events/op")
}

// BenchmarkKernelFig7Split runs the Fig. 7 C+B pipeline (spawn, split
// solvers, Issend/Irecv exchange, halo traffic, collective diagnostics) on a
// communication-heavy workload: a small grid over many steps, so the
// wall-clock weights the pipeline machinery — the execution kernel's hot
// path — alongside the physics kernels.
func BenchmarkKernelFig7Split(b *testing.B) {
	cfg := xpic.QuickConfig(200)
	cfg.ParticleScale = 32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.New(1, 1, core.Options{WithoutStorage: true})
		if _, err := sys.RunXPicSplit(1, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFig8SplitN8 runs the paper sweep's heaviest scenario — the
// ci-quick Fig. 8 C+B point at n=8 (16 ranks: spawn, halo and migration
// traffic, CG collectives, interface exchange) — end to end.
func BenchmarkKernelFig8SplitN8(b *testing.B) {
	cfg := xpic.Table2Config()
	cfg.Steps = 60
	cfg.ParticleScale = 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.New(8, 8, core.Options{WithoutStorage: true})
		if _, err := sys.RunXPicSplit(8, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFigIO runs the fig-io family's heaviest I/O strategies end
// to end — the SIONlib global container and the async BeeOND cache at the
// n=16, 8 MiB grid point — exercising the whole migrated I/O-on-kernel
// stack: device queues, striped FS writes, cache flush callbacks, barriers.
func BenchmarkKernelFigIO(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range []ioexp.Strategy{ioexp.SIONGlobal, ioexp.CacheAsync} {
			if _, err := ioexp.Run(ioexp.Params{Strategy: s, Nodes: 16, Size: 8 << 20}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
