package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/detsum"
	"repro/internal/gpaw"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapPeak tracks the largest live heap a GC cycle marked
// ("/gc/heap/live:bytes"), sampled every millisecond on one goroutine
// that stop ends and waits for.
type heapPeak struct {
	quit, done chan struct{}
	peak       atomic.Uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			for v := s[0].Value.Uint64(); ; {
				old := h.peak.Load()
				if v <= old || h.peak.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak live heap in bytes since the previous take.
func (h *heapPeak) take() float64 { return float64(h.peak.Swap(0)) }

func (h *heapPeak) stop() {
	close(h.quit)
	<-h.done
}

// rtDelta is the Go runtime's accounting over one attempt.
type rtDelta struct {
	allocs, allocBytes, gcCycles float64
	gcCPU, totalCPU              float64 // runtime-estimated CPU seconds
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtDelta {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		panic("runtime metric " + rtNames[i] + " unsupported")
	}
	return rtDelta{v(0), v(1), v(2), v(3), v(4)}
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// sink keeps the dot microbenchmark's results alive.
var sink float64

// dotNs times grid.Dot (exact detsum reduction) and a plain
// float64 loop over the same interior of an n³ grid, in ns per
// element, each the median of several timed batches.
func dotNs(n int, seed uint64) (exact, plain float64) {
	r := rand.New(rand.NewPCG(seed, 7))
	a, b := grid.New(n, n, n, 2), grid.New(n, n, n, 2)
	a.FillFunc(func(int, int, int) float64 { return r.Float64() - 0.5 })
	b.FillFunc(func(int, int, int) float64 { return r.Float64() - 0.5 })
	ad, bd := a.Data(), b.Data()
	plainDot := func() float64 {
		s := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				x, y := ad[a.Index(i, j, 0):], bd[b.Index(i, j, 0):]
				for k := 0; k < n; k++ {
					s += x[k] * y[k]
				}
			}
		}
		return s
	}
	elems := float64(n * n * n)
	bench := func(f func() float64) float64 {
		reps := 1
		for {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				sink += f()
			}
			if time.Since(t0) > 2*time.Millisecond {
				break
			}
			reps *= 2
		}
		var ns []float64
		for b := 0; b < 9; b++ {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				sink += f()
			}
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/(float64(reps)*elems))
		}
		return median(ns)
	}
	return bench(func() float64 { return a.Dot(b) }), bench(plainDot)
}

// worldProbe holds the layer probes run on the workload's own modeled
// world after the SCF attempts: a cold-start Hartree CG on the
// converged density and an exact-accumulator allreduce.
type worldProbe struct {
	coldIters    int
	coldVirt     time.Duration // slowest rank's virtual time in the cold CG
	accAllreduce time.Duration // virtual time per detsum allreduce
}

const accReps = 64

func probeWorld(w workload, density *grid.Grid) (worldProbe, error) {
	var p worldProbe
	n := w.ranks()
	cfg := w.config()
	world := w.newWorld()
	iters := make([]int, n)
	errs := make([]error, n)
	cg := make([]time.Duration, n)
	acc := make([]time.Duration, n)
	err := world.Run(func(c *mpi.Comm) {
		r := c.Rank()
		d, err := gpaw.NewDist(c, cfg)
		if err != nil {
			errs[r] = err
			return
		}
		defer d.Close()
		rhs := d.ScatterReplicated(density)
		rhs.Scale(-4 * math.Pi)
		v := d.NewLocalGrid()
		ps := gpaw.NewDistPoisson(d, w.h)
		ps.Tol = 1e-8
		c.Barrier()
		t0 := world.VirtualTime(c.WorldRank())
		iters[r], _, errs[r] = ps.SolveCG(v, rhs)
		t1 := world.VirtualTime(c.WorldRank())
		cg[r] = t1 - t0

		var a detsum.Acc
		a.Add(float64(r) + 0.125)
		in := a.Transport(nil)
		out := make([]float64, len(in))
		c.Barrier()
		t2 := world.VirtualTime(c.WorldRank())
		for i := 0; i < accReps; i++ {
			c.AllreduceFunc(in, out, detsum.MergeTransport)
		}
		acc[r] = (world.VirtualTime(c.WorldRank()) - t2) / accReps
		if got, want := detsum.RoundTransport(out), float64(n*(n-1))/2+0.125*float64(n); got != want {
			errs[r] = fmt.Errorf("acc allreduce = %g, want %g", got, want)
		}
	})
	if err != nil {
		return p, fmt.Errorf("probe world: %w", err)
	}
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			return p, fmt.Errorf("probe rank %d: %w", r, errs[r])
		}
		if iters[r] != iters[0] {
			return p, fmt.Errorf("probe rank %d: cold CG took %d iterations, rank 0 %d", r, iters[r], iters[0])
		}
		p.coldVirt = max(p.coldVirt, cg[r])
		p.accAllreduce = max(p.accAllreduce, acc[r])
	}
	p.coldIters = iters[0]
	return p, nil
}

// quarterShiftFails reports whether the cold-start eigensolve of SCF
// iteration 1 (H[Vext] from gpaw.InitGuess, the SCF's own 1e-7
// tolerance and 600-iteration budget) fails on the seed's trap shifted
// by up to a quarter spacing instead of shiftFrac.
func quarterShiftFails(w workload, seed uint64) bool {
	sys := w.system(seed, probeFrac)
	es := gpaw.NewEigenSolver(gpaw.NewHamiltonian(w.h, sys.Vext, gpaw.Dirichlet))
	es.Tol = 1e-7
	es.MaxIter = 600
	_, err := es.Solve(gpaw.InitGuess(w.states(), [3]int{w.n, w.n, w.n}, 2))
	return err != nil
}

// phase sums every (name, kind) entry of a profile with the given name.
func phase(p *trace.Profile, name string) (count, bytes, totalNs int64) {
	if p == nil {
		return 0, 0, 0
	}
	for _, ps := range p.Phases {
		if ps.Name == name {
			count += ps.Count
			bytes += ps.Bytes
			totalNs += ps.TotalNs
		}
	}
	return count, bytes, totalNs
}
