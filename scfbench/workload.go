package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/gpaw"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/trace"
)

// workload is one benchmark input: a Dirichlet harmonic trap solved to
// SCF tolerance scfTol, serially (procs zero) or on a bands x domain
// layout of goroutine ranks under the calibrated BG/P network model.
type workload struct {
	name      string
	n         int     // grid points per axis
	h         float64 // grid spacing (bohr)
	electrons int

	procs    topology.Dims // domain process grid per band group; zero = serial
	bands    int
	approach core.Approach
	threads  int
	// traceCap is the per-rank event capacity of the traced run's
	// tracer, sized so no event is dropped (see README.md).
	traceCap int
}

const (
	scfTol = 1e-4
	// shiftFrac bounds the seeded trap-centre shift per axis, in grid
	// spacings. probeFrac is the larger shift the robustness probe
	// solves (see README.md, "Known failure").
	shiftFrac = 1.0 / 16
	probeFrac = 1.0 / 4
	// batch is the grids-per-message batch of the distributed layouts.
	batch = 2
)

var workloads = []workload{
	{name: "trap16-serial", n: 16, h: 0.5, electrons: 8},
	{name: "trap24-domain8-hybrid", n: 24, h: 0.4, electrons: 2,
		procs: topology.Dims{2, 2, 2}, bands: 1, approach: core.HybridMasterOnly, threads: 2,
		traceCap: 1 << 17},
	{name: "trap16-bands2x4", n: 16, h: 0.5, electrons: 8,
		procs: topology.Dims{2, 2, 1}, bands: 2, approach: core.FlatOptimized, threads: 1,
		traceCap: 1 << 18},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) dims() topology.Dims { return topology.Dims{w.n, w.n, w.n} }

func (w workload) distributed() bool { return w.procs.Count() > 0 }

func (w workload) ranks() int {
	if !w.distributed() {
		return 1
	}
	return w.bands * w.procs.Count()
}

// states is the number of doubly occupied orbitals.
func (w workload) states() int { return (w.electrons + 1) / 2 }

// config is the rank layout of a distributed attempt. The serial
// workload's modeled baseline runs on the 1-rank flat-optimized layout.
func (w workload) config() gpaw.DistConfig {
	procs, bands, a, threads := w.procs, w.bands, w.approach, w.threads
	if !w.distributed() {
		procs, bands, a, threads = topology.Dims{1, 1, 1}, 1, core.FlatOptimized, 1
	}
	return gpaw.DistConfig{Global: w.dims(), Procs: procs, Bands: bands, Halo: 2,
		BC: gpaw.Dirichlet, Approach: a, Threads: threads, Batch: batch, NetCompute: true}
}

// newWorld builds a world of the workload's ranks with the calibrated
// BG/P model armed: deterministic virtual clocks (NoComputeWall) and
// ranks placed on the partition by gpaw.NetCoords.
func (w workload) newWorld() *mpi.World {
	mode := mpi.ThreadSingle
	if w.approach == core.HybridMultiple {
		mode = mpi.ThreadMultiple
	}
	world := mpi.NewWorld(w.ranks(), mode)
	m := bgpsim.NetModelFor(w.ranks())
	m.Coords = gpaw.NetCoords(w.config(), m.Net)
	m.NoComputeWall = true
	world.SetNetModel(m)
	return world
}

// trapShift returns the seeded trap-centre offset: zero for seed 0,
// otherwise uniform in [-frac, frac) grid spacings per axis. The
// direction depends on the seed alone, so the probe's larger shift
// points the same way as the workload's.
func trapShift(seed uint64, h, frac float64) [3]float64 {
	var sh [3]float64
	if seed == 0 {
		return sh
	}
	r := rand.New(rand.NewPCG(seed, 0x5ca1ab1e))
	for a := range sh {
		sh[a] = (2*r.Float64() - 1) * frac * h
	}
	return sh
}

// trap builds V(r) = ½|r - c - shift|² (ω = 1) centred in the box.
func trap(dims topology.Dims, h float64, shift [3]float64) *grid.Grid {
	v := grid.NewDims(dims, 2)
	var c [3]float64
	for a := range c {
		c[a] = float64(dims[a]-1)/2*h + shift[a]
	}
	v.FillFunc(func(i, j, k int) float64 {
		dx := float64(i)*h - c[0]
		dy := float64(j)*h - c[1]
		dz := float64(k)*h - c[2]
		return 0.5 * (dx*dx + dy*dy + dz*dz)
	})
	return v
}

func (w workload) system(seed uint64, frac float64) gpaw.System {
	return gpaw.System{Dims: w.dims(), Spacing: w.h, BC: gpaw.Dirichlet,
		Vext: trap(w.dims(), w.h, trapShift(seed, w.h, frac)), Electrons: w.electrons}
}

// sameBits reports whether two results carry bit-identical band
// energies and eigenvalues.
func sameBits(a, b *gpaw.SCFResult) bool {
	if math.Float64bits(a.TotalEnergy) != math.Float64bits(b.TotalEnergy) ||
		len(a.Eigenvalues) != len(b.Eigenvalues) || a.Iterations != b.Iterations {
		return false
	}
	for i := range a.Eigenvalues {
		if math.Float64bits(a.Eigenvalues[i]) != math.Float64bits(b.Eigenvalues[i]) {
			return false
		}
	}
	return true
}

// attempt is one converged-SCF sample and everything measured around it.
type attempt struct {
	res   *gpaw.SCFResult // rank 0's result; released once checked
	iters int             // SCF iterations
	fault string          // why the attempt failed; empty when it passed

	cpu      float64       // process CPU seconds, trap build to SCF return
	wall     time.Duration // trap build to SCF return
	iterWall time.Duration // first SCF iteration to SCF return (rank 0; whole SCF when serial)
	makespan time.Duration // slowest rank's virtual clock (distributed)

	halo     core.Stats // Dist.Stats summed over ranks
	traffic  int64      // grid.TrafficPoints delta
	rt       rtDelta
	peakHeap float64 // peak live heap in bytes (timed attempts only)
}

func (a *attempt) failf(format string, args ...any) {
	if a.fault == "" {
		a.fault = fmt.Sprintf(format, args...)
	}
}

// serialAttempt runs one serial SCF.
func serialAttempt(w workload, seed uint64) *attempt {
	a := &attempt{}
	rt0, tp0 := readRuntime(), grid.TrafficPoints()
	c0, t0 := cpuSeconds(), time.Now()
	scf := gpaw.NewSCF(w.system(seed, shiftFrac))
	scf.Tol = scfTol
	res, err := scf.Run()
	a.wall, a.cpu = time.Since(t0), cpuSeconds()-c0
	a.iterWall = a.wall // gpaw.SCF has no iteration hook
	a.traffic = grid.TrafficPoints() - tp0
	a.rt = readRuntime().sub(rt0)
	a.res = res
	if err != nil {
		a.failf("serial SCF: %v", err)
	}
	return a
}

// distAttempt runs one SCF on a fresh modeled world of the workload's
// layout. A non-nil tracer is reset and armed on the world.
func distAttempt(w workload, seed uint64, tr *trace.Tracer) *attempt {
	a := &attempt{}
	n := w.ranks()
	cfg := w.config()
	results := make([]*gpaw.SCFResult, n)
	errs := make([]error, n)
	stats := make([]core.Stats, n)
	var iter1 time.Duration // rank 0's first OnIteration

	rt0, tp0 := readRuntime(), grid.TrafficPoints()
	c0, t0 := cpuSeconds(), time.Now()
	sys := w.system(seed, shiftFrac)
	world := w.newWorld()
	if tr != nil {
		tr.Reset()
		world.SetTracer(tr)
	}
	runErr := world.Run(func(c *mpi.Comm) {
		r := c.Rank()
		d, err := gpaw.NewDist(c, cfg)
		if err != nil {
			errs[r] = err
			return
		}
		defer d.Close()
		s := gpaw.NewDistSCF(d, sys)
		s.Tol = scfTol
		if r == 0 {
			s.OnIteration = func(it int) {
				if it == 1 {
					iter1 = time.Since(t0)
				}
			}
		}
		results[r], errs[r] = s.Run()
		stats[r] = d.Stats()
	})
	a.wall, a.cpu = time.Since(t0), cpuSeconds()-c0
	a.traffic = grid.TrafficPoints() - tp0
	a.rt = readRuntime().sub(rt0)
	a.makespan = world.MaxVirtualTime()
	for r := 0; r < n; r++ {
		addStats(&a.halo, stats[r])
	}
	a.iterWall = a.wall - iter1
	a.res = results[0]
	if runErr != nil {
		a.failf("world: %v", runErr)
	}
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			a.failf("rank %d: %v", r, errs[r])
		}
	}
	if a.fault == "" {
		for r := 1; r < n; r++ {
			if !sameBits(results[r], results[0]) {
				a.failf("rank %d energies differ from rank 0", r)
			}
		}
	}
	if rel := world.NetRelTotals(); rel != (mpi.RelStats{}) {
		a.failf("reliability counters nonzero on a clean run: %+v", rel)
	}
	if a.halo.NetRetransmits+a.halo.NetDupSuppressed+a.halo.NetCRCRejected != 0 {
		a.failf("engine reliability counters nonzero on a clean run")
	}
	if tr != nil && tr.Dropped() > 0 {
		a.failf("tracer dropped %d events (capacity %d per rank)", tr.Dropped(), w.traceCap)
	}
	return a
}

func addStats(dst *core.Stats, s core.Stats) {
	dst.MessagesSent += s.MessagesSent
	dst.BytesSent += s.BytesSent
	dst.Exchanges += s.Exchanges
	dst.Waits += s.Waits
	dst.WaitNs += s.WaitNs
	dst.HiddenWaitNs += s.HiddenWaitNs
	dst.InteriorNs += s.InteriorNs
	dst.ShellNs += s.ShellNs
	dst.NetRetransmits += s.NetRetransmits
	dst.NetDupSuppressed += s.NetDupSuppressed
	dst.NetCRCRejected += s.NetCRCRejected
}

// setupTrial times everything before the first SCF iteration: the trap
// build, for a distributed workload the world, its network model and
// NewDist on every rank, and the SCF's own prologue (initial guess,
// Poisson solver, scattered potential). A MaxIter of 0 runs the
// prologue and returns before the first iteration.
func setupTrial(w workload, seed uint64) (time.Duration, error) {
	t0 := time.Now()
	sys := w.system(seed, shiftFrac)
	if !w.distributed() {
		scf := gpaw.NewSCF(sys)
		scf.MaxIter = 0
		_, _ = scf.Run() // reports that no iteration ran, which is the point
		return time.Since(t0), nil
	}
	errs := make([]error, w.ranks())
	err := w.newWorld().Run(func(c *mpi.Comm) {
		d, err := gpaw.NewDist(c, w.config())
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		defer d.Close()
		s := gpaw.NewDistSCF(d, sys)
		s.MaxIter = 0
		_, _ = s.Run() // reports that no iteration ran, which is the point
	})
	elapsed := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("set-up world: %w", err)
	}
	for r, e := range errs {
		if e != nil {
			return 0, fmt.Errorf("set-up rank %d: %w", r, e)
		}
	}
	return elapsed, nil
}

// reference is the serial SCF every attempt's bits are checked against:
// the workload's own system solved by gpaw.SCF, untimed.
func reference(w workload, seed uint64) (*gpaw.SCFResult, error) {
	scf := gpaw.NewSCF(w.system(seed, shiftFrac))
	scf.Tol = scfTol
	res, err := scf.Run()
	if err != nil {
		return nil, fmt.Errorf("serial reference SCF: %w", err)
	}
	return res, nil
}

// check marks the attempt failed unless it reproduced the reference
// bit for bit, then releases the attempt's result (unless it is the
// reference) so results of earlier attempts do not grow the heap.
func (a *attempt) check(ref *gpaw.SCFResult) {
	if a.res != nil {
		a.iters = a.res.Iterations
	}
	switch {
	case a.fault != "":
	case ref == nil:
		a.failf("no serial reference to check against")
	case !sameBits(a.res, ref):
		a.failf("band energy %.17g differs from serial %.17g", a.res.TotalEnergy, ref.TotalEnergy)
	}
	if a.res != ref {
		a.res = nil
	}
}
