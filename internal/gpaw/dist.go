package gpaw

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/detsum"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/pblas"
	"repro/internal/stencil"
	"repro/internal/topology"
)

// This file is the distributed solver layer: the Poisson solvers, the
// multigrid V-cycle, the eigensolver and the SCF loop of this package
// run rank-parallel over an MPI Cartesian process grid, with each rank
// additionally running the shared-memory worker pool inside it — the
// paper's hybrid execution model lifted from a single stencil apply to
// the full solver stack.
//
// Determinism contract: every distributed solver is bit-identical to
// its serial counterpart, for every rank count, process-grid shape and
// thread count. Three mechanisms make this possible:
//
//  1. Halo exchange copies exact interior values (internal/core's
//     async/double-buffered protocol), so distributed stencil reads see
//     the same numbers serial reads see through FillHalos*.
//  2. Reductions accumulate into detsum.Acc and merge per-rank partial
//     accumulators exactly through mpi.AllreduceTransports, whose
//     recursive-doubling tree is fixed by the communicator size; the
//     merge is exact, so every dot product, norm and sum equals the
//     serial value bitwise regardless of the decomposition, the tree
//     shape or message arrival order.
//  3. Everything else is elementwise and runs the very same fused
//     kernels (internal/stencil) on local sub-domains.
//
// The four programming approaches map onto solver execution as:
// flat original (serialized exchange, no batching, no threads), flat
// optimized (async exchange + double buffering + batching), hybrid
// multiple (wave-function batches divided among pool workers, each
// worker doing its own communication; MPI THREAD_MULTIPLE), and hybrid
// master-only (master thread communicates, each grid's compute is
// fork-joined across the pool; THREAD_SINGLE suffices).
//
// Split-phase overlap: every approach except flat original runs its hot
// iteration loops on the overlapped protocol — the halo exchange is
// posted (core.StartExchange), the fused kernel sweeps the deep
// interior (every point that reads no halo) while the messages are in
// flight, the exchange completes (FinishExchange) and the one-radius
// boundary shell finishes the sweep (the ApplyXxxInterior/Shell kernel
// pairs of internal/stencil). Flat original keeps the original
// exchange-to-completion-then-compute structure as the differential
// baseline, and DistConfig.NoOverlap forces that structure for any
// approach. Because shell and interior reduction partials accumulate
// into the same exact detsum accumulators and every point is computed
// by exactly one phase with identical arithmetic, the overlapped
// solvers are bit-identical to the serialized ones — the overlap test
// matrix in dist_overlap_test.go asserts this for solutions, iteration
// counts, eigenvalues and SCF energies.

// distTag is the base tag of the solver layer's gather/scatter traffic,
// far above the engine's halo-exchange tag space.
const distTag = 1 << 24

// DistConfig describes one rank's share of a distributed calculation.
type DistConfig struct {
	Global   topology.Dims // global grid extents
	Procs    topology.Dims // domain process grid (per band group)
	Bands    int           // band groups forming the bands x domain 2D layout (0 or 1 = domain-only)
	Halo     int           // halo thickness = stencil radius (2 for the paper's operators)
	BC       Boundary
	Approach core.Approach
	Threads  int // compute threads per rank for the hybrid approaches
	Batch    int // grids per halo-exchange message batch

	// ABFT arms algorithm-based fault tolerance: the dense subspace
	// kernels run their Huang–Abraham checksum verification
	// (pblas.CholeskyChecked and friends) and NewDistSCF installs an
	// SDCGuard, so silent data corruption surfaces as a typed
	// *pblas.ErrSDCDetected the fault-tolerant driver rolls back on.
	// Verification only reads results — bit-identity is unaffected.
	ABFT bool

	// NoOverlap forces the serialized exchange-then-compute structure
	// even for the optimized approaches, as the differential baseline
	// the overlapped protocol is verified against. The default (false)
	// overlaps halo communication with deep-interior compute in every
	// approach except FlatOriginal, whose defining property is the
	// absence of every section-V optimization.
	NoOverlap bool

	// Map selects how NetCoords places this layout onto a network's
	// nodes when a calibrated transport model is armed (see
	// mpi.NetModel): linear fill, Cartesian embedding or worst-case
	// shuffle. It only affects modeled message costs, never results.
	Map topology.Mapping

	// NetCompute charges the calibrated per-point stencil cost
	// (bgpsim's PointTime over this config's operator shape and thread
	// count) to the rank's virtual clock for every fused sweep, so a
	// NoComputeWall model run has deterministic compute to hide
	// communication behind. No-op without an armed network model.
	NetCompute bool
}

// NetCoords places this configuration's rank layout onto the nodes of
// a network for mpi.NetModel.Coords: the bands x domain world layout
// through topology.MapBands (plain MapGrid when domain-only), using
// cfg.Map as the strategy. Callable before any world exists — the
// model must be armed before ranks start.
func NetCoords(cfg DistConfig, net topology.Network) []topology.Coord {
	bands := cfg.Bands
	if bands < 1 {
		bands = 1
	}
	return topology.MapBands(bands, cfg.Procs, net, cfg.Map)
}

// Dist ties one MPI rank into a distributed real-space calculation: the
// local sub-domain, the Cartesian domain communicator, the band
// communicator crossing band groups at fixed domain coordinate, the
// halo-exchange engine and the per-rank worker pool. With Bands > 1 the
// ranks form a bands x domain 2D layout: world rank r belongs to band
// group r / Procs.Count() and holds domain rank r % Procs.Count()
// within it (see bands.go).
type Dist struct {
	Cart     *mpi.Cart
	Decomp   *grid.Decomp
	BC       Boundary
	Approach core.Approach
	// ABFT mirrors DistConfig.ABFT: checksum-verified dense kernels.
	ABFT bool

	// World is the full bands x domain communicator NewDist was given.
	World *mpi.Comm
	// Bands is the number of band groups; Band is this rank's group.
	Bands, Band int
	// BandComm connects the ranks holding this domain sub-domain across
	// all band groups (size Bands, rank = band group index).
	BandComm *mpi.Comm
	// BGrid is the 2D process grid over BandComm that internal/pblas
	// distributes the dense subspace algebra on.
	BGrid *pblas.Grid2D

	eng   *core.Engine
	pool  *stencil.Pool
	coord topology.Coord
	off   topology.Coord
	local topology.Dims

	// overlap selects the split-phase protocol for the hot solver loops
	// (see the package comment); exBuf is the hoisted single-grid slice
	// of withOverlap, so per-iteration exchanges allocate nothing. It is
	// only touched from the solver's master goroutine.
	overlap bool
	exBuf   []*grid.Grid

	// pointNs is the modeled per-point sweep cost in virtual ns charged
	// through mpi.Comm.Compute (0: charging off). It already includes
	// the 1/Threads parallel speedup, so charges from concurrently
	// communicating workers simply add.
	pointNs float64

	// redIn, redOut and redVals are reduceAccs' reusable scratch: the
	// concatenated transports, their reduction and the rounded values.
	redIn, redOut, redVals []float64
}

// NewDist builds the per-rank distributed context. Every rank of the
// communicator must call it with identical configuration. The
// communicator size must equal Bands * Procs.Count(); contiguous runs
// of Procs.Count() world ranks form the band groups, so each group's
// domain communicator keeps the Cartesian rank order of the
// domain-only layout.
func NewDist(comm *mpi.Comm, cfg DistConfig) (*Dist, error) {
	bands := cfg.Bands
	if bands < 1 {
		bands = 1
	}
	nproc := cfg.Procs.Count()
	if bands*nproc != comm.Size() {
		return nil, fmt.Errorf("gpaw: bands x domain layout %d x %v needs %d ranks, have %d",
			bands, cfg.Procs, bands*nproc, comm.Size())
	}
	dec, err := grid.NewDecomp(cfg.Global, cfg.Procs, cfg.Halo)
	if err != nil {
		return nil, err
	}
	band := comm.Rank() / nproc
	domainComm := comm.Split(band, comm.Rank())
	bandComm := comm.Split(comm.Rank()%nproc, comm.Rank())
	pr, pc := pblas.Squarish(bands)
	bgrid, err := pblas.NewGrid2D(bandComm, pr, pc)
	if err != nil {
		return nil, err
	}
	periodic := cfg.BC == Periodic
	cart := domainComm.CartCreate(cfg.Procs, [3]bool{periodic, periodic, periodic}, true)
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	// The engine's operator only shapes the exchange (face thickness =
	// its radius); solvers pass their own operators to the kernels.
	shape := stencil.Laplacian(cfg.Halo, 1)
	eng, err := core.NewEngine(cart, dec, shape, periodic, core.OptionsFor(cfg.Approach, cfg.Batch, cfg.Threads))
	if err != nil {
		return nil, err
	}
	d := &Dist{Cart: cart, Decomp: dec, BC: cfg.BC, Approach: cfg.Approach, ABFT: cfg.ABFT,
		World: comm, Bands: bands, Band: band, BandComm: bandComm, BGrid: bgrid,
		eng: eng, pool: eng.WorkerPool(),
		overlap: !cfg.NoOverlap && cfg.Approach != core.FlatOriginal}
	d.coord = cart.Coords(cart.Rank())
	d.off = dec.Offset(d.coord)
	d.local = dec.LocalDims(d.coord)
	if cfg.NetCompute {
		if _, on := comm.World().NetConfig(); on {
			// Calibrated per-point sweep cost of this config's operator
			// shape, with the rank's threads computing concurrently.
			p := bgpsim.DefaultParams()
			d.pointNs = p.PointTime(shape.FlopsPerPoint(), shape.BytesPerPoint(), cfg.Threads) /
				float64(cfg.Threads) * 1e9
		}
	}
	return d, nil
}

// chargePoints charges n stencil points of modeled compute to this
// rank's virtual clock (no-op unless NetCompute armed the charge rate).
func (d *Dist) chargePoints(n int) {
	if d.pointNs > 0 && n > 0 {
		d.Cart.Compute(time.Duration(float64(n) * d.pointNs))
	}
}

// sweepCharges returns the modeled point counts of one fused sweep over
// a local grid: the halo-free deep interior and the boundary shell.
func sweepCharges(g *grid.Grid, r int) (interior, shell int) {
	total := g.Nx * g.Ny * g.Nz
	ib := stencil.InteriorBlock(g.Nx, g.Ny, g.Nz, r)
	interior = ib.Points()
	return interior, total - interior
}

// Close releases the rank's worker pool.
func (d *Dist) Close() { d.eng.Close() }

// Pool returns the rank's worker pool (nil for the flat approaches).
func (d *Dist) Pool() *stencil.Pool { return d.pool }

// Coord returns this rank's Cartesian coordinate.
func (d *Dist) Coord() topology.Coord { return d.coord }

// Offset returns the global offset of this rank's sub-domain.
func (d *Dist) Offset() topology.Coord { return d.off }

// LocalDims returns this rank's sub-domain extents.
func (d *Dist) LocalDims() topology.Dims { return d.local }

// NewLocalGrid allocates a local grid covering this rank's sub-domain.
func (d *Dist) NewLocalGrid() *grid.Grid { return grid.NewDims(d.local, d.Decomp.Halo) }

// ScatterReplicated copies this rank's sub-domain out of a global grid
// every rank holds (deterministically constructed inputs such as
// external potentials). No communication.
func (d *Dist) ScatterReplicated(global *grid.Grid) *grid.Grid {
	return d.Decomp.Scatter(global, d.coord)
}

// Exchange fills the halos of the given local grids from the
// neighbouring ranks using the configured protocol.
func (d *Dist) Exchange(gs ...*grid.Grid) { d.eng.Exchange(gs) }

// Overlapped reports whether the hot solver loops run the split-phase
// overlapped protocol (every approach but FlatOriginal, unless
// DistConfig.NoOverlap forced the serialized baseline).
func (d *Dist) Overlapped() bool { return d.overlap }

// Stats returns the engine's accumulated communication statistics.
func (d *Dist) Stats() core.Stats { return d.eng.Stats() }

// withOverlap runs one halo exchange of g plus one fused sweep through
// eng with the configured structure. Overlapped: the exchange is
// posted, interior() computes the halo-free deep interior while the
// messages travel, the exchange completes and shell() finishes the
// boundary. Serialized baseline: the blocking exchange completes first,
// then full() runs the whole sweep. Both orders produce bit-identical
// results (exact reductions, identical per-point arithmetic); only the
// communication/computation schedule differs. eng is a parameter
// because the multigrid levels own engines of their own.
func (d *Dist) withOverlap(eng *core.Engine, g *grid.Grid, full, interior, shell func()) {
	d.exBuf = append(d.exBuf[:0], g)
	intPts, shellPts := 0, 0
	if d.pointNs > 0 {
		intPts, shellPts = sweepCharges(g, d.Decomp.Halo)
	}
	rk := d.Cart.TraceRank()
	if !d.overlap {
		eng.Exchange(d.exBuf)
		sp := rk.Region("compute.sweep")
		full()
		d.chargePoints(intPts + shellPts)
		sp.End()
		return
	}
	h := eng.StartExchange(d.exBuf)
	t0 := eng.NowNs()
	sp := rk.Region("compute.interior")
	interior()
	// The interior charge lands before FinishExchange's wait, so under a
	// network model the modeled arrival hides behind modeled compute —
	// the overlap the calibrated benchmarks measure. It also lands before
	// the region end and phase timestamps, so modeled compute shows up as
	// interior time on both the timeline and the profile.
	d.chargePoints(intPts)
	sp.End()
	t1 := eng.NowNs()
	eng.FinishExchange(h)
	t2 := eng.NowNs()
	sp = rk.Region("compute.shell")
	shell()
	d.chargePoints(shellPts)
	sp.End()
	eng.NoteSplit(t1-t0, eng.NowNs()-t2)
}

// --- deterministic global reductions -------------------------------

// reduceAccs merges every rank's accumulators exactly (a fixed tree,
// arrival-order independent) and returns the rounded global values, one
// per accumulator. All ranks receive identical results. The returned
// slice is scratch, valid until the next reduction on d.
//
//gpaw:hotpath
func (d *Dist) reduceAccs(accs []*detsum.Acc) []float64 {
	n := len(accs) * detsum.TransportLen
	d.growReduceScratch(len(accs))
	in := d.redIn[:0]
	for _, a := range accs {
		in = a.Transport(in)
	}
	out := d.redOut[:n]
	d.Cart.AllreduceTransports(in, out)
	vals := d.redVals[:len(accs)]
	for i := range vals {
		vals[i] = detsum.RoundTransport(out[i*detsum.TransportLen : (i+1)*detsum.TransportLen])
	}
	return vals
}

// growReduceScratch sizes reduceAccs' scratch for k accumulators; it
// allocates only when k exceeds every earlier reduction on d.
func (d *Dist) growReduceScratch(k int) {
	if cap(d.redVals) >= k {
		return
	}
	d.redIn = make([]float64, 0, k*detsum.TransportLen)
	d.redOut = make([]float64, k*detsum.TransportLen)
	d.redVals = make([]float64, k)
}

// reduceAcc reduces a single accumulator to its global value.
func (d *Dist) reduceAcc(a *detsum.Acc) float64 {
	return d.reduceAccs([]*detsum.Acc{a})[0]
}

// Sum returns the global interior sum, bit-identical to the serial
// Pool.Sum over the undecomposed grid.
func (d *Dist) Sum(g *grid.Grid) float64 {
	var a detsum.Acc
	d.pool.SumAcc(g, &a)
	return d.reduceAcc(&a)
}

// Dot returns the global inner product <a, b>.
func (d *Dist) Dot(a, b *grid.Grid) float64 {
	var acc detsum.Acc
	d.pool.DotAcc(a, b, &acc)
	return d.reduceAcc(&acc)
}

// Norm2 returns the global L2 norm.
func (d *Dist) Norm2(g *grid.Grid) float64 { return math.Sqrt(d.Dot(g, g)) }

// DotNorm returns the global <a, b> and <a, a> in one local pooled
// sweep and one reduction.
func (d *Dist) DotNorm(a, b *grid.Grid) (dot, sumsq float64) {
	var dotAcc, sqAcc detsum.Acc
	d.pool.DotNormAcc(a, b, &dotAcc, &sqAcc)
	vals := d.reduceAccs([]*detsum.Acc{&dotAcc, &sqAcc})
	return vals[0], vals[1]
}

// AxpyDot performs g += a*x locally and returns the global updated
// <g, g> in the same sweep.
func (d *Dist) AxpyDot(g *grid.Grid, a float64, x *grid.Grid) float64 {
	var acc detsum.Acc
	d.pool.AxpyDotAcc(g, a, x, &acc)
	return d.reduceAcc(&acc)
}

// removeMeanDist subtracts the global interior mean — the distributed
// twin of removeMean, bit-identical because the sum is exact.
func (d *Dist) removeMeanDist(g *grid.Grid) {
	mean := d.Sum(g) / float64(d.Decomp.Global.Count())
	d.pool.AddScalar(g, -mean)
}

// --- gather / scatter / broadcast ----------------------------------

// maxLocalPoints returns the largest sub-domain size of the decomposition.
func maxLocalPoints(dec *grid.Decomp) int {
	max := 0
	for r := 0; r < dec.Procs.Count(); r++ {
		if n := dec.LocalDims(dec.Procs.Coord(r)).Count(); n > max {
			max = n
		}
	}
	return max
}

// gatherDec assembles the global grid of the given decomposition from
// every rank's local interior on rank 0 (returns nil elsewhere). The
// multigrid hierarchy passes per-level decompositions.
func (d *Dist) gatherDec(dec *grid.Decomp, local *grid.Grid) *grid.Grid {
	if d.Cart.Rank() != 0 {
		d.Cart.Send(0, distTag, local.InteriorSlice())
		return nil
	}
	g := grid.NewDims(dec.Global, local.H)
	dec.Gather(g, d.coord, local)
	buf := make([]float64, maxLocalPoints(dec))
	for r := 1; r < d.Cart.Size(); r++ {
		rc := dec.Procs.Coord(r)
		n := dec.LocalDims(rc).Count()
		d.Cart.Recv(r, distTag, buf[:n])
		lg := grid.NewDims(dec.LocalDims(rc), 0)
		lg.SetInterior(buf[:n])
		dec.Gather(g, rc, lg)
	}
	return g
}

// gather0 is gatherDec over the solver-level decomposition.
func (d *Dist) gather0(local *grid.Grid) *grid.Grid { return d.gatherDec(d.Decomp, local) }

// GatherGlobal assembles the global grid on rank 0 (nil elsewhere) —
// the transport differential tests and external drivers use to compare
// distributed fields against serial ones.
func (d *Dist) GatherGlobal(local *grid.Grid) *grid.Grid { return d.gather0(local) }

// --- per-approach wave-function processing -------------------------

// forEachExchanged runs the configured exchange protocol over the
// states and invokes f once per state after its halos are installed.
// Hybrid multiple divides states among pool workers, each communicating
// for its own share; every other approach communicates on the caller.
// f receives the pool to split a single state's compute across (nil
// except for hybrid master-only, whose defining property is the
// per-grid fork-join).
func (d *Dist) forEachExchanged(states []*grid.Grid, f func(gi int, p *stencil.Pool)) {
	charge := d.stateCharger(states)
	switch d.Approach {
	case core.HybridMultiple:
		d.eng.RunBatchesHybridMultiple(states, func(b core.Batch) {
			for gi := b.Lo; gi < b.Hi; gi++ {
				f(gi, nil)
				charge(1, 1)
			}
		})
	case core.HybridMasterOnly:
		d.eng.RunBatches(states, func(b core.Batch) {
			for gi := b.Lo; gi < b.Hi; gi++ {
				f(gi, d.pool)
				charge(1, 1)
			}
		})
	default:
		d.eng.RunBatches(states, func(b core.Batch) {
			for gi := b.Lo; gi < b.Hi; gi++ {
				f(gi, nil)
				charge(1, 1)
			}
		})
	}
}

// forEachSplit is forEachExchanged's split-phase sibling: per batch,
// interior runs for each state while its halo messages are in flight
// and shell runs after they are installed. Hybrid multiple divides
// states among pool workers, each communicating for its own share;
// hybrid master-only hands interior the pool to fork-join one state's
// deep interior across (the shell is O(surface) and stays on the
// master). Interior must not read halos.
func (d *Dist) forEachSplit(states []*grid.Grid, interior func(gi int, p *stencil.Pool), shell func(gi int)) {
	charge := d.stateCharger(states)
	runAll := func(b core.Batch, f func(gi int)) {
		for gi := b.Lo; gi < b.Hi; gi++ {
			f(gi)
		}
	}
	switch d.Approach {
	case core.HybridMultiple:
		d.eng.RunBatchesSplitHybridMultiple(states,
			func(b core.Batch) { runAll(b, func(gi int) { interior(gi, nil); charge(1, 0) }) },
			func(b core.Batch) { runAll(b, func(gi int) { shell(gi); charge(0, 1) }) })
	case core.HybridMasterOnly:
		d.eng.RunBatchesSplit(states,
			func(b core.Batch) { runAll(b, func(gi int) { interior(gi, d.pool); charge(1, 0) }) },
			func(b core.Batch) { runAll(b, func(gi int) { shell(gi); charge(0, 1) }) })
	default:
		d.eng.RunBatchesSplit(states,
			func(b core.Batch) { runAll(b, func(gi int) { interior(gi, nil); charge(1, 0) }) },
			func(b core.Batch) { runAll(b, func(gi int) { shell(gi); charge(0, 1) }) })
	}
}

// stateCharger returns a compute-charge hook for per-state sweeps:
// charge(i, s) adds i interior and s shell sweeps' worth of modeled
// compute for one state. A no-op closure when charging is off, so the
// hot loops stay branch-free.
func (d *Dist) stateCharger(states []*grid.Grid) func(interior, shell int) {
	if d.pointNs == 0 || len(states) == 0 {
		return func(int, int) {}
	}
	intPts, shellPts := sweepCharges(states[0], d.Decomp.Halo)
	return func(i, s int) { d.chargePoints(i*intPts + s*shellPts) }
}

// --- distributed Poisson solvers -----------------------------------

// DistPoisson solves ∇²φ = rhs on local sub-domains, mirroring Poisson
// step for step so every iterate is bit-identical to the serial solver.
type DistPoisson struct {
	D       *Dist
	Op      *stencil.Operator
	Tol     float64
	MaxIter int
}

// NewDistPoisson builds the distributed solver with the paper's
// radius-2 Laplacian and the serial solver's defaults.
func NewDistPoisson(d *Dist, h float64) *DistPoisson {
	return &DistPoisson{D: d, Op: stencil.Laplacian(2, h), Tol: 1e-8, MaxIter: 10000}
}

// residual computes r = rhs - ∇²phi (one halo exchange + one fused
// sweep, overlapped when the approach allows) and returns the global
// residual norm.
func (ps *DistPoisson) residual(r, phi, rhs *grid.Grid) float64 {
	d := ps.D
	var acc detsum.Acc
	d.withOverlap(d.eng, phi,
		func() { ps.Op.ApplyResidualAcc(d.pool, r, rhs, phi, &acc) },
		func() { ps.Op.ApplyResidualInteriorAcc(d.pool, r, rhs, phi, &acc) },
		func() { ps.Op.ApplyResidualShellAcc(r, rhs, phi, &acc) })
	return math.Sqrt(d.reduceAcc(&acc))
}

// SolveJacobi mirrors Poisson.SolveJacobi across ranks.
func (ps *DistPoisson) SolveJacobi(phi, rhs *grid.Grid) (int, float64, error) {
	d := ps.D
	defer d.Cart.TraceRank().Region("poisson.jacobi").End()
	omega := 0.7
	diag := ps.Op.Center
	if diag == 0 {
		return 0, 0, fmt.Errorf("gpaw: singular stencil diagonal")
	}
	b := rhs.Clone()
	if d.BC == Periodic {
		d.removeMeanDist(b)
	}
	r := grid.NewDims(phi.Dims(), phi.H)
	norm0 := d.Norm2(b)
	if norm0 == 0 {
		phi.Fill(0)
		return 0, 0, nil
	}
	for it := 1; it <= ps.MaxIter; it++ {
		res := ps.residual(r, phi, b)
		if d.BC == Periodic {
			d.removeMeanDist(phi)
		}
		if res/norm0 < ps.Tol {
			return it, res / norm0, nil
		}
		d.pool.Axpy(phi, omega/diag, r)
	}
	res := ps.residual(r, phi, b)
	return ps.MaxIter, res / norm0, errNotConverged("Jacobi", res/norm0)
}

// SolveCG mirrors the fused conjugate-gradient solver across ranks:
// exchange + fused apply-with-dot, distributed exact reductions, local
// axpys. Every alpha/beta and every iterate equals the serial run's.
func (ps *DistPoisson) SolveCG(phi, rhs *grid.Grid) (int, float64, error) {
	d := ps.D
	defer d.Cart.TraceRank().Region("poisson.cg").End()
	neg := ps.Op.Scaled(-1)
	b := rhs.Clone()
	d.pool.Scale(b, -1)
	if d.BC == Periodic {
		d.removeMeanDist(b)
	}
	norm0 := d.Norm2(b)
	if norm0 == 0 {
		phi.Fill(0)
		return 0, 0, nil
	}
	r := grid.NewDims(phi.Dims(), phi.H)
	ap := grid.NewDims(phi.Dims(), phi.H)
	var acc detsum.Acc
	d.withOverlap(d.eng, phi,
		func() { neg.ApplyResidualAcc(d.pool, r, b, phi, &acc) },
		func() { neg.ApplyResidualInteriorAcc(d.pool, r, b, phi, &acc) },
		func() { neg.ApplyResidualShellAcc(r, b, phi, &acc) })
	if d.BC == Periodic {
		d.removeMeanDist(r)
	}
	p := r.Clone()
	rsold := d.Dot(r, r)
	for it := 1; it <= ps.MaxIter; it++ {
		// ap = A p and <p, Ap>, the deep interior computed while p's
		// halo messages are in flight.
		acc.Reset()
		d.withOverlap(d.eng, p,
			func() { neg.ApplyDotAcc(d.pool, ap, p, &acc) },
			func() { neg.ApplyDotInteriorAcc(d.pool, ap, p, &acc) },
			func() { neg.ApplyDotShellAcc(ap, p, &acc) })
		pap := d.reduceAcc(&acc)
		alpha := rsold / pap
		d.pool.Axpy(phi, alpha, p)
		rs := d.AxpyDot(r, -alpha, ap)
		if d.BC == Periodic {
			d.removeMeanDist(r)
			rs = d.Dot(r, r)
		}
		if math.Sqrt(rs)/norm0 < ps.Tol {
			if d.BC == Periodic {
				d.removeMeanDist(phi)
			}
			return it, math.Sqrt(rs) / norm0, nil
		}
		d.pool.AxpyScale(p, 1, r, rs/rsold)
		rsold = rs
	}
	return ps.MaxIter, math.Sqrt(rsold) / norm0, errNotConverged("CG", math.Sqrt(rsold)/norm0)
}

// SolveSOR mirrors Poisson.SolveSOR with a pipelined wavefront sweep
// (see wavefront.go): every rank sweeps its sub-domain plane by plane
// in the global lexicographic order, receiving updated upstream
// boundary planes into its halos just before reading them and
// streaming its own boundaries downstream as each plane completes. No
// rank gathers the grid; per-iteration communication is the ordinary
// halo exchange plus the boundary-plane pipeline, both O(surface). The
// update order — and therefore every bit of every iterate — equals the
// serial SORSweep's; residual checks, mean removal and norms stay
// distributed with exact reductions.
func (ps *DistPoisson) SolveSOR(phi, rhs *grid.Grid, omega float64) (int, float64, error) {
	d := ps.D
	defer d.Cart.TraceRank().Region("poisson.sor").End()
	if omega <= 0 || omega >= 2 {
		return 0, 0, fmt.Errorf("gpaw: SOR omega %g outside (0, 2)", omega)
	}
	if ps.Op.Center == 0 {
		return 0, 0, fmt.Errorf("gpaw: singular stencil diagonal")
	}
	b := rhs.Clone()
	if d.BC == Periodic {
		d.removeMeanDist(b)
	}
	norm0 := d.Norm2(b)
	if norm0 == 0 {
		phi.Fill(0)
		return 0, 0, nil
	}
	wf := newSORWavefront(d, ps.Op)
	r := grid.NewDims(phi.Dims(), phi.H)
	for it := 1; it <= ps.MaxIter; it++ {
		// Pre-sweep exchange: +side and periodic-wrap halos must hold
		// pre-sweep values, exactly like the serial fillHalos.
		d.Exchange(phi)
		wf.sweep(phi, b, omega)
		if d.BC == Periodic {
			d.removeMeanDist(phi)
		}
		res := ps.residual(r, phi, b)
		if res/norm0 < ps.Tol {
			return it, res / norm0, nil
		}
	}
	res := ps.residual(r, phi, b)
	return ps.MaxIter, res / norm0, errNotConverged("SOR", res/norm0)
}

// HartreePotential mirrors Poisson.HartreePotential on local grids.
func (ps *DistPoisson) HartreePotential(n *grid.Grid) (*grid.Grid, error) {
	defer ps.D.Cart.TraceRank().Region("poisson.hartree").End()
	rhs := n.Clone()
	ps.D.pool.Scale(rhs, -4*math.Pi)
	v := grid.NewDims(n.Dims(), n.H)
	if _, _, err := ps.SolveCG(v, rhs); err != nil {
		return nil, err
	}
	return v, nil
}

// --- distributed multigrid -----------------------------------------

// Redistribution tags: the level-transfer traffic of the V-cycle,
// disjoint from the gather and wavefront tag ranges above. The same
// pair serves every shrink boundary — all ranks execute their shared
// transfers in the same order, so FIFO matching per (source, tag) pairs
// the k-th send with the k-th receive even across nested levels.
const (
	redistDownTag = distTag + 16 // fine residual -> doubled transfer layout
	redistUpTag   = distTag + 17 // coarse correction -> fine layout
)

// distMGLevel is one level of the distributed hierarchy. Every level is
// genuinely distributed: levels whose sub-domains would become thinner
// than the halo run on a shrunken process grid (a sub-communicator of
// the surviving ranks) instead of serializing on rank 0.
type distMGLevel struct {
	op   *stencil.Operator
	h    float64
	dims topology.Dims // global extents of this level

	procs  topology.Dims // process grid of this level
	comm   *mpi.Comm     // communicator of the level's active ranks (nil on parked ranks)
	cart   *mpi.Cart
	dec    *grid.Decomp
	eng    *core.Engine
	active bool // whether this rank holds data at this level

	phi, rhs, res *grid.Grid // local scratch (active ranks only)

	// Shrink-transfer machinery, set when this level's process grid
	// differs from the parent's (fewer ranks, or re-split for
	// alignment). The parent's active ranks redistribute the residual
	// into xferDec — the parent extents over THIS level's process grid
	// with splits doubled from dec, so restriction and prolongation stay
	// rank-local — and bring the correction back the same way.
	shrunk   bool
	xferDec  *grid.Decomp
	xfer     *grid.Grid       // local scratch in xferDec layout (active ranks only)
	down, up *grid.RedistPlan // parent layout <-> transfer layout (parent-active ranks)
}

// DistMultigrid is the rank-parallel geometric V-cycle. Coarsening
// halves every extent; when a level's sub-domains would become thinner
// than the halo (grid.NewDecompOrFallback shrinks the process grid) or
// the fine/coarse splits stop aligning for local transfer, the level is
// redistributed onto the surviving ranks' sub-communicator
// (mpi.Comm.Split + grid.RedistPlan) and the V-cycle continues there
// while the remaining ranks park at the blocking return transfer until
// prolongation. No level ever funnels through rank 0. All-level
// arithmetic matches the serial solver bitwise.
type DistMultigrid struct {
	D          *Dist
	Tol        float64
	MaxCycles  int
	PreSmooth  int
	PostSmooth int

	levels     []*distMGLevel
	shrunkFrom int // first level on a smaller/re-split process grid; len(levels) if none
}

// splitsAligned reports whether every rank's fine split is exactly
// twice its coarse split in every dimension — the condition for
// restriction/prolongation to stay rank-local without a transfer
// layout.
func splitsAligned(fine, coarse, procs topology.Dims) bool {
	for dim := 0; dim < 3; dim++ {
		for r := 0; r < procs[dim]; r++ {
			fs, fl := topology.Split(fine[dim], procs[dim], r)
			cs, cl := topology.Split(coarse[dim], procs[dim], r)
			if fs != 2*cs || fl != 2*cl {
				return false
			}
		}
	}
	return true
}

// NewDistMultigrid builds the distributed hierarchy for the Dist's
// global grid at spacing h, mirroring NewMultigrid's level structure.
// Every rank of the Dist's domain communicator must call it (the level
// sub-communicators are built collectively).
func NewDistMultigrid(d *Dist, h float64) (*DistMultigrid, error) {
	mg := &DistMultigrid{D: d, Tol: 1e-8, MaxCycles: 60, PreSmooth: 3, PostSmooth: 3}
	dims := d.Decomp.Global
	spacing := h
	// Mirror NewMultigrid's level loop exactly so both hierarchies have
	// identical (dims, spacing) sequences.
	for {
		mg.levels = append(mg.levels, &distMGLevel{op: stencil.Laplacian(2, spacing), h: spacing, dims: dims})
		if dims[0]%2 != 0 || dims[1]%2 != 0 || dims[2]%2 != 0 ||
			dims[0] <= 4 || dims[1] <= 4 || dims[2] <= 4 {
			break
		}
		dims = topology.Dims{dims[0] / 2, dims[1] / 2, dims[2] / 2}
		spacing *= 2
	}
	if len(mg.levels) < 2 {
		return nil, fmt.Errorf("gpaw: grid %v too small or odd for multigrid", d.Decomp.Global)
	}
	halo := d.Decomp.Halo
	periodic := d.BC == Periodic
	mg.shrunkFrom = len(mg.levels)
	for l, lv := range mg.levels {
		if l == 0 {
			lv.procs, lv.dec = d.Decomp.Procs, d.Decomp
			lv.comm, lv.cart = d.Cart.Comm, d.Cart
			lv.active = true
		} else {
			prev := mg.levels[l-1]
			// The level's process grid is a pure function of (dims,
			// parent grid, halo): every rank — parked ones included —
			// derives the same chain without communication.
			dec, used, _, err := grid.NewDecompOrFallback(lv.dims, prev.procs, halo)
			if err != nil {
				return nil, err
			}
			lv.procs = used
			if used == prev.procs && splitsAligned(prev.dims, lv.dims, used) {
				if !prev.active {
					continue
				}
				lv.dec = dec
				lv.comm, lv.cart = prev.comm, prev.cart
				lv.active = true
			} else {
				lv.shrunk = true
				if l < mg.shrunkFrom {
					mg.shrunkFrom = l
				}
				lv.xferDec = dec.Doubled(0)
				if !prev.active {
					continue
				}
				// Collective over the parent level's communicator: its
				// first used.Count() ranks survive onto this level,
				// keeping their rank numbers (Split ordered by old
				// rank), so the coarse Cartesian coordinates are the
				// row-major coordinates of the same ranks.
				color := -1
				if prev.comm.Rank() < used.Count() {
					color = 0
				}
				sub := prev.comm.Split(color, prev.comm.Rank())
				lv.down = grid.NewRedistPlan(prev.comm.Rank(), prev.dec, lv.xferDec)
				lv.up = grid.NewRedistPlan(prev.comm.Rank(), lv.xferDec, prev.dec)
				if sub == nil {
					continue // this rank parks at the l-1 -> l boundary
				}
				lv.dec = dec
				lv.comm = sub
				lv.cart = sub.CartCreate(used, [3]bool{periodic, periodic, periodic}, true)
				lv.active = true
				lv.xfer = grid.NewDims(lv.xferDec.LocalDims(used.Coord(sub.Rank())), 0)
			}
		}
		eng, err := core.NewEngine(lv.cart, lv.dec, lv.op, periodic,
			core.Options{Exchange: core.ExchangeAsync, BatchSize: 1, Threads: 1})
		if err != nil {
			return nil, err
		}
		lv.eng = eng
		c := lv.dec.LocalDims(lv.cart.Coords(lv.cart.Rank()))
		lv.phi = grid.NewDims(c, halo)
		lv.rhs = grid.NewDims(c, halo)
		lv.res = grid.NewDims(c, halo)
	}
	return mg, nil
}

// Levels returns the depth of the hierarchy.
func (mg *DistMultigrid) Levels() int { return len(mg.levels) }

// SerializedFrom returns the first level index that runs serialized on
// a single gathered copy of the grid. Since level redistribution, no
// level does — coarse levels run distributed on shrunken process grids
// — so it always equals Levels(). It is kept so callers (and the
// regression tests) can assert the absence of the old rank-0 arm.
func (mg *DistMultigrid) SerializedFrom() int { return len(mg.levels) }

// ShrunkFrom returns the first level index that runs on a process grid
// different from the solver's — redistributed onto fewer ranks (or
// re-split for transfer alignment) with the remaining ranks parked —
// or Levels() when every level keeps the full process grid.
func (mg *DistMultigrid) ShrunkFrom() int { return mg.shrunkFrom }

// smooth runs n damped Jacobi sweeps on a distributed level, ping-pong
// through lv.res exactly like the serial smoother. Each sweep's deep
// interior overlaps the level's halo exchange (the level engines always
// post asynchronously; the overlap split follows the solver approach).
func (mg *DistMultigrid) smooth(lv *distMGLevel, phi, rhs *grid.Grid, n int) {
	const omega = 0.8
	c := omega / lv.op.Center
	d := mg.D
	defer d.Cart.TraceRank().Region("mg.smooth").End()
	src, dst := phi, lv.res
	for s := 0; s < n; s++ {
		// The callbacks run inside withOverlap, before the swap, so they
		// see this sweep's src/dst.
		d.withOverlap(lv.eng, src,
			func() { lv.op.ApplySmooth(d.pool, dst, src, rhs, c) },
			func() { lv.op.ApplySmoothInterior(d.pool, dst, src, rhs, c) },
			func() { lv.op.ApplySmoothShell(dst, src, rhs, c) })
		src, dst = dst, src
	}
	if src != phi {
		mg.D.pool.Copy(phi, src)
	}
}

// residualInto computes res = rhs - A phi on a distributed level and
// accumulates |res|^2 locally into acc (callers reduce when they need
// the global norm, matching the serial solver which discards it inside
// the V-cycle).
func (mg *DistMultigrid) residualInto(lv *distMGLevel, res, phi, rhs *grid.Grid, acc *detsum.Acc) {
	d := mg.D
	d.withOverlap(lv.eng, phi,
		func() { lv.op.ApplyResidualAcc(d.pool, res, rhs, phi, acc) },
		func() { lv.op.ApplyResidualInteriorAcc(d.pool, res, rhs, phi, acc) },
		func() { lv.op.ApplyResidualShellAcc(res, rhs, phi, acc) })
}

// vcycle performs one distributed V-cycle from level l. It is entered
// only by ranks active at level l.
func (mg *DistMultigrid) vcycle(l int, phi, rhs *grid.Grid) {
	d := mg.D
	defer d.Cart.TraceRank().Region("mg.vcycle").End()
	lv := mg.levels[l]
	if l == len(mg.levels)-1 {
		mg.smooth(lv, phi, rhs, 60) // coarsest: relax hard
		return
	}
	mg.smooth(lv, phi, rhs, mg.PreSmooth)
	var discard detsum.Acc
	mg.residualInto(lv, lv.res, phi, rhs, &discard)
	next := mg.levels[l+1]
	if next.shrunk {
		// Level redistribution: move the residual into the doubled
		// transfer layout of the surviving ranks, restrict and recurse
		// on their sub-communicator, and bring the correction back.
		// Ranks outside the shrunken grid send their residual pieces and
		// park on the return transfer's blocking receives until the
		// coarse correction arrives.
		next.down.Run(lv.comm, lv.res, next.xfer, redistDownTag)
		if next.active {
			restrictFull(d.pool, next.xfer, next.rhs)
			next.phi.Zero()
			mg.vcycle(l+1, next.phi, next.rhs)
			prolongSet(d.pool, next.phi, next.xfer)
		}
		next.up.Run(lv.comm, next.xfer, lv.res, redistUpTag)
		// phi += correction: the addend is bit-identical to the coarse
		// value the serial prolongInto adds at the same global index.
		d.pool.Axpy(phi, 1, lv.res)
	} else {
		restrictFull(d.pool, lv.res, next.rhs)
		next.phi.Zero()
		mg.vcycle(l+1, next.phi, next.rhs)
		prolongInto(d.pool, next.phi, phi)
	}
	mg.smooth(lv, phi, rhs, mg.PostSmooth)
}

// Solve mirrors Multigrid.Solve across ranks.
func (mg *DistMultigrid) Solve(phi, rhs *grid.Grid) (int, float64, error) {
	d := mg.D
	defer d.Cart.TraceRank().Region("mg.solve").End()
	top := mg.levels[0]
	b := rhs.Clone()
	if d.BC == Periodic {
		d.removeMeanDist(b)
	}
	norm0 := d.Norm2(b)
	if norm0 == 0 {
		phi.Fill(0)
		return 0, 0, nil
	}
	relNorm := func() float64 {
		var acc detsum.Acc
		mg.residualInto(top, top.res, phi, b, &acc)
		return math.Sqrt(d.reduceAcc(&acc)) / norm0
	}
	for cyc := 1; cyc <= mg.MaxCycles; cyc++ {
		mg.vcycle(0, phi, b)
		if d.BC == Periodic {
			d.removeMeanDist(phi)
		}
		if rel := relNorm(); rel < mg.Tol {
			return cyc, rel, nil
		}
	}
	rel := relNorm()
	return mg.MaxCycles, rel, errNotConverged("multigrid", rel)
}

// --- distributed Hamiltonian / eigensolver -------------------------

// DistHamiltonian is the Kohn–Sham Hamiltonian on local sub-domains.
type DistHamiltonian struct {
	D *Dist
	T *stencil.Operator
	V *grid.Grid // local effective potential (may be nil)
}

// NewDistHamiltonian builds H with the paper's radius-2 kinetic stencil.
func NewDistHamiltonian(d *Dist, h float64, v *grid.Grid) *DistHamiltonian {
	return &DistHamiltonian{D: d, T: Kinetic(2, h), V: v}
}

// applyStates computes dsts[i] = beta*psis[i] + alpha*(H psis[i]) for
// every state, with halo exchange and compute structured by the Dist's
// approach (batched exchange, per-thread communication or per-grid
// fork-join). Overlapped approaches run each state's fused step split-
// phase: the deep interior sweeps while the batch's halo messages are
// in flight, the boundary shell after they land. This is the path the
// band-parallel eigensolver (bands.go RayleighRitz and the damped power
// step) applies H through, so the overlap covers the bands x domain
// layout too.
func (h *DistHamiltonian) applyStates(dsts, psis []*grid.Grid, alpha, beta float64) {
	defer h.D.Cart.TraceRank().Region("eigen.apply").End()
	if h.D.overlap {
		h.D.forEachSplit(psis,
			func(gi int, p *stencil.Pool) { h.T.ApplyStepInterior(p, dsts[gi], psis[gi], h.V, alpha, beta) },
			func(gi int) { h.T.ApplyStepShell(dsts[gi], psis[gi], h.V, alpha, beta) })
		return
	}
	h.D.forEachExchanged(psis, func(gi int, p *stencil.Pool) {
		h.T.ApplyStep(p, dsts[gi], psis[gi], h.V, alpha, beta)
	})
}

// SpectralBound mirrors Hamiltonian.SpectralBound: the kinetic bound
// plus the exact global potential maximum (max is associative, so the
// rank-folded maximum equals the serial one bitwise).
func (h *DistHamiltonian) SpectralBound() float64 {
	bound := kineticBound(h.T)
	if h.V != nil {
		in := [1]float64{maxPotential(h.V)}
		var out [1]float64
		h.D.Cart.Allreduce(mpi.OpMax, in[:], out[:])
		bound += out[0]
	}
	return bound
}

// DistEigenSolver mirrors EigenSolver across the bands x domain layout:
// the damped subspace iteration runs on this band group's slice of the
// states, while orthonormalization, subspace assembly and Rayleigh–Ritz
// run band-parallel through internal/pblas (see bands.go).
type DistEigenSolver struct {
	H       *DistHamiltonian
	Tol     float64
	MaxIter int
	// Ckpt, when set, snapshots the solver state (this band group's
	// states, previous Ritz values, iteration counter) every
	// Ckpt.Every iterations; see checkpoint.go.
	Ckpt *Checkpointer
}

// NewDistEigenSolver returns a solver with the serial defaults.
func NewDistEigenSolver(h *DistHamiltonian) *DistEigenSolver {
	return &DistEigenSolver{H: h, Tol: 1e-8, MaxIter: 2000}
}

// Solve iterates this band group's slice of the m global states toward
// the lowest eigenstates and returns all m eigenvalues, bit-identical
// to the serial solver's for every bands x domain layout. psis must be
// the slice D.BandRange(m) selects (the whole state set when Bands is
// 1). As with the serial solver, slice elements may be replaced; read
// states through the slice afterwards.
func (es *DistEigenSolver) Solve(m int, psis []*grid.Grid) ([]float64, error) {
	return es.solve(m, psis, nil, 0)
}

// Resume continues a solve from a restored checkpoint (RestoreEigen).
// The restored states stand in for the caller's psis slice; the solver
// skips the initial orthonormalization — the checkpointed states are
// already the post-Rayleigh–Ritz basis, and renormalizing them would
// perturb the bits an undisturbed run produces. The returned slice
// holds the final states.
func (es *DistEigenSolver) Resume(rs *EigenRestart) ([]float64, []*grid.Grid, error) {
	eig, err := es.solve(rs.States, rs.Psis, rs.Prev, rs.Iteration)
	return eig, rs.Psis, err
}

func (es *DistEigenSolver) solve(m int, psis []*grid.Grid, resumePrev []float64, start int) ([]float64, error) {
	if m < 1 {
		return nil, fmt.Errorf("gpaw: no states to solve")
	}
	d := es.H.D
	defer d.Cart.TraceRank().Region("eigen.solve").End()
	if lo, hi := d.BandRange(m); hi-lo != len(psis) {
		return nil, fmt.Errorf("gpaw: band group %d holds %d of %d states, want %d",
			d.Band, len(psis), m, hi-lo)
	}
	prev := make([]float64, m)
	if resumePrev != nil {
		copy(prev, resumePrev)
	} else {
		if err := d.orthonormalize(m, psis); err != nil {
			return nil, err
		}
		for i := range prev {
			prev[i] = math.Inf(1)
		}
	}
	tau := 1.0 / es.H.SpectralBound()
	outs := make([]*grid.Grid, len(psis))
	for i := range outs {
		outs[i] = grid.NewDims(psis[i].Dims(), psis[i].H)
	}
	lastDelta := math.Inf(1)
	for it := start + 1; it <= es.MaxIter; it++ {
		// Damped power step psi <- psi - tau*H*psi for this group's
		// states, one fused sweep each behind the approach's exchange
		// protocol.
		es.H.applyStates(outs, psis, -tau, 1)
		for i := range psis {
			psis[i], outs[i] = outs[i], psis[i]
		}
		if err := d.orthonormalize(m, psis); err != nil {
			return nil, err
		}
		eig, err := es.H.RayleighRitz(m, psis)
		if err != nil {
			return nil, err
		}
		maxd := 0.0
		for i, e := range eig {
			if dd := math.Abs(e - prev[i]); dd > maxd {
				maxd = dd
			}
			prev[i] = e
		}
		lastDelta = maxd
		if es.Ckpt.due(it) {
			if err := es.Ckpt.saveEigen(d, it, m, psis, prev); err != nil {
				return nil, err
			}
		}
		if maxd < es.Tol {
			return eig, nil
		}
	}
	return prev, errEigenNotConverged(es.MaxIter, lastDelta)
}

// --- distributed SCF -----------------------------------------------

// DistSCF runs the self-consistent field loop rank-parallel. Sys
// describes the global system (Vext is the global external potential,
// replicated on every rank); the result's grids are this rank's local
// sub-domains while eigenvalues, energies, iteration counts and
// residuals are identical on every rank — and bit-identical to the
// serial SCF.
type DistSCF struct {
	D       *Dist
	Sys     System
	Mix     float64
	Tol     float64
	MaxIter int
	// Ckpt, when set, snapshots the SCF state (density, effective
	// potential, this band group's states, eigenvalues, iteration
	// counter) every Ckpt.Every iterations; see checkpoint.go.
	Ckpt *Checkpointer
	// OnIteration, when set, is called on every rank at the top of each
	// SCF iteration, before any communication of that iteration. The
	// fault-injection harness uses it to kill a rank at a chosen
	// iteration; production callers may use it for progress reporting.
	OnIteration func(it int)
	// Guard, when set, runs the silent-data-corruption monitors each
	// iteration (see sdc.go); NewDistSCF arms one when d.ABFT is set.
	Guard *SDCGuard
}

// NewDistSCF builds a distributed SCF driver with the serial defaults.
func NewDistSCF(d *Dist, sys System) *DistSCF {
	s := &DistSCF{D: d, Sys: sys, Mix: 0.3, Tol: 1e-6, MaxIter: 60}
	if d.ABFT {
		s.Guard = &SDCGuard{}
	}
	return s
}

// states returns the number of doubly occupied orbitals.
func (s *DistSCF) states() int { return (s.Sys.Electrons + 1) / 2 }

// buildDensity mirrors SCF.buildDensity on the bands x domain layout:
// states circulate through the band communicator in ascending global
// order so every rank accumulates occ·|ψ|² in exactly the serial state
// order, then the normalization sum reduces exactly over the domain.
// The returned density is replicated across band groups.
func (s *DistSCF) buildDensity(m int, psis []*grid.Grid) *grid.Grid {
	d := s.D
	defer d.Cart.TraceRank().Region("scf.density").End()
	n := grid.NewDims(d.local, d.Decomp.Halo)
	dV := s.Sys.Spacing * s.Sys.Spacing * s.Sys.Spacing
	remaining := float64(s.Sys.Electrons)
	d.forEachBandState(m, psis, func(_ int, src *grid.Grid) {
		occ := math.Min(2, remaining)
		remaining -= occ
		n.AccumSquared(occ, src)
	})
	total := d.Sum(n) * dV
	if total > 0 {
		n.Scale(float64(s.Sys.Electrons) / total)
	}
	return n
}

// Run executes the distributed self-consistent loop, mirroring SCF.Run
// decision for decision (every reduced scalar is identical on every
// rank, so all ranks take the same branches).
func (s *DistSCF) Run() (*SCFResult, error) {
	return s.run(nil)
}

// Resume continues the self-consistent loop from a restored checkpoint
// (RestoreSCF), starting at iteration rs.Iteration+1. Because every
// reduction in the solver stack is exact and the restored state is a
// bit-exact re-tiling of the checkpointed one, the resumed run — on the
// same process grid, a shrunken one, or a grown one — produces results
// bit-identical to an undisturbed run, including the reported iteration
// count.
func (s *DistSCF) Resume(rs *SCFRestart) (*SCFResult, error) {
	if rs == nil {
		return nil, fmt.Errorf("gpaw: nil SCF restart state")
	}
	if rs.States != s.states() {
		return nil, fmt.Errorf("gpaw: checkpoint has %d states, system wants %d", rs.States, s.states())
	}
	if rs.Iteration >= s.MaxIter {
		return nil, fmt.Errorf("gpaw: checkpoint at iteration %d leaves no iterations below MaxIter %d", rs.Iteration, s.MaxIter)
	}
	return s.run(rs)
}

func (s *DistSCF) run(rs *SCFRestart) (*SCFResult, error) {
	if s.Sys.Electrons < 1 {
		return nil, fmt.Errorf("gpaw: %d electrons", s.Sys.Electrons)
	}
	if s.Sys.Vext == nil {
		return nil, fmt.Errorf("gpaw: missing external potential")
	}
	if s.Sys.BC != s.D.BC {
		return nil, fmt.Errorf("gpaw: system boundary %v != distributed context boundary %v", s.Sys.BC, s.D.BC)
	}
	if s.Sys.Dims != s.D.Decomp.Global {
		return nil, fmt.Errorf("gpaw: system dims %v != decomposed global %v", s.Sys.Dims, s.D.Decomp.Global)
	}
	d := s.D
	m := s.states()
	poisson := NewDistPoisson(d, s.Sys.Spacing)
	poisson.Tol = 1e-8
	vextLocal := d.ScatterReplicated(s.Sys.Vext)

	var psis []*grid.Grid
	var n, veff *grid.Grid
	var eig []float64
	start := 0
	if rs != nil {
		psis, n, veff, eig = rs.Psis, rs.N, rs.Veff, rs.Eig
		start = rs.Iteration
	} else {
		psis = d.InitGuessBand(m, [3]int{s.Sys.Dims[0], s.Sys.Dims[1], s.Sys.Dims[2]})
		veff = vextLocal.Clone()
	}
	for it := start + 1; it <= s.MaxIter; it++ {
		// One traced region per SCF iteration; the closure gives the span
		// a single exit covering the loop body's early returns.
		res, err := func() (*SCFResult, error) {
			defer d.Cart.TraceRank().Region("scf.iteration").End()
			if s.OnIteration != nil {
				s.OnIteration(it)
			}
			if s.Guard != nil {
				if s.Guard.Tamper != nil {
					s.Guard.Tamper(it, psis, n, veff)
				}
				if err := s.Guard.checkFields(d, it, psis, n, veff); err != nil {
					return nil, fmt.Errorf("gpaw: scf iteration %d: %w", it, err)
				}
			}
			h := NewDistHamiltonian(d, s.Sys.Spacing, veff)
			es := NewDistEigenSolver(h)
			es.Tol = 1e-7
			es.MaxIter = 600
			var err error
			eig, err = es.Solve(m, psis)
			if err != nil {
				var sdc *pblas.ErrSDCDetected
				if errors.As(err, &sdc) && s.Guard != nil {
					s.Guard.NoteABFT(d, sdc)
				}
				return nil, fmt.Errorf("gpaw: scf iteration %d: %w", it, err)
			}
			if s.Guard != nil {
				if err := s.Guard.checkEig(d, it, eig); err != nil {
					return nil, fmt.Errorf("gpaw: scf iteration %d: %w", it, err)
				}
			}
			newN := s.buildDensity(m, psis)
			var residual float64
			if n == nil {
				n = newN
				residual = math.Inf(1)
			} else {
				var acc detsum.Acc
				mixDensityAcc(n, newN, s.Mix, &acc)
				residual = math.Sqrt(d.reduceAcc(&acc))
			}
			if s.Guard != nil {
				if err := s.Guard.checkResidual(d, it, residual); err != nil {
					return nil, fmt.Errorf("gpaw: scf iteration %d: %w", it, err)
				}
			}
			vh, err := poisson.HartreePotential(n)
			if err != nil {
				return nil, fmt.Errorf("gpaw: scf iteration %d hartree: %w", it, err)
			}
			updateVeff(veff, vextLocal, vh, n)
			// Snapshot after the mix and potential update: (psis, n, veff,
			// eig, it) is the complete SCF state — the Hartree solve holds
			// no cross-iteration state. Saved before the convergence
			// branch, which is taken identically on every rank.
			if s.Ckpt.due(it) {
				if err := s.Ckpt.saveSCF(s, it, m, eig, psis, n, veff); err != nil {
					return nil, fmt.Errorf("gpaw: scf iteration %d checkpoint: %w", it, err)
				}
			}
			if residual < s.Tol {
				return &SCFResult{Eigenvalues: eig, TotalEnergy: bandEnergy(eig, s.Sys.Electrons),
					Density: n, VHartree: vh, Iterations: it, Residual: residual}, nil
			}
			if it == s.MaxIter {
				return &SCFResult{Eigenvalues: eig, TotalEnergy: bandEnergy(eig, s.Sys.Electrons),
						Density: n, VHartree: vh, Iterations: it, Residual: residual},
					fmt.Errorf("gpaw: SCF did not reach %g (residual %g)", s.Tol, residual)
			}
			return nil, nil
		}()
		if res != nil || err != nil {
			return res, err
		}
	}
	return nil, fmt.Errorf("gpaw: unreachable")
}
