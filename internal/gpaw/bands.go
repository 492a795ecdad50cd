package gpaw

import (
	"errors"
	"fmt"

	"repro/internal/detsum"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/pblas"
	"repro/internal/topology"
)

// Band parallelization: the second axis of the bands x domain 2D layout.
//
// PR 2 distributed the real-space grids over a Cartesian process grid,
// but every rank still held every wave-function, so the dense subspace
// operations — overlap/Hamiltonian assembly, orthonormalization,
// Rayleigh–Ritz, rotation — replicated O(m²) work and O(m) storage on
// every rank. This file adds GPAW's band parallelization on top: the m
// wave-functions are divided into contiguous slices across `Bands` rank
// groups, each group runs its own domain decomposition (and halo-exchange
// engine) over the same global grid, and the subspace operations become
// distributed:
//
//   - subspace matrices are assembled by circulating band blocks through
//     the band communicator in ascending order; each group computes the
//     rows it owns from local sub-domain dot products (rounded once per
//     element, detsum-exact), reduces them exactly over its domain
//     communicator, and the rows are merged across band groups verbatim;
//   - the m x m dense algebra (Cholesky, triangular inversion, symmetric
//     diagonalization) runs in internal/pblas on a 2D process grid built
//     over the band communicator;
//   - the O(m²) rotation Ψ ← Ψ·C runs as a distributed GEMM over
//     grid-vector blocks: source blocks are broadcast through the band
//     communicator in ascending order, so every output point accumulates
//     its m terms in exactly the serial lincombInto order.
//
// Because every floating-point reduction is either detsum-exact or an
// ascending-order accumulation identical to the serial kernel, all
// results — eigenvalues, wave-functions, SCF energies — are bit-identical
// to the serial solver for every bands x domain layout, every process
// grid shape and every programming approach.

// subspaceBlock is the block size of the block-cyclic subspace matrices.
// Any value yields bit-identical results (asserted in internal/pblas);
// 2 keeps several blocks per rank at typical band counts so the cyclic
// layout is genuinely exercised.
const subspaceBlock = 2

// BandRange returns the half-open global state range [lo, hi) owned by
// this rank's band group when m states are distributed.
func (d *Dist) BandRange(m int) (lo, hi int) {
	s, l := topology.Split(m, d.Bands, d.Band)
	return s, s + l
}

// bandOwnerOf returns the band group owning global state st.
func (d *Dist) bandOwnerOf(m, st int) int {
	for b := 0; b < d.Bands; b++ {
		s, l := topology.Split(m, d.Bands, b)
		if st >= s && st < s+l {
			return b
		}
	}
	panic(fmt.Sprintf("gpaw: state %d outside %d states", st, m))
}

// InitGuessBand fills this band group's slice of the m global seed
// states at this rank's sub-domain, through the same deterministic
// global-index field as the serial InitGuess — so band-distributed
// solver runs start from bit-identical states for every layout.
func (d *Dist) InitGuessBand(m int, dims [3]int) []*grid.Grid {
	lo, hi := d.BandRange(m)
	psis := make([]*grid.Grid, hi-lo)
	for st := lo; st < hi; st++ {
		g := d.NewLocalGrid()
		st := st
		g.FillFunc(func(i, j, k int) float64 {
			return guessValue(st, dims, d.off[0]+i, d.off[1]+j, d.off[2]+k)
		})
		psis[st-lo] = g
	}
	return psis
}

// bcastBandState circulates one state's interior through the band
// communicator: the owner group's member broadcasts src's interior, and
// every other group installs it into buf. Returns the grid holding the
// state (src on the owner, buf elsewhere). With one band group it is
// the identity on src.
func (d *Dist) bcastBandState(owner int, src, buf *grid.Grid, flat []float64) *grid.Grid {
	if d.Bands == 1 {
		return src
	}
	if owner == d.Band {
		copy(flat, src.InteriorSlice())
		d.BandComm.Bcast(owner, flat)
		return src
	}
	d.BandComm.Bcast(owner, flat)
	buf.SetInterior(flat)
	return buf
}

// forEachBandState visits the m global states in ascending order,
// handing f each state's local sub-domain field: the owner group's
// slice entry directly, other groups a broadcast copy (which f must
// not retain past the call). The ascending circulation order is the
// determinism contract every consumer — subspace assembly, rotation,
// density build — rests on.
func (d *Dist) forEachBandState(m int, local []*grid.Grid, f func(gi int, src *grid.Grid)) {
	lo, _ := d.BandRange(m)
	var buf *grid.Grid
	var flat []float64
	if d.Bands > 1 {
		buf = grid.NewDims(d.local, 0)
		flat = make([]float64, buf.Points())
	}
	for gi := 0; gi < m; gi++ {
		owner := d.bandOwnerOf(m, gi)
		var own *grid.Grid
		if owner == d.Band {
			own = local[gi-lo]
		}
		f(gi, d.bcastBandState(owner, own, buf, flat))
	}
}

// bandSymMatrix assembles the full m x m symmetric matrix
// out[i][j] = <left_i, right_j> (j >= i computed, mirrored) when each
// band group holds only its slice of left and right. Blocks of the
// right-hand states circulate through the band communicator in
// ascending order; the pair (i, j) is computed by the owner of i from
// local sub-domain dots accumulated into detsum accumulators, reduced
// exactly over the domain communicator, and the finished
// rows are merged across band groups verbatim. Every entry is
// bit-identical to the serial symMatrix value.
func (d *Dist) bandSymMatrix(m int, out linalg.Matrix, left, right []*grid.Grid) {
	lo, hi := d.BandRange(m)
	if d.Bands == 1 {
		// Domain-only layout: one pool split over all m(m+1)/2 pairs
		// keeps every worker busy (no circulation needed — every state
		// is local). Same per-pair arithmetic and reduction order as the
		// circulate path, so the entries are bit-identical either way.
		type pair struct{ i, j int }
		pairs := make([]pair, 0, m*(m+1)/2)
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				pairs = append(pairs, pair{i, j})
			}
		}
		accs := make([]detsum.Acc, len(pairs))
		d.pool.Exec(len(pairs), func(_, plo, phi int) {
			for n := plo; n < phi; n++ {
				left[pairs[n].i].DotAccRange(right[pairs[n].j], 0, left[pairs[n].i].Nx, &accs[n])
			}
		})
		ptrs := make([]*detsum.Acc, len(accs))
		for i := range accs {
			ptrs[i] = &accs[i]
		}
		vals := d.reduceAccs(ptrs)
		for n, pr := range pairs {
			out[pr.i][pr.j], out[pr.j][pr.i] = vals[n], vals[n]
		}
		return
	}
	nown := hi - lo
	accs := make([]detsum.Acc, nown*m)
	used := make([]bool, nown*m)
	d.forEachBandState(m, right, func(j int, src *grid.Grid) {
		// Pairs (i, j) with i in my range and i <= j.
		iEnd := j + 1
		if iEnd > hi {
			iEnd = hi
		}
		count := iEnd - lo
		if count <= 0 {
			return
		}
		d.pool.Exec(count, func(_, ilo, ihi int) {
			for ii := ilo; ii < ihi; ii++ {
				left[ii].DotAccRange(src, 0, left[ii].Nx, &accs[ii*m+j])
			}
		})
		for ii := 0; ii < count; ii++ {
			used[ii*m+j] = true
		}
	})
	// Exact domain reduction of every owned pair, in a fixed order.
	var ptrs []*detsum.Acc
	var slots []int
	for k := range accs {
		if used[k] {
			ptrs = append(ptrs, &accs[k])
			slots = append(slots, k)
		}
	}
	vals := d.reduceAccs(ptrs)
	// Merge the finished rows across band groups verbatim and mirror.
	in := make([]float64, 2*m*m)
	for v, k := range slots {
		i, j := lo+k/m, k%m
		in[i*m+j] = vals[v]
		in[m*m+i*m+j] = 1
	}
	merged := make([]float64, 2*m*m)
	d.BandComm.AllreduceFunc(in, merged, pblas.MergeMasked)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			out[i][j], out[j][i] = merged[i*m+j], merged[i*m+j]
		}
	}
}

// bandRotate replaces the band slice psis (global states [lo, hi)) by
// the columns [lo, hi) of Ψ·C, where C is the replicated m x m rotation
// and Ψ is the band-distributed state set — the distributed GEMM over
// grid-vector blocks. Source states are broadcast through the band
// communicator in ascending global order, so every output point
// accumulates its terms in exactly the serial lincombInto order (clear,
// then += c_i * src_i for ascending i, skipping exact-zero
// coefficients) and the rotated states are bit-identical to the serial
// rotation for every band count.
func (d *Dist) bandRotate(m int, psis []*grid.Grid, c linalg.Matrix) {
	if d.Bands == 1 {
		// Domain-only layout: the fused serial rotation performs the very
		// same per-point addition sequence in m+1 memory passes per state
		// instead of the circulate path's clear + m axpys.
		rotate(d.pool, psis, c)
		return
	}
	lo, hi := d.BandRange(m)
	olds := make([]*grid.Grid, len(psis))
	for i, p := range psis {
		olds[i] = p.Clone()
	}
	for _, p := range psis {
		p.Fill(0)
	}
	d.forEachBandState(m, olds, func(gi int, src *grid.Grid) {
		d.pool.Exec(hi-lo, func(_, jlo, jhi int) {
			for jj := jlo; jj < jhi; jj++ {
				if ct := c[gi][lo+jj]; ct != 0 {
					psis[jj].Axpy(ct, src)
				}
			}
		})
	})
}

// orthonormalize mirrors OrthonormalizeWith on the bands x domain
// layout: the overlap matrix is assembled band-parallel, factored by the
// distributed Cholesky of internal/pblas on the band process grid,
// inverted by distributed triangular solve, and the rotation Ψ ← Ψ·L⁻ᵀ
// runs as the block-circulating distributed GEMM. Bit-identical to the
// serial orthonormalization for every layout.
func (d *Dist) orthonormalize(m int, psis []*grid.Grid) error {
	defer d.Cart.TraceRank().Region("bands.orthonormalize").End()
	s := linalg.NewMatrix(m, m)
	d.bandSymMatrix(m, s, psis, psis)
	ds := pblas.FromReplicated(d.BGrid, s, subspaceBlock, subspaceBlock)
	cholesky := pblas.Cholesky
	if d.ABFT {
		cholesky = pblas.CholeskyChecked
	}
	l, err := cholesky(ds)
	if err != nil {
		var sdc *pblas.ErrSDCDetected
		if errors.As(err, &sdc) {
			return err
		}
		return fmt.Errorf("gpaw: overlap not positive definite (linearly dependent states): %w", err)
	}
	linv, err := pblas.InvertLower(l)
	if err != nil {
		return err
	}
	d.bandRotate(m, psis, linalg.Transpose(linv.Replicate()))
	return nil
}

// RayleighRitz mirrors the serial RayleighRitz on the bands x domain layout: H is
// applied to this group's slice behind the approach's exchange protocol,
// the subspace matrix is assembled band-parallel, diagonalized by the
// pblas distributed eigensolver on the band process grid, and the states
// rotate to the Ritz vectors by distributed GEMM. Returns all m Ritz
// values ascending (identical on every rank).
func (h *DistHamiltonian) RayleighRitz(m int, psis []*grid.Grid) ([]float64, error) {
	defer h.D.Cart.TraceRank().Region("bands.rayleighritz").End()
	hp := make([]*grid.Grid, len(psis))
	for i := range psis {
		hp[i] = grid.NewDims(psis[i].Dims(), psis[i].H)
	}
	h.applyStates(hp, psis, 1, 0)
	hm := linalg.NewMatrix(m, m)
	h.D.bandSymMatrix(m, hm, psis, hp)
	dh := pblas.FromReplicated(h.D.BGrid, hm, subspaceBlock, subspaceBlock)
	eig, dv, err := pblas.SymEig(dh)
	if err != nil {
		return nil, fmt.Errorf("gpaw: subspace diagonalization: %w", err)
	}
	h.D.bandRotate(m, psis, dv.Replicate())
	return eig, nil
}

// GatherBandStates assembles all m global wave-functions on world rank 0
// (band group 0, domain rank 0), returning nil elsewhere: each owner
// group gathers its states over its domain communicator, then the group
// leaders relay interiors to group 0 through the band communicator. The
// differential harness and the live demos use it to compare
// band-distributed states against serial ones bitwise.
func (d *Dist) GatherBandStates(m int, psis []*grid.Grid) []*grid.Grid {
	lo, _ := d.BandRange(m)
	var out []*grid.Grid
	if d.Cart.Rank() == 0 && d.Band == 0 {
		out = make([]*grid.Grid, m)
	}
	for st := 0; st < m; st++ {
		owner := d.bandOwnerOf(m, st)
		var g *grid.Grid
		if owner == d.Band {
			g = d.gather0(psis[st-lo])
		}
		if d.Cart.Rank() != 0 {
			continue
		}
		switch {
		case d.Band == owner && owner == 0:
			out[st] = g
		case d.Band == owner:
			d.BandComm.Send(0, distTag+2, g.InteriorSlice())
		case d.Band == 0:
			buf := make([]float64, d.Decomp.Global.Count())
			d.BandComm.Recv(owner, distTag+2, buf)
			gg := grid.NewDims(d.Decomp.Global, d.Decomp.Halo)
			gg.SetInterior(buf)
			out[st] = gg
		}
	}
	return out
}
