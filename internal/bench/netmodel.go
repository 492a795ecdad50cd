package bench

import (
	"fmt"
	"math"

	"repro/internal/bgpsim"
	"repro/internal/detsum"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// NetScaling runs the calibrated network model on the live transport at
// paper-scale simulated rank counts (64 .. 4096) and compares rank
// placements. Full solves are too heavy at 4096 in-process ranks, so the
// workload is the communication skeleton of one SCF iteration: a few
// rounds of six-face halo exchange (two 16^2 planes per face, the
// paper's halo width) each closed by a scalar allreduce. Virtual
// makespans are deterministic (NoComputeWall), so the Cartesian-embed
// vs shuffled-placement ordering is asserted in the notes, not just
// eyeballed — the section V mapping experiment on the real runtime.
// The exact-allreduce rows time one detsum accumulator reduction alone
// and assert its log-p growth (see accAllreduceRows).
func NetScaling(opts Options) *Experiment {
	e := &Experiment{
		Name: "netmodel",
		Caption: "calibrated transport at scale: halo-exchange + allreduce rounds on the\n" +
			"live runtime, virtual makespan per simulated rank count x rank placement;\n" +
			"exact allreduce: virtual time of one detsum accumulator reduction",
		Header: []string{"ranks", "procs", "network", "mapping", "workload", "virt time"},
	}
	rankCounts := []int{64, 512, 4096}
	rounds := 3
	if opts.Quick {
		rankCounts = []int{64}
		rounds = 2
	}
	const faceElems = 2 * 16 * 16 // halo width 2 over a 16^2 local face
	mappings := []topology.Mapping{topology.MapLinear, topology.MapCart, topology.MapShuffle}
	ordered := true
	for _, p := range rankCounts {
		procs := topology.BalancedDims(p)
		var cart, shuffle float64
		for _, mapping := range mappings {
			m := bgpsim.NetModelFor(p)
			m.Coords = topology.MapGrid(procs, m.Net, mapping)
			m.NoComputeWall = true
			mk, err := mpi.RunModeled(p, mpi.ThreadSingle, m, func(c *mpi.Comm) {
				haloRounds(c, procs, faceElems, rounds)
			})
			if err != nil {
				panic(fmt.Sprintf("bench: netmodel %d ranks %v: %v", p, mapping, err))
			}
			net := "mesh"
			if m.Net.Torus {
				net = "torus"
			}
			e.AddRow(fmt.Sprintf("%d", p), procs.String(),
				fmt.Sprintf("%s %v", net, m.Net.Dims), mapping.String(), "halo rounds",
				fmt.Sprintf("%9.1f us", float64(mk)/1e3))
			switch mapping {
			case topology.MapCart:
				cart = float64(mk)
			case topology.MapShuffle:
				shuffle = float64(mk)
			}
		}
		if cart >= shuffle {
			ordered = false
		}
	}
	if ordered {
		e.AddNote("Cartesian embedding beat the shuffled placement at every rank count")
	} else {
		e.AddNote("DEVIATION: a shuffled placement matched or beat the Cartesian embedding")
	}
	e.AddNote("workload: %d rounds of six-face halo exchange (%d doubles/face) + allreduce; "+
		"costs from the bgpsim Figure-2 fit", rounds, faceElems)
	accRanks := []int{64, 512, 4096}
	if opts.Quick {
		accRanks = []int{8, 64}
	}
	accAllreduceRows(e, accRanks)
	return e
}

// accAllreduceRows adds one row per rank count with the modeled virtual
// time of a single-accumulator exact allreduce (mpi.
// AllreduceTransports, linear placement, NoComputeWall), then a note
// asserting log-p growth: from the smallest to the largest count the
// cost may grow at most 1.25x the ratio of their log2 p — 2.5 from 64 to
// 4096 ranks, where a linear reduce at a root would pay (p-1) receive
// posts alone.
func accAllreduceRows(e *Experiment, rankCounts []int) {
	costs := make([]float64, len(rankCounts))
	var postCost float64
	for i, p := range rankCounts {
		m := bgpsim.NetModelFor(p)
		m.NoComputeWall = true
		postCost = m.Params.PostCost
		want := float64(p*(p-1))/2 + 0.125*float64(p)
		mk, err := mpi.RunModeled(p, mpi.ThreadSingle, m, func(c *mpi.Comm) {
			var a detsum.Acc
			a.Add(float64(c.Rank()) + 0.125)
			in := a.Transport(nil)
			out := make([]float64, len(in))
			c.AllreduceTransports(in, out)
			if got := detsum.RoundTransport(out); got != want {
				panic(fmt.Sprintf("exact allreduce = %g, want %g", got, want))
			}
		})
		if err != nil {
			panic(fmt.Sprintf("bench: exact allreduce at %d ranks: %v", p, err))
		}
		costs[i] = float64(mk) / 1e3
		net := "mesh"
		if m.Net.Torus {
			net = "torus"
		}
		e.AddRow(fmt.Sprintf("%d", p), "-", fmt.Sprintf("%s %v", net, m.Net.Dims),
			topology.MapLinear.String(), "exact allreduce", fmt.Sprintf("%9.1f us", costs[i]))
	}
	lo, hi := rankCounts[0], rankCounts[len(rankCounts)-1]
	ratio := costs[len(costs)-1] / costs[0]
	bound := 1.25 * math.Log2(float64(hi)) / math.Log2(float64(lo))
	verdict := "log-p growth"
	if ratio > bound {
		verdict = "DEVIATION: super-logarithmic growth"
	}
	e.AddNote("exact allreduce %s: %d-to-%d rank cost ratio %.2f (bound %.2f, log2 ratio %.2f); "+
		"a linear root would pay %.1f us in receive posts alone at %d ranks",
		verdict, hi, lo, ratio, bound, math.Log2(float64(hi))/math.Log2(float64(lo)),
		float64(hi-1)*postCost*1e6, hi)
}

// haloRounds exchanges all six faces with the periodic neighbours on the
// procs grid, then allreduces a scalar — repeated rounds times.
func haloRounds(c *mpi.Comm, procs topology.Dims, faceElems, rounds int) {
	const tag0 = 9100
	coord := procs.Coord(c.Rank())
	send := make([]float64, faceElems)
	for i := range send {
		send[i] = float64(c.Rank()*faceElems + i)
	}
	recvLo := make([]float64, faceElems)
	recvHi := make([]float64, faceElems)
	sum := 0.0
	for r := 0; r < rounds; r++ {
		for dim := 0; dim < 3; dim++ {
			if procs[dim] == 1 {
				continue
			}
			lo, hi := coord, coord
			lo[dim] = (coord[dim] - 1 + procs[dim]) % procs[dim]
			hi[dim] = (coord[dim] + 1) % procs[dim]
			loRank, hiRank := procs.Rank(lo), procs.Rank(hi)
			tag := tag0 + 2*dim
			reqs := []*mpi.Request{
				c.Irecv(loRank, tag, recvLo),
				c.Irecv(hiRank, tag+1, recvHi),
				c.Isend(hiRank, tag, send),
				c.Isend(loRank, tag+1, send),
			}
			for _, q := range reqs {
				q.Wait()
			}
		}
		sum = c.AllreduceSum(sum + 1)
	}
}
