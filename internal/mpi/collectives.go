package mpi

import (
	"fmt"

	"repro/internal/detsum"
	"repro/internal/trace"
)

// Collectives are implemented over point-to-point messages with reserved
// negative tags derived from the communicator's context id and a per-rank
// collective sequence number. MPI requires every rank of a communicator to
// invoke collectives in the same order, so local counters agree across
// ranks and successive collectives on one communicator can never
// cross-match; the context id keeps collectives on *different*
// communicators that share ranks (e.g. a band communicator and the world
// it was split from) in disjoint tag spaces. Sequence numbers wrap, which
// is safe because matching is FIFO per (source, tag): a wrapped tag can
// only collide with a message the receiver must consume first anyway.
//
// Fixed-tree contract. Allreduce, AllreduceFunc and AllreduceTransports
// share one recursive-doubling skeleton (allreduce) whose merge tree is
// a fixed function of the communicator size: the lower rank block is
// always the accumulator, never the first message to arrive. Every rank
// applies the same merges to the same operands, so a deterministic merge
// gives identical bits on every rank, run to run, whatever the
// scheduling. For an exact, associative merge (the detsum transports
// the solver stack reduces, max and min, ownership-masked copies with
// disjoint owners) the bits also equal the ascending linear fold.
// Reduce folds at a root in ascending rank order.

// collTag returns the reserved tag for the n-th collective call on this
// communicator.
func (c *Comm) collTag(seq uint64) int {
	return -2 - int(seq%(1<<16)) - int(c.ctx%(1<<31))<<16
}

// Op is a reduction operator for Reduce/Allreduce.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) apply(dst, src []float64) {
	switch o {
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpMax:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	case OpMin:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	default:
		panic(fmt.Sprintf("mpi: unknown reduction op %d", o))
	}
}

// Barrier blocks until every rank of the communicator has entered it.
// Implemented as a dissemination barrier over point-to-point messages.
func (c *Comm) Barrier() {
	c.enter()
	defer c.exit()
	if rk := c.traceRank(); rk != nil {
		defer rk.BeginComm("mpi.barrier", trace.KindCollective, -1, -1, 0).End()
	}
	tag := c.collTag(c.coll)
	c.coll++
	p := len(c.group)
	if p == 1 {
		return
	}
	var token [1]float64
	for round := 1; round < p; round *= 2 {
		to := (c.rank + round) % p
		from := (c.rank - round + p) % p
		req := c.irecv(from, tag, token[:])
		c.sendInternal(to, tag, token[:0])
		req.Wait()
	}
}

// Bcast copies buf from root to every rank (binomial tree). All ranks
// must pass equal-length buffers.
func (c *Comm) Bcast(root int, buf []float64) {
	c.enter()
	defer c.exit()
	if rk := c.traceRank(); rk != nil {
		defer rk.BeginComm("mpi.bcast", trace.KindCollective, c.worldRank(root), -1, int64(len(buf))*8).End()
	}
	tag := c.collTag(c.coll)
	c.coll++
	p := len(c.group)
	if p == 1 {
		return
	}
	// Rotate so the root is virtual rank 0.
	vrank := (c.rank - root + p) % p
	if vrank != 0 {
		// Receive from parent.
		mask := 1
		for mask < p {
			if vrank&mask != 0 {
				parent := ((vrank - mask) + root) % p
				c.irecv(parent, tag, buf).Wait()
				break
			}
			mask <<= 1
		}
		// Forward to children below the found mask.
		for child := mask >> 1; child > 0; child >>= 1 {
			v := vrank | child
			if v < p && v != vrank {
				c.sendInternal((v+root)%p, tag, buf)
			}
		}
	} else {
		mask := 1
		for mask < p {
			mask <<= 1
		}
		for child := mask >> 1; child > 0; child >>= 1 {
			if child < p {
				c.sendInternal((child+root)%p, tag, buf)
			}
		}
	}
}

// Reduce combines each rank's contribution into out at root using op.
// Contributions are always folded in ascending rank order, so
// floating-point results are deterministic run to run. out is only
// written at root and must be as long as in there; in and out must not
// alias.
func (c *Comm) Reduce(root int, op Op, in, out []float64) {
	c.enter()
	defer c.exit()
	if rk := c.traceRank(); rk != nil {
		defer rk.BeginComm("mpi.reduce", trace.KindCollective, c.worldRank(root), -1, int64(len(in))*8).End()
	}
	tag := c.collTag(c.coll)
	c.coll++
	if c.rank != root {
		c.sendInternal(root, tag, in)
		return
	}
	if len(out) < len(in) {
		panic("mpi: Reduce output shorter than input")
	}
	parts := make([][]float64, len(c.group))
	parts[root] = append([]float64(nil), in...)
	for r := 0; r < len(c.group); r++ {
		if r == root {
			continue
		}
		buf := make([]float64, len(in))
		c.irecv(r, tag, buf).Wait()
		parts[r] = buf
	}
	acc := out[:len(in)]
	copy(acc, parts[0])
	for r := 1; r < len(c.group); r++ {
		op.apply(acc, parts[r])
	}
}

// AllreduceFunc merges every rank's contribution with a caller-supplied
// merge function and leaves the result in out on every rank. The merges
// follow the fixed recursive-doubling tree (see the fixed-tree contract
// above and allreduce): any deterministic merge yields identical bits on
// every rank, and an exact, associative merge equals the ascending
// linear fold merge(...merge(merge(r0, r1), r2)..., rp-1). in and out
// must not alias.
func (c *Comm) AllreduceFunc(in, out []float64, merge func(acc, contrib []float64)) {
	c.allreduce(in, out, merge, false)
}

// Allreduce combines every rank's contribution with op and distributes
// the result to all ranks, on the same recursive-doubling tree as
// AllreduceFunc. OpMax and OpMin are exact, so their results equal the
// linear fold; OpSum rounds in tree order, deterministic and identical
// on every rank but not the linear fold's bits.
func (c *Comm) Allreduce(op Op, in, out []float64) {
	c.allreduce(in, out, op.apply, false)
}

// AllreduceTransports reduces concatenated detsum transports (k blocks
// of detsum.TransportLen words) exactly: out receives, on every rank,
// the word-by-word detsum.MergeTransport of all contributions. Every
// message travels in detsum's compact wire format, carrying only each
// accumulator's non-zero bin window, and is expanded back to the exact
// transport words before the merge — the bits equal AllreduceFunc with
// detsum.MergeTransport.
func (c *Comm) AllreduceTransports(in, out []float64) {
	if len(in)%detsum.TransportLen != 0 {
		panic("mpi: AllreduceTransports input is not whole detsum transports")
	}
	c.allreduce(in, out, detsum.MergeTransport, true)
}

// allreduce is the one allreduce skeleton: recursive doubling (Thakur,
// Rabenseifner & Gropp, "Optimization of Collective Communication
// Operations in MPICH"), log2 p exchange rounds instead of a linear
// reduce at a root plus a broadcast.
//
// Fixed-tree contract. Let pof2 be the largest power of two <= p and
// rem = p - pof2. Fold: for r < 2*rem, even rank r sends its vector to
// r+1, which forms merge(v[r], v[r+1]); the pof2 survivors (the odd
// ranks below 2*rem, then every rank from 2*rem up) each hold one
// ascending block of consecutive ranks, block i being {2i, 2i+1} for
// i < rem and {i+rem} otherwise. Doubling: in round k blocks i and
// i^2^k exchange vectors and both compute merge(lower, upper), the
// lower block always being the accumulator. After log2 pof2 rounds every
// survivor holds the balanced ascending tree over the blocks, e.g. for
// p = 6: ((v0·v1)·(v2·v3))·(v4·v5); unfold sends it back to the even
// ranks below 2*rem. Both partners of an exchange merge the same
// operands in the same order, so the bits agree on every rank.
//
// packed ships the vectors in detsum's compact wire format (the vector
// is then whole detsum transports). p = 1 sends nothing. The scratch
// buffers live on the communicator and are reused call to call.
//
//gpaw:hotpath
func (c *Comm) allreduce(in, out []float64, merge func(acc, contrib []float64), packed bool) {
	n := len(in)
	if len(out) < n {
		panic("mpi: allreduce output shorter than input")
	}
	c.enter()
	defer c.exit()
	tmp, wire, rwire := c.reduceScratch(n, packed)
	if rk := c.traceRank(); rk != nil {
		bytes := int64(n) * 8
		if packed {
			bytes = int64(detsum.PackTransports(wire, in)) * 8
		}
		defer rk.BeginComm("mpi.allreduce", trace.KindCollective, -1, -1, bytes).End()
	}
	tag := c.collTag(c.coll)
	c.coll++
	acc := out[:n]
	copy(acc, in)
	p := len(c.group)
	if p == 1 {
		return
	}
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	me := c.rank
	var block int // my block index among the pof2 survivors
	switch {
	case me < 2*rem && me%2 == 0:
		// Folded out: hand my vector to me+1 and wait for the result.
		unfold := c.reduceRecv(me+1, tag, acc, rwire, packed)
		c.reduceSend(me+1, tag, acc, wire, packed)
		c.reduceWait(unfold, acc, rwire, packed)
		return
	case me < 2*rem:
		c.reduceWait(c.reduceRecv(me-1, tag, tmp, rwire, packed), tmp, rwire, packed)
		merge(tmp, acc)
		acc, tmp = tmp, acc
		block = me / 2
	default:
		block = me - rem
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		pb := block ^ mask
		partner := pb + rem
		if pb < rem {
			partner = 2*pb + 1
		}
		req := c.reduceRecv(partner, tag, tmp, rwire, packed)
		c.reduceSend(partner, tag, acc, wire, packed)
		c.reduceWait(req, tmp, rwire, packed)
		if pb < block {
			merge(tmp, acc)
			acc, tmp = tmp, acc
		} else {
			merge(acc, tmp)
		}
	}
	if me < 2*rem {
		c.reduceSend(me-1, tag, acc, wire, packed)
	}
	copy(out[:n], acc) // no-op when acc is already out's storage
}

// reduceScratch returns the communicator's reusable allreduce buffers:
// the merge partner vector of n words and, when packed, the send and
// receive wire buffers. They grow on first use at a size and are reused
// thereafter (collectives on one communicator never run concurrently).
func (c *Comm) reduceScratch(n int, packed bool) (tmp, wire, rwire []float64) {
	if cap(c.redTmp) < n {
		c.redTmp = make([]float64, n)
	}
	if !packed {
		return c.redTmp[:n], nil, nil
	}
	w := n / detsum.TransportLen * detsum.PackedMaxLen
	if cap(c.redWire) < w {
		c.redWire = make([]float64, w)
		c.redRecv = make([]float64, w)
	}
	return c.redTmp[:n], c.redWire[:w], c.redRecv[:w]
}

// reduceRecv posts the receive of a partner's vector: straight into dst,
// or into the wire buffer when packed.
//
//gpaw:hotpath
func (c *Comm) reduceRecv(from, tag int, dst, rwire []float64, packed bool) *Request {
	if packed {
		return c.irecv(from, tag, rwire)
	}
	return c.irecv(from, tag, dst)
}

// reduceSend ships v to a partner, packed into the wire buffer first
// when packed.
//
//gpaw:hotpath
func (c *Comm) reduceSend(to, tag int, v, wire []float64, packed bool) {
	if packed {
		v = wire[:detsum.PackTransports(wire, v)]
	}
	c.sendInternal(to, tag, v)
}

// reduceWait completes a reduceRecv, expands a packed message into dst
// (using the length the receive reports) and returns the request to
// the world's pool.
//
//gpaw:hotpath
func (c *Comm) reduceWait(req *Request, dst, rwire []float64, packed bool) {
	_, _, got := req.Wait()
	Reclaim(req)
	if packed {
		if err := detsum.UnpackTransports(dst, rwire[:got]); err != nil {
			panic(err)
		}
	}
}

// AllreduceSum is a convenience wrapper reducing a single value.
func (c *Comm) AllreduceSum(v float64) float64 {
	in := [1]float64{v}
	var out [1]float64
	c.Allreduce(OpSum, in[:], out[:])
	return out[0]
}

// Gather collects each rank's equal-length contribution at root, laid out
// in rank order. out must be len(in)*Size() at root; it is ignored
// elsewhere.
func (c *Comm) Gather(root int, in, out []float64) {
	c.enter()
	defer c.exit()
	if rk := c.traceRank(); rk != nil {
		defer rk.BeginComm("mpi.gather", trace.KindCollective, c.worldRank(root), -1, int64(len(in))*8).End()
	}
	tag := c.collTag(c.coll)
	c.coll++
	if c.rank == root {
		if len(out) < len(in)*len(c.group) {
			panic("mpi: Gather output too short")
		}
		copy(out[root*len(in):], in)
		for r := 0; r < len(c.group); r++ {
			if r == root {
				continue
			}
			c.irecv(r, tag, out[r*len(in):(r+1)*len(in)]).Wait()
		}
		return
	}
	c.sendInternal(root, tag, in)
}

// Allgather is Gather to rank 0 followed by Bcast of the concatenation.
func (c *Comm) Allgather(in, out []float64) {
	if len(out) < len(in)*len(c.group) {
		panic("mpi: Allgather output too short")
	}
	if rk := c.traceRank(); rk != nil {
		defer rk.BeginComm("mpi.allgather", trace.KindCollective, -1, -1, int64(len(in))*8).End()
	}
	c.Gather(0, in, out)
	c.Bcast(0, out[:len(in)*len(c.group)])
}

// Split partitions the communicator by color, ordering the new ranks by
// key then by old rank (MPI_Comm_split). Every rank must call it; ranks
// with the same color end up in the same new communicator. A negative
// color plays the role of MPI_UNDEFINED: the rank participates in the
// exchange but joins no new communicator and receives nil.
//
// The child communicator's context id is derived deterministically from
// (parent context, parent split count, index of the color among the
// sorted distinct non-negative colors), so every member computes the
// same id locally and collectives on sibling or nested communicators
// occupy disjoint tag spaces. The encoding packs 8 bits of split count
// and 8 bits of color index per level, which is collision-free for the
// shallow communicator trees the solver stack builds (world -> domain /
// band -> process-grid row/column).
func (c *Comm) Split(color, key int) *Comm {
	// Exchange (color, key) pairs via Allgather.
	in := []float64{float64(color), float64(key)}
	out := make([]float64, 2*len(c.group))
	c.Allgather(in, out)
	c.splits++
	if color < 0 {
		return nil
	}
	// Index of my color among the sorted distinct non-negative colors:
	// every rank sees the same allgathered pairs, so the index — and the
	// derived context — agree across the new communicator's members.
	colorIndex := 0
	seen := map[int]bool{}
	for r := 0; r < len(c.group); r++ {
		col := int(out[2*r])
		if col >= 0 && col < color && !seen[col] {
			seen[col] = true
			colorIndex++
		}
	}
	ctx := c.ctx*(1<<16) + (c.splits%(1<<8))*(1<<8) + uint64(colorIndex+1)%(1<<8)
	type member struct{ color, key, oldRank int }
	var mine []member
	for r := 0; r < len(c.group); r++ {
		col := int(out[2*r])
		if col != color {
			continue
		}
		mine = append(mine, member{col, int(out[2*r+1]), r})
	}
	// Sort by (key, oldRank) — insertion sort; communicators are small.
	for i := 1; i < len(mine); i++ {
		for j := i; j > 0 && (mine[j].key < mine[j-1].key ||
			(mine[j].key == mine[j-1].key && mine[j].oldRank < mine[j-1].oldRank)); j-- {
			mine[j], mine[j-1] = mine[j-1], mine[j]
		}
	}
	group := make([]int, len(mine))
	newRank := -1
	for i, m := range mine {
		group[i] = c.group[m.oldRank]
		if m.oldRank == c.rank {
			newRank = i
		}
	}
	return &Comm{world: c.world, rank: newRank, group: group, active: c.active, ctx: ctx, epoch: c.epoch}
}
