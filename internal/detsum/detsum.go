// Package detsum implements deterministic (order-independent) float64
// summation for the solver stack's reductions.
//
// The distributed solvers in internal/gpaw must produce results that are
// bit-identical to the serial solvers for every rank count, process-grid
// shape and thread count. A plain float64 accumulator cannot provide
// that: floating-point addition is not associative, so any partitioning
// of a sum — across pool workers or across MPI ranks — changes the
// rounding. detsum fixes the problem at the root: every value is split
// into exact 32-bit chunks that are accumulated in fixed-weight bins
// (a small Kulisch-style superaccumulator). Chunk extraction and bin
// addition are exact integer arithmetic in float64, so the bins — and
// therefore the rounded result — depend only on the multiset of added
// values, never on the order or grouping of the additions.
//
// The contract the solver stack builds on:
//
//	Add is exact            -> Acc holds the true sum of all added values
//	Merge is exact          -> any partitioning of the terms gives the
//	                           same Acc value (threads, ranks, batches)
//	Round is deterministic  -> equal Acc values round to equal float64s
//
// Accumulators serialize to a flat []float64 (Transport/MergeTransport)
// so they travel through the mpi runtime unchanged and merge on the
// receiving rank with the same exactness guarantee. Because the merge is
// exact and associative, every reduction tree — the mpi runtime's
// recursive-doubling allreduce, a linear fold, a serial Sum — yields the
// same transport words and therefore the same rounded bits.
//
// # Wire format
//
// A transport is TransportLen words, but a typical accumulator has only
// a few non-zero bins. PackTransports compresses each transport of a
// concatenation to one record
//
//	[lo, cnt, bins[lo:lo+cnt]..., spec]
//
// where bins[lo:lo+cnt] is the smallest window holding every bin whose
// bits are non-zero (an empty accumulator packs as [0, 0, spec]), so a
// record is 3 to PackedMaxLen words. UnpackTransports expands the
// records back into the exact transport words and rejects malformed
// input (a window past the last bin, a truncated record, trailing
// words) with an error before writing out of range.
package detsum

import (
	"fmt"
	"math"
)

const (
	// binWidth is the chunk width in bits. Each bin b holds an integer
	// count of units of 2^(32b-bias).
	binWidth = 32
	// bias positions bin 0 at weight 2^-1088, below the smallest
	// subnormal's lowest mantissa bit (2^-1074), so every finite float64
	// splits exactly.
	bias = 1088
	// numBins covers weights up to 2^(32*67-1088) = 2^1056 > MaxFloat64,
	// leaving headroom for carries out of the top value bin.
	numBins = 68
	// carryEvery bounds the number of Adds between carry propagations:
	// each Add deposits chunks < 2^32 per bin, so after 2^19 Adds a bin
	// holds < 2^51 — comfortably inside float64's exact-integer range.
	carryEvery = 1 << 19

	two32 = 1 << 32
	two31 = 1 << 31
)

// scaleUp[m] = 2^(bias-32m) for bins where that is representable;
// lower bins (huge scales) take the two-step path in Add.
var scaleUp [numBins]float64

func init() {
	for m := range scaleUp {
		e := bias - binWidth*m
		if e <= 1023 {
			scaleUp[m] = math.Ldexp(1, e)
		}
	}
}

// Acc is an exact accumulator of float64 values. The zero value is an
// empty sum and is ready to use.
type Acc struct {
	bins [numBins]float64
	n    int     // Adds since the last carry propagation
	spec float64 // running sum of non-finite inputs (Inf/NaN)
}

// Reset empties the accumulator.
func (a *Acc) Reset() { *a = Acc{} }

// Add accumulates v exactly. Non-finite values are tracked separately
// and poison Round, matching a plain accumulator's behaviour.
func (a *Acc) Add(v float64) {
	if v == 0 {
		return
	}
	bits := math.Float64bits(v)
	be := int(bits>>52) & 0x7ff
	if be == 0x7ff {
		a.spec += v
		return
	}
	// Top-bit exponent e = be-1023 (for subnormals be=0 overestimates e,
	// which only makes the first chunk 0 — still exact).
	// Top chunk bin m = floor((e+bias)/32) = (be+65)>>5.
	m := (be + 65) >> 5
	var rest float64
	if s := scaleUp[m]; s != 0 {
		rest = v * s // exact: power-of-two scale, |rest| < 2^32
	} else {
		// 2^(bias-32m) overflows float64; split the scaling.
		rest = v * math.Ldexp(1, 512) * math.Ldexp(1, bias-binWidth*m-512)
	}
	for {
		chunk := math.Trunc(rest)
		a.bins[m] += chunk
		rest = (rest - chunk) * two32 // exact: fraction shifted up
		if rest == 0 {
			break
		}
		m--
	}
	a.n++
	if a.n >= carryEvery {
		a.carry()
	}
}

// AddMul accumulates the rounded product x*y — the element step of a
// deterministic dot product. The product is rounded once, identically
// for every partitioning, and then accumulated exactly.
func (a *Acc) AddMul(x, y float64) { a.Add(x * y) }

// carry moves each bin's overflow (beyond 32 bits) one bin up, keeping
// every bin's magnitude below 2^33. The accumulator's value is
// unchanged; all operations are exact.
func (a *Acc) carry() {
	a.n = 0
	for b := 0; b < numBins-1; b++ {
		if hi := math.Trunc(a.bins[b] * (1.0 / two32)); hi != 0 {
			a.bins[b] -= hi * two32
			a.bins[b+1] += hi
		}
	}
}

// Merge folds o into a exactly: afterwards a holds the sum of both
// accumulators' values. o is carry-normalized in place but its value is
// unchanged.
func (a *Acc) Merge(o *Acc) {
	a.carry()
	o.carry()
	for b := range a.bins {
		a.bins[b] += o.bins[b]
	}
	a.spec += o.spec
	a.carry()
}

// Round returns the accumulator's value as a float64. The bins are
// first reduced to the unique balanced base-2^32 representation of the
// exact sum, so equal sums always produce equal results regardless of
// the addition history.
func (a *Acc) Round() float64 {
	if math.IsNaN(a.spec) {
		// Canonical NaN: which NaN an Inf-Inf or NaN+NaN addition
		// yields depends on operand order, so returning the payload
		// would make the bits depend on the merge tree.
		return math.NaN()
	}
	if a.spec != 0 {
		return a.spec
	}
	a.carry()
	// Canonical balanced digits: d in (-2^31, 2^31], carries exact.
	var digits [numBins]float64
	carry := 0.0
	for b := 0; b < numBins; b++ {
		t := a.bins[b] + carry // exact: both integers < 2^34
		d := math.Mod(t, two32)
		if d > two31 {
			d -= two32
		} else if d <= -two31 {
			d += two32
		}
		carry = (t - d) * (1.0 / two32) // exact by construction
		digits[b] = d
	}
	// Fold largest-to-smallest with a compensated (head + tail)
	// accumulator. The canonical digits are non-overlapping, so the
	// head/tail pair captures the top ~106 bits and the result is the
	// faithfully rounded sum — exact whenever the true sum is
	// representable. Deterministic for canonical digits either way.
	//
	// A balanced top digit can sit one bin above the value's magnitude
	// (e.g. 2^1024 - small), which would overflow mid-fold even for a
	// representable sum; when the top digit is near the float64 ceiling
	// the fold runs in a 2^shift-scaled space and rescales once at the
	// end (power-of-two scaling is exact; a true overflow still lands
	// on ±Inf).
	top := -1
	if carry != 0 {
		top = numBins
	} else {
		for b := numBins - 1; b >= 0; b-- {
			if digits[b] != 0 {
				top = b
				break
			}
		}
	}
	if top < 0 {
		return 0
	}
	shift := 0
	if topExp := binWidth*top - bias + 31; topExp > 1000 {
		shift = 1000 - topExp
	}
	head, tail := 0.0, 0.0
	fold := func(d float64, exp int) {
		v := math.Ldexp(d, exp+shift)
		s := head + v
		bv := s - head
		err := (head - (s - bv)) + (v - bv) // TwoSum error term
		head = s
		tail += err
	}
	if carry != 0 {
		fold(carry, binWidth*numBins-bias)
	}
	for b := numBins - 1; b >= 0; b-- {
		if digits[b] != 0 {
			fold(digits[b], binWidth*b-bias)
		}
	}
	return math.Ldexp(head+tail, -shift)
}

// TransportLen is the length of the []float64 an Acc serializes to.
const TransportLen = numBins + 1

// Transport appends the accumulator's state to dst as plain float64
// words (carry-normalized: every word's magnitude stays below 2^33, so
// even 2^19 transports can be summed term-by-term without rounding).
// The words travel through mpi buffers unchanged.
func (a *Acc) Transport(dst []float64) []float64 {
	a.carry()
	dst = append(dst, a.bins[:]...)
	return append(dst, a.spec)
}

// MergeTransport adds the transported accumulator src into dst
// word-by-word (dst and src both in Transport layout). The addition is
// exact for any realistic number of merges (bins are carry-normalized
// integers below 2^33), so the merged transport represents the exact
// combined sum independent of merge order.
func MergeTransport(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// RoundTransport rounds a transported accumulator in a stack-resident
// Acc, without allocating.
func RoundTransport(w []float64) float64 {
	var a Acc
	copy(a.bins[:], w[:numBins])
	a.spec = w[numBins]
	return a.Round()
}

// PackedMaxLen is the longest packed record of one transport: lo, cnt,
// every bin and spec.
const PackedMaxLen = numBins + 3

// PackTransports packs the concatenated transports in src into dst in
// the compact wire format (see the package doc) and returns the number
// of words written. dst must hold PackedMaxLen words per transport.
//
//gpaw:hotpath
func PackTransports(dst, src []float64) int {
	if len(src)%TransportLen != 0 || len(dst) < len(src)/TransportLen*PackedMaxLen {
		panic("detsum: PackTransports needs whole transports and PackedMaxLen words of room per transport")
	}
	pos := 0
	for off := 0; off < len(src); off += TransportLen {
		t := src[off : off+TransportLen]
		lo, hi := 0, numBins
		for lo < hi && math.Float64bits(t[lo]) == 0 {
			lo++
		}
		for hi > lo && math.Float64bits(t[hi-1]) == 0 {
			hi--
		}
		if lo == hi {
			lo, hi = 0, 0
		}
		n := hi - lo
		dst[pos], dst[pos+1] = float64(lo), float64(n)
		copy(dst[pos+2:pos+2+n], t[lo:hi])
		dst[pos+2+n] = t[numBins]
		pos += n + 3
	}
	return pos
}

// UnpackTransports expands the packed records in src into the
// concatenated transports dst (len(dst)/TransportLen records expected),
// reproducing PackTransports' input words exactly. Malformed input — a
// window that is not a pair of integers with lo+cnt <= the bin count, a
// record cut short, a record count that does not match dst — returns an
// error; dst is never written out of range.
//
//gpaw:hotpath
func UnpackTransports(dst, src []float64) error {
	if len(dst)%TransportLen != 0 {
		//lint:ignore hotpathalloc error path: a misuse is reported once, the steady state never reaches it
		return fmt.Errorf("detsum: unpack destination of %d words is not whole transports", len(dst))
	}
	pos := 0
	for off := 0; off < len(dst); off += TransportLen {
		if len(src)-pos < 3 {
			//lint:ignore hotpathalloc error path: malformed input is reported once, never in the steady state
			return fmt.Errorf("detsum: packed record %d truncated at word %d of %d", off/TransportLen, pos, len(src))
		}
		lo, cnt := src[pos], src[pos+1]
		if !(lo >= 0 && cnt >= 0 && lo+cnt <= numBins) || lo != math.Trunc(lo) || cnt != math.Trunc(cnt) {
			//lint:ignore hotpathalloc error path: malformed input is reported once, never in the steady state
			return fmt.Errorf("detsum: packed record %d has window lo=%g cnt=%g outside %d bins", off/TransportLen, lo, cnt, numBins)
		}
		l, n := int(lo), int(cnt)
		if len(src)-pos < n+3 {
			//lint:ignore hotpathalloc error path: malformed input is reported once, never in the steady state
			return fmt.Errorf("detsum: packed record %d truncated: needs %d words, %d left", off/TransportLen, n+3, len(src)-pos)
		}
		t := dst[off : off+TransportLen]
		clear(t[:l])
		copy(t[l:l+n], src[pos+2:pos+2+n])
		clear(t[l+n : numBins])
		t[numBins] = src[pos+2+n]
		pos += n + 3
	}
	if pos != len(src) {
		//lint:ignore hotpathalloc error path: malformed input is reported once, never in the steady state
		return fmt.Errorf("detsum: %d trailing words after %d packed records", len(src)-pos, len(dst)/TransportLen)
	}
	return nil
}

// Sum is a convenience: the deterministic sum of a slice.
func Sum(vs []float64) float64 {
	var a Acc
	for _, v := range vs {
		a.Add(v)
	}
	return a.Round()
}
