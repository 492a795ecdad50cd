package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/detsum"
	"repro/internal/trace"
)

// Property tests of the recursive-doubling allreduce at every size from
// 1 to 9 ranks — powers of two and the folded sizes 3, 5, 6 and 7 alike.
// Ranks sleep random amounts before the collective so message arrivals
// are scrambled; the results must not depend on them.

const maxTreeRanks = 9

// scramble sleeps a random sub-millisecond amount derived from the seed
// and the rank.
func scramble(seed int64, rank int) {
	rng := rand.New(rand.NewSource(seed*131 + int64(rank)))
	time.Sleep(time.Duration(rng.Intn(700)) * time.Microsecond)
}

// treeFold is an independent statement of the documented merge tree:
// fold ranks 2i and 2i+1 for i < rem into one block, then merge the
// pof2 ascending blocks pairwise as a balanced tree, the lower block
// always the accumulator.
func treeFold(vs [][]float64, merge func(acc, contrib []float64)) []float64 {
	p := len(vs)
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	blocks := make([][]float64, 0, pof2)
	for r := 0; r < p; r++ {
		v := append([]float64(nil), vs[r]...)
		if r < 2*rem && r%2 == 1 {
			merge(blocks[len(blocks)-1], v)
			continue
		}
		blocks = append(blocks, v)
	}
	for w := 1; w < pof2; w *= 2 {
		for i := 0; i+w < pof2; i += 2 * w {
			merge(blocks[i], blocks[i+w])
		}
	}
	return blocks[0]
}

// digits is a non-commutative, non-associative merge (decimal shift and
// add): any change of tree shape or operand order changes the result.
func digits(acc, contrib []float64) {
	acc[0] = acc[0]*10 + contrib[0]
	acc[1] = acc[1]*3 - contrib[1]
}

// TestAllreduceFixedTree: every rank receives bits identical to the
// documented ascending-block tree, whatever the arrival order.
func TestAllreduceFixedTree(t *testing.T) {
	for p := 1; p <= maxTreeRanks; p++ {
		vs := make([][]float64, p)
		for r := range vs {
			vs[r] = []float64{float64(r + 1), float64(2*r + 1)}
		}
		want := treeFold(vs, digits)
		for trial := int64(0); trial < 3; trial++ {
			got := make([][]float64, p)
			err := Run(p, ThreadSingle, func(c *Comm) {
				scramble(trial, c.Rank())
				out := make([]float64, 2)
				c.AllreduceFunc(vs[c.Rank()], out, digits)
				got[c.Rank()] = out
			})
			if err != nil {
				t.Fatalf("p=%d trial %d: %v", p, trial, err)
			}
			for r, out := range got {
				if math.Float64bits(out[0]) != math.Float64bits(want[0]) ||
					math.Float64bits(out[1]) != math.Float64bits(want[1]) {
					t.Fatalf("p=%d trial %d rank %d: got %v, want the fixed tree's %v", p, trial, r, out, want)
				}
			}
		}
	}
}

// randomTerm draws a value from subnormals to 1e300, occasionally
// non-finite when special is set.
func randomTerm(rng *rand.Rand, special bool) float64 {
	if special && rng.Intn(16) == 0 {
		return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
	}
	switch rng.Intn(4) {
	case 0:
		return math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal
	case 1:
		return (rng.Float64() - 0.5) * 1e300
	default:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(600)-300))
	}
}

// TestAllreduceTransportsMatchSerialSum: an exact accumulator reduce —
// packed (AllreduceTransports) and unpacked (AllreduceFunc with
// MergeTransport) — rounds to the bits of the serial detsum.Sum of
// every rank's terms, on every rank.
func TestAllreduceTransportsMatchSerialSum(t *testing.T) {
	const accs, terms = 3, 40
	for p := 1; p <= maxTreeRanks; p++ {
		for trial := int64(0); trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(p)*97 + trial))
			special := trial == 2
			vals := make([][][]float64, p) // rank -> accumulator -> terms
			want := make([]float64, accs)
			for a := 0; a < accs; a++ {
				var all []float64
				for r := 0; r < p; r++ {
					if a == 0 {
						vals[r] = make([][]float64, accs)
					}
					for i := 0; i < terms; i++ {
						vals[r][a] = append(vals[r][a], randomTerm(rng, special))
					}
					all = append(all, vals[r][a]...)
				}
				want[a] = detsum.Sum(all)
			}
			err := Run(p, ThreadSingle, func(c *Comm) {
				var in []float64
				for _, vs := range vals[c.Rank()] {
					var a detsum.Acc
					for _, v := range vs {
						a.Add(v)
					}
					in = a.Transport(in)
				}
				scramble(trial, c.Rank())
				packed := make([]float64, len(in))
				c.AllreduceTransports(in, packed)
				plain := make([]float64, len(in))
				c.AllreduceFunc(in, plain, detsum.MergeTransport)
				for a := 0; a < accs; a++ {
					w := detsum.TransportLen
					for name, out := range map[string][]float64{"packed": packed, "unpacked": plain} {
						got := detsum.RoundTransport(out[a*w : (a+1)*w])
						if math.Float64bits(got) != math.Float64bits(want[a]) {
							panic(fmt.Sprintf("%s acc %d rank %d: %g (%#x), serial Sum %g (%#x)",
								name, a, c.Rank(), got, math.Float64bits(got), want[a], math.Float64bits(want[a])))
						}
					}
				}
			})
			if err != nil {
				t.Fatalf("p=%d trial %d: %v", p, trial, err)
			}
		}
	}
}

// maskedMerge copies the contribution's owned slots — the shape of
// pblas.MergeMasked (pblas sits above mpi, so its own merge is checked
// in netmodel_calibrated_test.go).
func maskedMerge(acc, contrib []float64) {
	half := len(acc) / 2
	for i := 0; i < half; i++ {
		if contrib[half+i] != 0 {
			acc[i] = contrib[i]
			acc[half+i] = 1
		}
	}
}

// treeMessages is the number of messages the tree sends at size p: a
// fold and an unfold message per folded pair, one per survivor per
// doubling round.
func treeMessages(p int) int {
	pof2, rounds := 1, 0
	for pof2*2 <= p {
		pof2 *= 2
		rounds++
	}
	return 2*(p-pof2) + pof2*rounds
}

// TestAllreduceMessageCount: the tree sends exactly treeMessages(p)
// messages — none at all on one rank — and p·log2 p at powers of two.
func TestAllreduceMessageCount(t *testing.T) {
	for p := 1; p <= maxTreeRanks; p++ {
		tr := trace.New(p, 256)
		w := NewWorld(p, ThreadSingle)
		w.SetTracer(tr)
		err := w.Run(func(c *Comm) {
			var a detsum.Acc
			a.Add(float64(c.Rank()))
			in := a.Transport(nil)
			c.AllreduceTransports(in, make([]float64, len(in)))
		})
		if err != nil {
			t.Fatal(err)
		}
		sends := 0
		for _, e := range tr.Events() {
			if e.Kind == trace.KindSend {
				sends++
			}
		}
		if want := treeMessages(p); sends != want {
			t.Errorf("p=%d: %d messages, want %d", p, sends, want)
		}
	}
	if treeMessages(1) != 0 || treeMessages(8) != 24 {
		t.Fatal("treeMessages disagrees with p·log2 p")
	}
}

// TestAllreduceMaskedMatchesLinear: an ownership-masked merge with
// disjoint owners reduces to the linear fold's bits on every rank.
func TestAllreduceMaskedMatchesLinear(t *testing.T) {
	const slots = 23
	for p := 1; p <= maxTreeRanks; p++ {
		rng := rand.New(rand.NewSource(int64(p)))
		vs := make([][]float64, p)
		for r := range vs {
			vs[r] = make([]float64, 2*slots)
		}
		for i := 0; i < slots; i++ {
			owner := rng.Intn(p)
			vs[owner][i] = randomTerm(rng, true)
			vs[owner][slots+i] = 1
		}
		linear := append([]float64(nil), vs[0]...)
		for r := 1; r < p; r++ {
			maskedMerge(linear, vs[r])
		}
		err := Run(p, ThreadSingle, func(c *Comm) {
			scramble(int64(p), c.Rank())
			out := make([]float64, 2*slots)
			c.AllreduceFunc(vs[c.Rank()], out, maskedMerge)
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(linear[i]) {
					panic(fmt.Sprintf("rank %d slot %d: %g, linear fold %g", c.Rank(), i, out[i], linear[i]))
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestAllreduceFuncAllRanksAgree: every rank receives the identical
// merged vector.
func TestAllreduceFuncAllRanksAgree(t *testing.T) {
	const p = 5
	err := Run(p, ThreadSingle, func(c *Comm) {
		in := []float64{float64(c.Rank()), float64(c.Rank() * c.Rank())}
		out := make([]float64, 2)
		c.AllreduceFunc(in, out, func(acc, contrib []float64) {
			for i := range acc {
				acc[i] += contrib[i]
			}
		})
		if out[0] != 0+1+2+3+4 || out[1] != 0+1+4+9+16 {
			panic("AllreduceFunc sum wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
