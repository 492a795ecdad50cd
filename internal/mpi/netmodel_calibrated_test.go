package mpi_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/detsum"
	"repro/internal/mpi"
	"repro/internal/pblas"
	"repro/internal/trace"
)

// These tests need the calibrated Blue Gene/P constants and pblas's
// merge, both from packages layered above mpi, so they live in the
// external test package.

// accAllreduceCost runs one single-accumulator exact allreduce on 8
// ranks under the calibrated model with NoComputeWall and returns its
// modeled makespan and message count. packed selects
// AllreduceTransports; otherwise the full transport goes through
// AllreduceFunc with detsum.MergeTransport.
func accAllreduceCost(t *testing.T, packed bool) (time.Duration, int) {
	t.Helper()
	const p = 8
	m := bgpsim.NetModelFor(p)
	m.NoComputeWall = true
	w := mpi.NewWorld(p, mpi.ThreadSingle)
	w.SetNetModel(m)
	tr := trace.New(p, 64)
	w.SetTracer(tr)
	err := w.Run(func(c *mpi.Comm) {
		var a detsum.Acc
		a.Add(float64(c.Rank()) + 0.125)
		in := a.Transport(nil)
		out := make([]float64, len(in))
		if packed {
			c.AllreduceTransports(in, out)
		} else {
			c.AllreduceFunc(in, out, detsum.MergeTransport)
		}
		if got, want := detsum.RoundTransport(out), float64(p*(p-1))/2+0.125*p; got != want {
			panic(fmt.Sprintf("allreduce = %g, want %g", got, want))
		}
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
	return w.MaxVirtualTime(), sends
}

// TestModeledAccAllreduceCost pins the log-p exact allreduce under the
// calibrated parameters at 8 ranks: p·log2 p = 24 messages and at most
// 14 virtual µs, deterministic run to run. The former linear reduce to
// rank 0 plus broadcast cost 18.7 µs.
func TestModeledAccAllreduceCost(t *testing.T) {
	for _, packed := range []bool{true, false} {
		cost, sends := accAllreduceCost(t, packed)
		again, _ := accAllreduceCost(t, packed)
		t.Logf("packed=%v: %v modeled, %d messages", packed, cost, sends)
		if cost != again {
			t.Errorf("packed=%v: modeled cost %v then %v, want deterministic", packed, cost, again)
		}
		if cost > 14*time.Microsecond {
			t.Errorf("packed=%v: modeled cost %v, want <= 14µs", packed, cost)
		}
		if sends != 24 {
			t.Errorf("packed=%v: %d messages, want p·log2 p = 24", packed, sends)
		}
	}
}

// TestAllreducePblasMergeMaskedMatchesLinear: pblas.MergeMasked with
// disjoint owners reduces to the linear fold's bits at every size.
func TestAllreducePblasMergeMaskedMatchesLinear(t *testing.T) {
	const slots = 17
	for p := 1; p <= 9; p++ {
		vs := make([][]float64, p)
		for r := range vs {
			vs[r] = make([]float64, 2*slots)
		}
		for i := 0; i < slots; i++ {
			owner := (i * 7) % p
			vs[owner][i] = math.Sqrt(float64(i+1)) * math.Pow(-1, float64(i))
			vs[owner][slots+i] = 1
		}
		linear := append([]float64(nil), vs[0]...)
		for r := 1; r < p; r++ {
			pblas.MergeMasked(linear, vs[r])
		}
		err := mpi.Run(p, mpi.ThreadSingle, func(c *mpi.Comm) {
			time.Sleep(time.Duration((c.Rank()*37)%5) * 100 * time.Microsecond)
			out := make([]float64, 2*slots)
			c.AllreduceFunc(vs[c.Rank()], out, pblas.MergeMasked)
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
