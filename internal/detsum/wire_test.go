package detsum

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// transportOf returns the transport words of an accumulator fed vs.
func transportOf(vs ...float64) []float64 {
	var a Acc
	for _, v := range vs {
		a.Add(v)
	}
	return a.Transport(nil)
}

// roundTrip packs src, unpacks the result and returns the words.
func roundTrip(t *testing.T, src []float64) []float64 {
	t.Helper()
	wire := make([]float64, len(src)/TransportLen*PackedMaxLen)
	n := PackTransports(wire, src)
	got := make([]float64, len(src))
	if err := UnpackTransports(got, wire[:n]); err != nil {
		t.Fatalf("unpack of a packed transport failed: %v", err)
	}
	return got
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestWireRoundTrip(t *testing.T) {
	full := make([]float64, TransportLen)
	for b := 0; b < numBins; b++ {
		full[b] = float64(b%7) - 3 // zeros inside the window stay inside it
	}
	full[0], full[numBins-1] = 1, -2
	negZero := make([]float64, TransportLen)
	negZero[5] = math.Copysign(0, -1)
	cases := map[string][]float64{
		"empty":          transportOf(),
		"single bin":     transportOf(1),
		"subnormal":      transportOf(5e-324),
		"huge":           transportOf(1e300, -3e299),
		"full window":    full,
		"negative zero":  negZero,
		"spec +Inf":      transportOf(1, math.Inf(1)),
		"spec NaN":       transportOf(math.Inf(1), math.Inf(-1)),
		"spec NaN input": transportOf(2, math.NaN()),
	}
	var concat []float64
	for name, src := range cases {
		if got := roundTrip(t, src); !sameBits(got, src) {
			t.Errorf("%s: round trip changed the words:\n got %v\nwant %v", name, got, src)
		}
		concat = append(concat, src...)
	}
	if got := roundTrip(t, concat); !sameBits(got, concat) {
		t.Error("concatenated transports: round trip changed the words")
	}
}

func TestWireRecordSizes(t *testing.T) {
	wire := make([]float64, 2*PackedMaxLen)
	if n := PackTransports(wire, transportOf()); n != 3 {
		t.Errorf("empty accumulator packs to %d words, want 3", n)
	}
	if n := PackTransports(wire, transportOf(1)); n != 4 || wire[1] != 1 {
		t.Errorf("single-bin accumulator packs to %d words (cnt %g), want 4 (cnt 1)", n, wire[1])
	}
	full := make([]float64, TransportLen)
	full[0], full[numBins-1] = 1, 1
	if n := PackTransports(wire, full); n != PackedMaxLen {
		t.Errorf("full window packs to %d words, want %d", n, PackedMaxLen)
	}
}

// TestWireMalformed: malformed records fail with an error and never
// write past the destination.
func TestWireMalformed(t *testing.T) {
	cases := map[string]struct {
		src  []float64
		k    int
		want string
	}{
		"window past last bin": {[]float64{60, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0}, 1, "outside"},
		"negative lo":          {[]float64{-1, 1, 1, 0}, 1, "outside"},
		"fractional cnt":       {[]float64{0, 0.5, 1, 0}, 1, "outside"},
		"NaN lo":               {[]float64{math.NaN(), 0, 0}, 1, "outside"},
		"Inf cnt":              {[]float64{0, math.Inf(1), 0}, 1, "outside"},
		"truncated header":     {[]float64{0, 0}, 1, "truncated"},
		"truncated bins":       {[]float64{3, 4, 1, 2}, 1, "truncated"},
		"missing record":       {[]float64{0, 0, 0}, 2, "truncated"},
		"trailing words":       {[]float64{0, 0, 0, 7}, 1, "trailing"},
	}
	for name, tc := range cases {
		backing := make([]float64, tc.k*TransportLen+8)
		for i := range backing {
			backing[i] = -42
		}
		err := UnpackTransports(backing[:tc.k*TransportLen], tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
		for _, v := range backing[tc.k*TransportLen:] {
			if v != -42 {
				t.Fatalf("%s: unpack wrote past the destination", name)
			}
		}
	}
	if err := UnpackTransports(make([]float64, TransportLen+1), []float64{0, 0, 0}); err == nil {
		t.Error("destination of partial transports accepted")
	}
}

// TestWireAndRoundAllocationFree pins the zero-allocation contract of
// the reduction path: packing, unpacking and rounding a transport.
func TestWireAndRoundAllocationFree(t *testing.T) {
	src := append(transportOf(1.5, 1e-300), transportOf(3)...)
	wire := make([]float64, 2*PackedMaxLen)
	dst := make([]float64, len(src))
	allocs := testing.AllocsPerRun(100, func() {
		n := PackTransports(wire, src)
		if err := UnpackTransports(dst, wire[:n]); err != nil {
			panic(err)
		}
		_ = RoundTransport(dst[:TransportLen])
	})
	if allocs != 0 {
		t.Errorf("pack+unpack+round allocates %.1f times per run, want 0", allocs)
	}
}

// TestRoundCanonicalNaN: a NaN sum rounds to the same bits whatever the
// order of the non-finite inputs, so a reduction tree cannot show
// through a NaN payload.
func TestRoundCanonicalNaN(t *testing.T) {
	in := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8dead00000000)}
	want := math.Float64bits(Sum(in))
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(in))
		vs := make([]float64, len(in))
		for i, j := range perm {
			vs[i] = in[j]
		}
		if got := math.Float64bits(Sum(vs)); got != want {
			t.Fatalf("NaN sum bits %#x depend on order (want %#x)", got, want)
		}
	}
}

// wordsOf decodes little-endian float64 words from fuzz bytes.
func wordsOf(data []byte) []float64 {
	w := make([]float64, len(data)/8)
	for i := range w {
		w[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return w
}

// FuzzWireFormat reads the fuzz bytes as float64 words two ways. As
// transports (padded to whole ones) they must survive pack+unpack
// exactly. As packed input for k = data[0]%4 records, unpack must
// either fail with an error or succeed without writing out of range,
// and a successful unpack must re-pack to the same transports.
func FuzzWireFormat(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		words := wordsOf(data)
		src := make([]float64, (len(words)+TransportLen-1)/TransportLen*TransportLen)
		copy(src, words)
		if got := roundTrip(t, src); !sameBits(got, src) {
			t.Fatalf("round trip changed the words")
		}
		if len(data) == 0 {
			return
		}
		k := int(data[0] % 4)
		backing := make([]float64, k*TransportLen+4)
		for i := range backing {
			backing[i] = -7
		}
		dst := backing[:k*TransportLen]
		err := UnpackTransports(dst, wordsOf(data[1:]))
		for _, v := range backing[len(dst):] {
			if v != -7 {
				t.Fatal("unpack wrote past the destination")
			}
		}
		if err != nil {
			return
		}
		if got := roundTrip(t, dst); !sameBits(got, dst) {
			t.Fatal("re-pack of an accepted record changed the words")
		}
	})
}
