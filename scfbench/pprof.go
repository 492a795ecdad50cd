package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// Minimal reader for the gzipped profile.proto runtime/pprof writes:
// just enough to attribute each CPU sample to the function it was
// executing (the innermost, possibly inlined, frame of its leaf
// location). Field numbers follow github.com/google/pprof's
// proto/profile.proto.

type pbField struct {
	num  int
	wire int
	v    uint64 // varint or fixed value
	buf  []byte // length-delimited payload
}

func pbFields(b []byte, f func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("pprof: bad field key")
		}
		b = b[n:]
		fl := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch fl.wire {
		case 0:
			fl.v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("pprof: short fixed64")
			}
			fl.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("pprof: bad length")
			}
			fl.buf, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("pprof: short fixed32")
			}
			fl.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", fl.wire)
		}
		if err := f(fl); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated integer field, packed or not.
func pbUints(fl pbField) ([]uint64, error) {
	if fl.wire == 0 {
		return []uint64{fl.v}, nil
	}
	var out []uint64
	for b := fl.buf; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("pprof: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// cpuSelfByFunc returns CPU samples per function name, each sample
// charged to the innermost frame of its leaf location.
func cpuSelfByFunc(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var samples []sample
	leafFunc := map[uint64]uint64{} // location id -> innermost function id
	funcName := map[uint64]int64{}  // function id -> string index
	var strs []string
	err = pbFields(raw, func(fl pbField) error {
		switch fl.num {
		case 2: // Sample
			var locs, vals []uint64
			err := pbFields(fl.buf, func(f pbField) error {
				vs, err := pbUints(f)
				switch f.num {
				case 1: // location_id, leaf first
					locs = append(locs, vs...)
				case 2: // value: [samples, cpu ns]
					vals = append(vals, vs...)
				}
				return err
			})
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], count: int64(vals[0])})
			}
			return err
		case 4: // Location
			var id, fn uint64
			seen := false
			err := pbFields(fl.buf, func(f pbField) error {
				switch f.num {
				case 1:
					id = f.v
				case 4: // Line; the first is the innermost inlined frame
					if seen {
						return nil
					}
					seen = true
					return pbFields(f.buf, func(l pbField) error {
						if l.num == 1 {
							fn = l.v
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(fl.buf, func(f pbField) error {
				switch f.num {
				case 1:
					id = f.v
				case 2:
					name = int64(f.v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(fl.buf))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if fn, ok := leafFunc[s.leaf]; ok {
			if i, ok := funcName[fn]; ok && i >= 0 && int(i) < len(strs) {
				name = strs[i]
			}
		}
		out[name] += s.count
	}
	return out, nil
}

// cpuPackages are the repository layers a CPU profile is split into,
// plus the Go runtime (allocation and GC).
var cpuPackages = []string{"detsum", "stencil", "grid", "gpaw", "linalg", "pblas", "mpi", "core", "runtime"}

// packageShares returns each cpuPackages entry's share of all samples.
func packageShares(byFunc map[string]int64) map[string]float64 {
	var total int64
	per := map[string]int64{}
	for name, n := range byFunc {
		total += n
		per[funcPackage(name)] += n
	}
	out := map[string]float64{}
	for _, p := range cpuPackages {
		if total > 0 {
			out[p] = float64(per[p]) / float64(total)
		} else {
			out[p] = 0
		}
	}
	return out
}

// funcPackage maps "repro/internal/detsum.(*Acc).Add" to "detsum" and
// "runtime.mallocgc" to "runtime"; other packages map to their last
// path element.
func funcPackage(name string) string {
	pkg := name
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	if i := strings.Index(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg
}
