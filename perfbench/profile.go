package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU and mutex profiles are read straight from the pprof protocol
// buffer the runtime writes, so bucketing needs neither a subprocess nor a
// package outside the standard library. Only the fields the bucketing reads
// are decoded: sample types, samples, locations, functions and strings.

// profile is the decoded subset of a pprof Profile message.
type profile struct {
	// sampleTypes names each value column as "type/unit".
	sampleTypes []string
	samples     []profSample
	// locFuncs maps a location ID to its function IDs, innermost inlined
	// frame first, as the Line entries are ordered.
	locFuncs  map[uint64][]uint64
	funcNames map[uint64]int64
	strs      []string
}

type profSample struct {
	locs []uint64 // leaf first
	vals []int64
}

var errTruncated = errors.New("profile: truncated message")

// protoField is one decoded field of a protocol-buffer message.
type protoField struct {
	num  int
	wire int
	v    uint64 // varint and fixed-width payloads
	b    []byte // length-delimited payloads
}

// protoFields decodes a message into its top-level fields.
func protoFields(buf []byte) ([]protoField, error) {
	var out []protoField
	for len(buf) > 0 {
		tag, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, errTruncated
		}
		buf = buf[n:]
		f := protoField{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(buf)
			if n <= 0 {
				return nil, errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return nil, errTruncated
			}
			f.v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return nil, errTruncated
			}
			f.b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return nil, errTruncated
			}
			f.v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, whether it was written
// packed (one length-delimited run) or as one varint per element.
func (f protoField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzip-compressed pprof profile.
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	buf, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	fields, err := protoFields(buf)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	var typeIdx [][2]int64
	for _, f := range fields {
		sub, err := protoFields(f.b)
		if f.wire != 2 || err != nil {
			continue
		}
		switch f.num {
		case 1: // sample_type
			var t [2]int64
			for _, s := range sub {
				if s.num == 1 || s.num == 2 {
					t[s.num-1] = int64(s.v)
				}
			}
			typeIdx = append(typeIdx, t)
		case 2: // sample
			var s profSample
			for _, sf := range sub {
				vs, err := sf.varints()
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.vals = append(s.vals, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			for _, lf := range sub {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // line
					line, err := protoFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							funcs = append(funcs, l.v)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			for _, ff := range sub {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = int64(ff.v)
				}
			}
			p.funcNames[id] = name
		}
	}
	for _, f := range fields {
		if f.num == 6 { // string_table
			p.strs = append(p.strs, string(f.b))
		}
	}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, p.str(t[0])+"/"+p.str(t[1]))
	}
	return p, nil
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// column returns the index of the value column named typ ("cpu/nanoseconds",
// "delay/nanoseconds").
func (p *profile) column(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: no %q column in %v", typ, p.sampleTypes)
}

// frames returns a sample's function names, leaf first, inlined frames
// expanded.
func (p *profile) frames(s profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fid := range p.locFuncs[loc] {
			out = append(out, p.str(p.funcNames[fid]))
		}
	}
	return out
}

// moduleOf buckets a function name into the repository module that defines
// it: "simtime" for repro/internal/simtime.(*Queue[...]).down, "runtime" for
// the Go runtime (and the race detector's runtime, when built with -race),
// and "other" for everything else (the standard library, the benchmark
// itself, and modules outside the timed paths).
func moduleOf(fn string) string {
	const internal = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	for _, pre := range []string{"runtime.", "runtime/", "internal/runtime/", "racecall", "__tsan", "_ZN6__tsan"} {
		if strings.HasPrefix(fn, pre) {
			return "runtime"
		}
	}
	return "other"
}

// flatShares returns each module's share of the profile's flat weight in
// column col: every sample is charged to the module of its leaf frame. The
// shares sum to 1 when the profile holds any weight.
func (p *profile) flatShares(col int) map[string]float64 {
	weight := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if col >= len(s.vals) || s.vals[col] <= 0 {
			continue
		}
		leaf := "other"
		if fr := p.frames(s); len(fr) > 0 {
			leaf = moduleOf(fr[0])
		}
		weight[leaf] += s.vals[col]
		total += s.vals[col]
	}
	out := make(map[string]float64, len(weight))
	for m, w := range weight {
		out[m] = float64(w) / float64(total)
	}
	return out
}

// weightIn sums column col over the samples whose stack holds a frame of
// module mod — the mutex-profile delay charged to a module's locks.
func (p *profile) weightIn(col int, mod string) int64 {
	var total int64
	for _, s := range p.samples {
		if col >= len(s.vals) {
			continue
		}
		for _, fn := range p.frames(s) {
			if moduleOf(fn) == mod {
				total += s.vals[col]
				break
			}
		}
	}
	return total
}
