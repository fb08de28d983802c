package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a CPU profile charged to the program's modules.
type cpuProfile struct {
	samples int64
	// byModule counts samples per internal module; the key "" holds the
	// samples with no internal frame on their stack.
	byModule map[string]int64
}

// frac returns a module's share of the samples.
func (p cpuProfile) frac(module string) float64 {
	if p.samples == 0 {
		return 0
	}
	return float64(p.byModule[module]) / float64(p.samples)
}

// profileCPU runs f under the CPU profiler and charges the samples.
func profileCPU(f func()) (cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return cpuProfile{}, fmt.Errorf("start cpu profile: %w", err)
	}
	f()
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		return cpuProfile{}, err
	}
	return attribute(stacks), nil
}

// stackSample is one distinct stack of a profile and its sample count.
type stackSample struct {
	frames []string // function names, innermost first
	count  int64
}

const modulePrefix = "clusterbooster/internal/"

// moduleOf names the internal module a function belongs to, or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute charges each sample to the innermost internal module frame on
// its stack, so runtime work a module triggers (allocation, GC assists,
// channel handoffs) counts as that module's.
func attribute(stacks []stackSample) cpuProfile {
	p := cpuProfile{byModule: map[string]int64{}}
	for _, s := range stacks {
		p.samples += s.count
		mod := ""
		for _, f := range s.frames {
			if mod = moduleOf(f); mod != "" {
				break
			}
		}
		p.byModule[mod] += s.count
	}
	return p
}

var errProto = errors.New("parse cpu profile: malformed protobuf")

// parseProfile decodes the stacks of a (gzipped) pprof profile: just the
// fields attribution needs, so the benchmark needs no profile library.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("parse cpu profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("parse cpu profile: %w", err)
		}
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		strs    []string
		samples []rawSample
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err := protoFields(data, func(num, typ int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var values []uint64 // the first is the sample count
			err := protoFields(b, func(num, typ int, v uint64, b []byte) error {
				if num != 1 && num != 2 {
					return nil
				}
				vals, err := varints(typ, v, b)
				if num == 1 {
					s.locs = append(s.locs, vals...)
				} else {
					values = append(values, vals...)
				}
				return err
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(num, typ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(num, typ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(b, func(num, typ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// protoFields calls fn for every field of a protobuf message: v carries a
// varint or fixed-width value, b the bytes of a length-delimited field.
func protoFields(msg []byte, fn func(num, typ int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch typ {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProto
		}
		if err := fn(num, typ, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints returns the values of one occurrence of a repeated integer field,
// packed or not.
func varints(typ int, v uint64, b []byte) ([]uint64, error) {
	if typ != 2 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
