package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// frame is one function activation in a sampled stack.
type frame struct {
	Func string // fully qualified, as the runtime names it
	File string
}

// stack is one CPU profile sample: frames leaf first, and the CPU time the
// sample stands for.
type stack struct {
	Frames []frame
	Nanos  int64
}

// readProfile decodes the CPU profile runtime/pprof wrote to path into its
// samples, inlined frames expanded. It understands just the parts of the
// profile.proto message the attribution needs (samples, locations, lines,
// functions, string table), so the benchmark stays standard-library only.
func readProfile(path string) ([]stack, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("reading profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile %s: %w", path, err)
	}
	stacks, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decoding profile %s: %w", path, err)
	}
	return stacks, nil
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbLine struct{ fn uint64 }

type pbFunc struct{ name, file int64 }

// decodeProfile parses an uncompressed profile.proto message.
func decodeProfile(raw []byte) ([]stack, error) {
	var (
		strs      []string
		types     [][2]int64 // sample_type: (type, unit) string indices
		samples   []pbSample
		locations = map[uint64][]pbLine{}
		funcs     = map[uint64]pbFunc{}
	)
	err := eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s pbSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var lines []pbLine
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					var l pbLine
					err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			locations[id] = lines
			return err
		case 5: // function
			var id uint64
			var fn pbFunc
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			funcs[id] = fn
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// The CPU profile carries (samples/count, cpu/nanoseconds); take the
	// nanoseconds column so a sample weighs what the profiler measured.
	col := -1
	for i, t := range types {
		if str(t[1]) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile has no nanoseconds sample type")
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if col >= len(s.values) {
			return nil, errors.New("sample shorter than its sample types")
		}
		st := stack{Nanos: s.values[col]}
		for _, id := range s.locs {
			// A location's lines run from the innermost inlined call out
			// to the function it was inlined into: leaf first, like the
			// sample's own location order.
			for _, l := range locations[id] {
				fn := funcs[l.fn]
				st.Frames = append(st.Frames, frame{Func: str(fn.name), File: str(fn.file)})
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message, handing varint
// fields to fn as v and length-delimited ones as b. profile.proto has no
// fixed-width fields, so any other wire type is an error.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding: one
// varint per field, or a packed run of varints.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
