package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// The traced run's two instruments: spans the benchmark records around
// its own calls into each layer, and a CPU profile whose samples are
// charged to the repository's internal packages.

// span is one timed call from the benchmark into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// spanLog keeps a traced unit's spans in memory. A nil *spanLog records
// nothing, so untraced code paths call it unconditionally.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent (0: none) and returns its ID.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: ms(now), End: -1})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	l.spans[id-1].End = ms(now)
	l.mu.Unlock()
}

// durations returns the closed spans' durations in ms, keyed by name.
func (l *spanLog) durations() map[string][]float64 {
	out := map[string][]float64{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], s.End-s.Start)
		}
	}
	return out
}

// write saves the spans as JSON under .bench_build/traces.
func (l *spanLog) write(root, workload string, seed uint64) error {
	l.mu.Lock()
	b, err := json.MarshalIndent(l.spans, "", " ")
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return saveArtifact(root, fmt.Sprintf("%s-seed%d.spans.json", workload, seed), b)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func saveArtifact(root, name string, b []byte) error {
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// profile is a decoded CPU profile: one stack of function names (leaf
// first) and CPU nanoseconds per sample.
type profile struct {
	raw     []byte
	total   int64
	samples []stackSample
}

type stackSample struct {
	ns     int64
	frames []string
}

// internalPrefix marks the repository's own packages in function names.
const internalPrefix = "repro/internal/"

// layerOf returns the internal package a sample is charged to: the
// leaf-most repro/internal/<pkg> frame, so time in the runtime and the
// standard library goes to the layer that called it.
func (s stackSample) layerOf() string {
	for _, f := range s.frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return rest[:i]
			}
		}
	}
	return ""
}

// layerNS is the profiled CPU time, in ns, charged to layer.
func (p *profile) layerNS(layer string) float64 {
	var ns int64
	for _, s := range p.samples {
		if s.layerOf() == layer {
			ns += s.ns
		}
	}
	return float64(ns)
}

// share is the fraction of profiled CPU time charged to layer.
func (p *profile) share(layer string) float64 {
	if p.total == 0 {
		return 0
	}
	return p.layerNS(layer) / float64(p.total)
}

// leafShare is the fraction of profiled CPU time whose leaf frame is one
// of fns.
func (p *profile) leafShare(fns ...string) float64 {
	if p.total == 0 {
		return 0
	}
	var ns int64
	for _, s := range p.samples {
		if len(s.frames) > 0 && contains(fns, s.frames[0]) {
			ns += s.ns
		}
	}
	return float64(ns) / float64(p.total)
}

// inclusiveMS is the CPU time, in ms, of samples with a frame that starts
// with one of prefixes anywhere on the stack.
func (p *profile) inclusiveMS(prefixes ...string) float64 {
	var ns int64
	for _, s := range p.samples {
	frames:
		for _, f := range s.frames {
			for _, pre := range prefixes {
				if strings.HasPrefix(f, pre) {
					ns += s.ns
					break frames
				}
			}
		}
	}
	return float64(ns) / 1e6
}

func (p *profile) save(root, workload string, seed uint64) error {
	return saveArtifact(root, fmt.Sprintf("%s-seed%d.pprof", workload, seed), p.raw)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// parseProfile decodes the subset of the pprof profile.proto format the
// layer attribution needs: samples, locations (with inlined frames) and
// function names.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		samples  []rawSample
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return protoVarints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return protoVarints(v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{raw: gz}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{ns: s.vals[len(s.vals)-1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					ss.frames = append(ss.frames, strs[i])
				}
			}
		}
		p.total += ss.ns
		p.samples = append(p.samples, ss)
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for each field of a protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited ones.
func protoFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// protoVarints handles a repeated varint field in either encoding: one
// value (v) or a packed run (b).
func protoVarints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		add(x)
		b = b[n:]
	}
	return nil
}
