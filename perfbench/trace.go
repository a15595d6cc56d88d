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
	"strings"
	"sync"
	"time"
)

// tracer records spans around the public calls the benchmark makes into
// each layer. Spans stay in memory and are written as one Chrome trace
// (chrome://tracing, Perfetto) when the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []spanRec
	next  int64
}

type spanRec struct {
	id, parent int64
	name       string
	req        int64 // shared request ID (serve-fleet), -1 when none
	start, end time.Duration
	tid        int64
}

// span is an open span; end closes it. The zero span (from a nil tracer)
// is inert.
type span struct {
	t   *tracer
	id  int64
	rec spanRec
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span named after the call it wraps. parent is the causing
// span's id (0 for a root); req groups the spans of one request (-1 none);
// tid picks the Chrome-trace row (one per sender goroutine).
func (t *tracer) begin(name string, parent, req, tid int64) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return span{t: t, id: id, rec: spanRec{id: id, parent: parent, name: name, req: req, tid: tid,
		start: time.Since(t.origin)}}
}

func (s span) end() {
	if s.t == nil {
		return
	}
	s.rec.end = time.Since(s.t.origin)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// write emits the spans as a Chrome trace-event JSON file.
func (t *tracer) write(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]int64{"id": s.id, "parent": s.parent}
		if s.req >= 0 {
			args["req"] = s.req
		}
		evs = append(evs, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid, Args: args,
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]interface{}{"traceEvents": evs}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// cpuShares charges every sample of a runtime/pprof CPU profile to the
// innermost quanterference/internal/<pkg> frame on its stack — the layer's
// self time, including the standard-library code it calls — and returns
// each layer's share of all samples, keyed by the cpuLayers names.
func cpuShares(profile []byte) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(cpuLayers))
	for _, l := range cpuLayers {
		known[l] = true
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		layer := classifyStack(p, s.locs, known)
		counts[layer] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = ratio(float64(counts[l]), float64(total))
	}
	return shares, nil
}

const repoPrefix = "quanterference/internal/"

// classifyStack picks the layer a stack (leaf first) is charged to.
func classifyStack(p *profile, locs []uint64, known map[string]bool) string {
	bench, http := false, false
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			name := p.funcNames[fn]
			if strings.HasPrefix(name, repoPrefix) {
				pkg := name[len(repoPrefix):]
				if i := strings.IndexAny(pkg, "/."); i >= 0 {
					pkg = pkg[:i]
				}
				if known[pkg] {
					return pkg
				}
				return "other"
			}
			switch {
			case strings.HasPrefix(name, "main."):
				bench = true
			case strings.HasPrefix(name, "net/http.") || strings.HasPrefix(name, "net."):
				http = true
			}
		}
	}
	switch {
	case bench:
		return "bench"
	case http:
		return "net_http"
	}
	return "gc"
}

// profile is the slice of profile.proto cpuShares reads.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes a gzipped profile.proto message (the format
// runtime/pprof writes) with a minimal protobuf reader: the standard
// library has no decoder for it.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]string)}
	var strs []string
	funcNameIdx := make(map[uint64]uint64)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var vals []uint64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					vals = appendVarints(vals, w, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx < uint64(len(strs)) {
			p.funcNames[id] = strs[idx]
		}
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type and payload: v for varints and fixed ints, b for
// length-delimited bytes.
func eachField(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
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
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field in either encoding: one
// varint (wire 0) or a packed run (wire 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
