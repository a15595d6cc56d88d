// Package trace persists client-side operation traces in a compact,
// line-oriented format modelled on Darshan DXT logs: one record per
// completed I/O operation with rank, op type, offsets, timestamps, and the
// storage targets it touched. The paper's labelling pipeline matches
// operations "between large trace logs" offline; this package is that
// interchange format, letting cmd/simrun dump traces and the labeller
// consume them later.
//
// Format (tab-separated, one record per line, '#' comment header):
//
//	workload  rank  iter  seq  kind  path  offset  size  start_ns  end_ns  targets(comma)
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

// Header is written at the top of every trace file.
const Header = "# quanterference DXT-style trace v1"

// ErrMalformed reports a trace line that is not a valid record: a line
// over 1 MiB, the wrong field count, an unknown op kind, a field that is
// not an integer, a negative rank, iter, seq, offset, size, start or
// target, or an end before its start. Read wraps it with the line number;
// match with errors.Is.
var ErrMalformed = errors.New("malformed trace record")

// Writer streams records to an io.Writer.
type Writer struct {
	w   *bufio.Writer
	n   int
	err error
}

// NewWriter writes the header and returns a streaming writer.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	_, err := fmt.Fprintln(bw, Header)
	return &Writer{w: bw, err: err}
}

// Write appends one record.
func (t *Writer) Write(rec workload.Record) {
	if t.err != nil {
		return
	}
	targets := make([]string, len(rec.Targets))
	for i, tg := range rec.Targets {
		targets[i] = strconv.Itoa(tg)
	}
	targetField := strings.Join(targets, ",")
	if targetField == "" {
		targetField = "-" // keep the line exactly 11 fields
	}
	_, t.err = fmt.Fprintf(t.w, "%s\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
		sanitize(rec.Workload), rec.Rank, rec.Iter, rec.Seq,
		rec.Op.Kind, sanitize(rec.Op.Path), rec.Op.Offset, rec.Op.Size,
		rec.Start, rec.End, targetField)
	if t.err == nil {
		t.n++
	}
}

// Count returns the number of records written so far.
func (t *Writer) Count() int { return t.n }

// Flush drains buffers and reports any accumulated error.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// sanitize keeps the format line-oriented and tab-separated.
func sanitize(s string) string {
	if s == "" {
		return "-"
	}
	s = strings.ReplaceAll(s, "\t", "_")
	return strings.ReplaceAll(s, "\n", "_")
}

func unsanitize(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

// maxLine bounds one trace line in bytes.
const maxLine = 1 << 20

// Read parses an entire trace stream. A malformed record, or a line longer
// than 1 MiB, fails the whole read with an error wrapping ErrMalformed.
func Read(r io.Reader) ([]workload.Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxLine)
	var out []workload.Record
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		rec, err := parseLine(text)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("trace: line %d: %w: longer than %d bytes", line+1, ErrMalformed, maxLine)
		}
		return nil, err
	}
	return out, nil
}

// intFields are the integer columns, in record order.
var intFields = [...]struct {
	idx  int
	name string
}{{1, "rank"}, {2, "iter"}, {3, "seq"}, {6, "offset"}, {7, "size"}, {8, "start"}, {9, "end"}}

func parseLine(text string) (workload.Record, error) {
	var rec workload.Record
	fields := strings.Split(text, "\t")
	if len(fields) != 11 {
		return rec, fmt.Errorf("%w: want 11 fields, got %d", ErrMalformed, len(fields))
	}
	kind, err := parseKind(fields[4])
	if err != nil {
		return rec, err
	}
	var ints [len(intFields)]int64
	for i, f := range intFields {
		v, err := strconv.ParseInt(fields[f.idx], 10, 64)
		if err != nil {
			return rec, fmt.Errorf("%w: %s: %w", ErrMalformed, f.name, err)
		}
		if v < 0 {
			return rec, fmt.Errorf("%w: negative %s %d", ErrMalformed, f.name, v)
		}
		ints[i] = v
	}
	rec = workload.Record{
		Workload: unsanitize(fields[0]),
		Rank:     int(ints[0]),
		Iter:     int(ints[1]),
		Seq:      int(ints[2]),
		Op: workload.Op{
			Kind:   kind,
			Path:   unsanitize(fields[5]),
			Offset: ints[3],
			Size:   ints[4],
		},
		Start: sim.Time(ints[5]),
		End:   sim.Time(ints[6]),
	}
	if rec.End < rec.Start {
		return rec, fmt.Errorf("%w: end %d before start %d", ErrMalformed, rec.End, rec.Start)
	}
	if fields[10] != "" && fields[10] != "-" {
		for _, t := range strings.Split(fields[10], ",") {
			v, err := strconv.Atoi(t)
			if err != nil {
				return rec, fmt.Errorf("%w: target %q: %w", ErrMalformed, t, err)
			}
			if v < 0 {
				return rec, fmt.Errorf("%w: negative target %d", ErrMalformed, v)
			}
			rec.Targets = append(rec.Targets, v)
		}
	}
	return rec, nil
}

func parseKind(s string) (workload.Kind, error) {
	for k := workload.Read; k <= workload.Compute; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown op kind %q", ErrMalformed, s)
}
