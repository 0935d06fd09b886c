// Package trace records and replays page-reference traces. A trace is the
// VM-visible behaviour of an application — the sequence of (segment, page,
// access) references — captured once and replayed against different
// managers, policies or machine configurations. This is the methodological
// backbone for comparing replacement policies and manager specializations
// on identical workloads, and a practical tool for downstream users who
// want to evaluate their own policies against real application behaviour.
//
// The on-disk format is a line-oriented text format:
//
//	# comment
//	r <segment> <page>
//	w <segment> <page>
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"epcm/internal/kernel"
)

// Ref is one recorded memory reference.
type Ref struct {
	// Segment names the referenced segment (traces are portable across
	// machines, so they use names, not IDs).
	Segment string
	// Page is the page number within the segment.
	Page int64
	// Write distinguishes store references from loads.
	Write bool
}

// Trace is an ordered reference string.
type Trace struct {
	Refs []Ref
}

// Append records one reference.
func (t *Trace) Append(segment string, page int64, write bool) {
	t.Refs = append(t.Refs, Ref{Segment: segment, Page: page, Write: write})
}

// Segments lists the distinct segment names in first-appearance order.
func (t *Trace) Segments() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range t.Refs {
		if !seen[r.Segment] {
			seen[r.Segment] = true
			out = append(out, r.Segment)
		}
	}
	return out
}

// Encode writes the trace in the text format.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.Refs {
		op := "r"
		if r.Write {
			op = "w"
		}
		if _, err := fmt.Fprintf(bw, "%s %s %d\n", op, r.Segment, r.Page); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode parses a trace from the text format. Blank lines and lines
// starting with '#' are ignored.
func Decode(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 'r|w segment page', got %q", lineNo, line)
		}
		var write bool
		switch fields[0] {
		case "r":
		case "w":
			write = true
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", lineNo, fields[0])
		}
		page, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || page < 0 {
			return nil, fmt.Errorf("trace: line %d: bad page %q", lineNo, fields[2])
		}
		t.Append(fields[1], page, write)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReplayResult reports what a replay did.
type ReplayResult struct {
	Refs   int
	Faults int64
}

// Replay runs a trace against a kernel, creating one managed segment per
// trace segment via mkSeg and issuing every reference in order. It returns
// the kernel-level activity delta.
func Replay(k *kernel.Kernel, t *Trace, mkSeg func(name string) (*kernel.Segment, error)) (ReplayResult, error) {
	segs := make(map[string]*kernel.Segment)
	before := k.Stats()
	for i, ref := range t.Refs {
		seg, ok := segs[ref.Segment]
		if !ok {
			var err error
			seg, err = mkSeg(ref.Segment)
			if err != nil {
				return ReplayResult{}, fmt.Errorf("trace: replay segment %q: %w", ref.Segment, err)
			}
			segs[ref.Segment] = seg
		}
		acc := kernel.Read
		if ref.Write {
			acc = kernel.Write
		}
		if err := k.Access(seg, ref.Page, acc); err != nil {
			return ReplayResult{}, fmt.Errorf("trace: replay ref %d (%s page %d): %w", i, ref.Segment, ref.Page, err)
		}
	}
	after := k.Stats()
	return ReplayResult{
		Refs:   len(t.Refs),
		Faults: after.Faults - before.Faults,
	}, nil
}
