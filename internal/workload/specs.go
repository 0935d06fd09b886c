package workload

import (
	"time"

	"epcm/internal/sim"
)

// Spec is a declarative application model. The three instances below are
// the programs of §3.2:
//
//	diff       — compare two 200 KB files, generating a 240 KB differences file
//	uncompress — uncompress an 800 KB file, generating a 2 MB file
//	latex      — format a 100 KB document, generating a 23-page output
//
// The file sizes come from the paper. The heap working set of each program
// is chosen so the V++ VM activity lands on Table 3 (manager calls and
// MigratePages invocations); the paper does not report heap sizes directly,
// so this is the one free parameter, and it is documented per spec.
type Spec struct {
	// Name identifies the program.
	Name string
	// Inputs are pre-cached read files: name -> size in 4 KB pages.
	Inputs map[string]int64
	// Steps run in order.
	Steps []Step
	// UltrixElapsed is the paper's measured Table 2 elapsed time on
	// Ultrix; the model's pure-compute time is calibrated against it (the
	// simulation cannot know how many instructions latex executes, but it
	// knows exactly what the VM sees).
	UltrixElapsed time.Duration
	// PaperVppElapsed, PaperCalls, PaperMigrates, PaperOverhead are the
	// paper's Table 2/3 values, carried for report printing.
	PaperVppElapsed time.Duration
	PaperCalls      int64
	PaperMigrates   int64
	PaperOverhead   time.Duration
}

// Step is one phase of a workload.
type Step struct {
	// Exactly one of the following actions is taken.
	ReadFile   string // read this input fully
	WriteFile  string // append WritePages to this output
	WritePages int64
	HeapTouch  int64 // first-touch this many heap pages (write)
	HeapName   string
	Compute    time.Duration // pure CPU
	// RandomTouches, when nonzero, performs that many uniformly random
	// write references over a heap of HeapTouch pages, seeded by Seed so
	// both systems replay the identical reference string.
	RandomTouches int
	Seed          uint64
}

// Run executes the spec on a runner (after Prepare) and reports the
// elapsed virtual time and activity counters.
func Run(r Runner, spec Spec) (time.Duration, Counters, error) {
	if err := r.Prepare(spec.Inputs); err != nil {
		return 0, Counters{}, err
	}
	start := r.Now()
	for _, st := range spec.Steps {
		switch {
		case st.ReadFile != "":
			if err := r.ReadFilePages(st.ReadFile, spec.Inputs[st.ReadFile]); err != nil {
				return 0, Counters{}, err
			}
		case st.WriteFile != "":
			if err := r.WriteFilePages(st.WriteFile, st.WritePages); err != nil {
				return 0, Counters{}, err
			}
		case st.RandomTouches > 0:
			heap := st.HeapName
			if heap == "" {
				heap = "heap"
			}
			rng := sim.NewRNG(st.Seed + 1)
			for i := 0; i < st.RandomTouches; i++ {
				p := rng.Int63n(st.HeapTouch)
				if err := r.TouchHeap(heap, p, 1, true); err != nil {
					return 0, Counters{}, err
				}
			}
		case st.HeapTouch > 0:
			heap := st.HeapName
			if heap == "" {
				heap = "heap"
			}
			if err := r.TouchHeap(heap, 0, st.HeapTouch, true); err != nil {
				return 0, Counters{}, err
			}
		case st.Compute > 0:
			r.Compute(st.Compute)
		}
	}
	return r.Now() - start, r.Counters(), nil
}

// Calibrated returns the spec with one Compute step, after its other steps,
// that makes its Ultrix run land on the paper's Table 2 elapsed time: the
// spec is run on a fresh Ultrix system without compute, and that VM time is
// subtracted from the target. The V++ elapsed time is then fully emergent.
//
// It also returns the calibrated spec's Ultrix result, which the bare run
// already is: the Compute step only advances the clock after the steps the
// bare run took, so the elapsed time is the bare run's plus the compute and
// the counters are the bare run's.
func Calibrated(spec Spec) (cal Spec, ultrix time.Duration, uc Counters, err error) {
	cal = spec
	cal.Steps = withoutCompute(spec.Steps)
	vmTime, uc, err := Run(NewUltrixRunner(0), cal)
	if err != nil {
		return spec, 0, Counters{}, err
	}
	c := max(spec.UltrixElapsed-vmTime, 0)
	cal.Steps = append(cal.Steps, Step{Compute: c})
	return cal, vmTime + c, uc, nil
}

func withoutCompute(steps []Step) []Step {
	out := make([]Step, 0, len(steps))
	for _, s := range steps {
		if s.Compute == 0 {
			out = append(out, s)
		}
	}
	return out
}

// Diff models §3.2's first program: "compare two 200KB files generating a
// differences file of 240KB". Heap working set: both files plus the LCS
// candidate structures, 357 pages (~1.4 MB), chosen to land Table 3's 372
// MigratePages invocations alongside the 15 16KB-unit appends.
func Diff() Spec {
	return Spec{
		Name:   "diff",
		Inputs: map[string]int64{"old": 50, "new": 50},
		Steps: []Step{
			{ReadFile: "old"},
			{ReadFile: "new"},
			{HeapTouch: 357},
			{WriteFile: "old.diff", WritePages: 60},
		},
		UltrixElapsed:   4050 * time.Millisecond,
		PaperVppElapsed: 3990 * time.Millisecond,
		PaperCalls:      379,
		PaperMigrates:   372,
		PaperOverhead:   76 * time.Millisecond,
	}
}

// Uncompress models "uncompress an 800 KB file generating a file of 2 MB".
// Heap: the code tables, 67 pages, landing Table 3's 195 migrations with
// the 128 appends.
func Uncompress() Spec {
	return Spec{
		Name:   "uncompress",
		Inputs: map[string]int64{"archive.Z": 200},
		Steps: []Step{
			{ReadFile: "archive.Z"},
			{HeapTouch: 67},
			{WriteFile: "archive", WritePages: 512},
		},
		UltrixElapsed:   6010 * time.Millisecond,
		PaperVppElapsed: 6390 * time.Millisecond,
		PaperCalls:      197,
		PaperMigrates:   195,
		PaperOverhead:   40 * time.Millisecond,
	}
}

// Latex models "format a 100K input document generating a 23 page
// document". Latex reads its format and font metric files besides the
// document (five extra opens), and its heap holds boxes and glue: 231
// pages, landing Table 3's 238 migrations with the 7 appends and the
// larger open/close traffic.
func Latex() Spec {
	return Spec{
		Name: "latex",
		Inputs: map[string]int64{
			"paper.tex": 25,
			"plain.fmt": 4, "cmr10.tfm": 1, "cmbx10.tfm": 1, "cmti10.tfm": 1, "cmtt10.tfm": 1,
		},
		Steps: []Step{
			{ReadFile: "plain.fmt"},
			{ReadFile: "cmr10.tfm"},
			{ReadFile: "cmbx10.tfm"},
			{ReadFile: "cmti10.tfm"},
			{ReadFile: "cmtt10.tfm"},
			{ReadFile: "paper.tex"},
			{HeapTouch: 231},
			{WriteFile: "paper.dvi", WritePages: 25},
		},
		UltrixElapsed:   13650 * time.Millisecond,
		PaperVppElapsed: 14710 * time.Millisecond,
		PaperCalls:      250,
		PaperMigrates:   238,
		PaperOverhead:   51 * time.Millisecond,
	}
}

// All returns the three Table 2/3 workloads.
func All() []Spec {
	return []Spec{Diff(), Uncompress(), Latex()}
}
