package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"epcm/internal/trace"
)

// runCLI calls run with args and captures what it printed.
func runCLI(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

func TestUsageErrorsExit2(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-system", "vp"}, `unknown system "vp"`},
		{[]string{"-workload", "compile"}, `unknown workload "compile"`},
		{[]string{"-mem", "0"}, "-mem 0"},
		{[]string{"-mem", "0", "-replay", "nosuch.trace"}, "-mem 0"},
		{[]string{"-mem", "-3"}, "-mem -3"},
	} {
		status, stdout, stderr := runCLI(c.args...)
		if status != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, status)
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("%v: stderr %q does not mention %q", c.args, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("%v: printed a report despite the usage error:\n%s", c.args, stdout)
		}
	}
}

func TestScanOnVpp(t *testing.T) {
	t.Parallel()
	status, stdout, stderr := runCLI("-workload", "scan", "-system", "vpp", "-mem", "8")
	if status != 0 {
		t.Fatalf("exit %d, stderr:\n%s", status, stderr)
	}
	if !strings.Contains(stdout, "V++ running scan:") || strings.Contains(stdout, "Ultrix") {
		t.Errorf("-system vpp should report V++ and nothing else:\n%s", stdout)
	}
	// The scan first-touches 96 pages: 64 of heap, 32 of output.
	if !strings.Contains(stdout, "page faults           96\n") {
		t.Errorf("no fault count of 96 in:\n%s", stdout)
	}
}

func TestReplay(t *testing.T) {
	t.Parallel()
	// Two passes over 300 pages on a 1 MB machine (192 pool frames): the
	// second pass faults on every page again under the clock.
	var tr trace.Trace
	for pass := 0; pass < 2; pass++ {
		for p := int64(0); p < 300; p++ {
			tr.Append("heap", p, pass == 0)
		}
	}
	path := filepath.Join(t.TempDir(), "scan.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	status, stdout, stderr := runCLI("-replay", path, "-mem", "1")
	if status != 0 {
		t.Fatalf("exit %d, stderr:\n%s", status, stderr)
	}
	for _, want := range []string{
		"replayed 600 references over 1 segments (policy clock, 1 MB):",
		"  faults   600\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("%q missing from:\n%s", want, stdout)
		}
	}

	// MRU keeps 184 of the 300 pages resident into the second pass, which
	// faults on the other 116; the whole report is pinned, virtual elapsed
	// time included.
	status, stdout, stderr = runCLI("-replay", path, "-mem", "1", "-mru")
	if status != 0 {
		t.Fatalf("-mru: exit %d, stderr:\n%s", status, stderr)
	}
	const mru = "replayed 600 references over 1 segments (policy mru, 1 MB):\n" +
		"  faults   416\n" +
		"  reclaims 224\n" +
		"  disk ops 232\n" +
		"  elapsed  3.793s (virtual)\n"
	if stdout != mru {
		t.Errorf("-mru report:\n%s\nwant:\n%s", stdout, mru)
	}

	status, _, stderr = runCLI("-replay", filepath.Join(t.TempDir(), "nosuch.trace"))
	if status != 1 || !strings.Contains(stderr, "nosuch.trace") {
		t.Errorf("missing trace file: exit %d, stderr %q; want exit 1 naming the file", status, stderr)
	}
}
