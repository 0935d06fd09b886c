package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"epcm/internal/experiments"
)

// runCLI calls run with args and captures what it printed.
func runCLI(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-table", "9"}, "no such table 9"},
		{[]string{"-sched", "bogus"}, `unknown scheduler "bogus"`},
		{[]string{"-reclaim", "bogus"}, "bogus"},
		{[]string{"-sweep", "bogus"}, "want plane, policy, time, super, or all"},
		// Removed with the wall-clock sweeps; flag rejects them.
		{[]string{"-scale"}, "flag provided but not defined: -scale"},
		{[]string{"-json", "x.json"}, "flag provided but not defined: -json"},
	} {
		status, stdout, stderr := runCLI(t, c.args...)
		if status != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, status)
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("%v: stderr %q does not mention %q", c.args, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("%v: printed tables despite the usage error:\n%s", c.args, stdout)
		}
	}
}

// -sweep all prints the four sweeps in table order after the selected
// paper tables, and the run leaves nothing behind in its working directory.
func TestSweepAllOrderAndNoFiles(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	status, stdout, stderr := runCLI(t, "-table", "1", "-sweep", "all")
	if status != 0 {
		t.Fatalf("exit %d, stderr:\n%s", status, stderr)
	}
	titles := []string{
		"\nTable 1: ",
		"\nDelivery-Plane Fault Throughput",
		"\nReplacement-Policy Shootout",
		"\nVirtual-Time Engine Scaling",
		"\nSuperpage Extent Fast Path",
	}
	if len(titles) != 1+len(experiments.Sweeps) {
		t.Fatalf("test lists %d sweep titles, experiments.Sweeps has %d", len(titles)-1, len(experiments.Sweeps))
	}
	at := 0
	for _, title := range titles {
		i := strings.Index(stdout[at:], title)
		if i < 0 {
			t.Fatalf("%q missing or out of order in:\n%s", strings.TrimSpace(title), stdout)
		}
		at += i + len(title)
	}
	if strings.Contains(stdout, "Table 2") || strings.Contains(stdout, "Table 4") {
		t.Errorf("-table 1 printed another paper table:\n%s", stdout)
	}
	left, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("run left %d entries in its working directory, first %q", len(left), left[0].Name())
	}
}

func TestSingleSweep(t *testing.T) {
	status, stdout, stderr := runCLI(t, "-table", "1", "-sweep", "time")
	if status != 0 {
		t.Fatalf("exit %d, stderr:\n%s", status, stderr)
	}
	if !strings.Contains(stdout, "Virtual-Time Engine Scaling") || strings.Contains(stdout, "Delivery-Plane") {
		t.Errorf("-sweep time should print the time sweep and no other:\n%s", stdout)
	}
}
