package kernel

import (
	"fmt"
	"testing"
	"time"
)

// residentSegment stocks a kernel as stockedKernel does and adds a segment
// managed by a poolMgr, with page 0 resident and writable.
func residentSegment(t *testing.T, cfg Config) (*Kernel, *Segment, *Segment) {
	t.Helper()
	k, donor := stockedKernel(cfg)
	s, err := k.CreateSegment("space", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(s, &poolMgr{k: k, donor: donor, next: restorePool})
	if err := k.MigratePages(AppCred, donor, s, restorePool-1, 0, 1, FlagRW, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Access(s, 0, Read); err != nil {
		t.Fatal(err)
	}
	return k, s, donor
}

// TestSerialKernelTakesNoSegmentLock pins who takes Segment.mu: the serial
// kernel never does — its mapping table and one TLB admit one goroutine at a
// time anyway — and the concurrent kernel does on every reference. The test
// holds the segment's mu itself; the calls run on a goroutine under a
// timeout, so a kernel that does lock fails the test instead of hanging it.
func TestSerialKernelTakesNoSegmentLock(t *testing.T) {
	t.Parallel()
	t.Run("serial", func(t *testing.T) {
		k, s, donor := residentSegment(t, Config{})
		s.mu.Lock()
		defer s.mu.Unlock()
		done := make(chan error, 1)
		go func() {
			done <- func() error {
				if err := k.Access(s, 0, Write); err != nil {
					return fmt.Errorf("resident Access: %w", err)
				}
				if err := k.Access(s, 1, Write); err != nil {
					return fmt.Errorf("faulting Access: %w", err)
				}
				if !s.HasPage(1) {
					return fmt.Errorf("page 1 not resident after its fault")
				}
				if err := k.MigratePages(AppCred, donor, s, restorePool-2, 2, 1, FlagRW, 0); err != nil {
					return fmt.Errorf("MigratePages: %w", err)
				}
				if err := k.ModifyPageFlags(AppCred, s, 0, 3, 0, FlagDirty); err != nil {
					return fmt.Errorf("ModifyPageFlags: %w", err)
				}
				if a, err := k.GetPageAttribute(s, 2); err != nil || !a.Present {
					return fmt.Errorf("GetPageAttribute = %+v, %v", a, err)
				}
				return nil
			}()
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a serial kernel call blocked on the segment lock")
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		k, s, _ := residentSegment(t, Config{Concurrent: true})
		s.mu.Lock()
		done := make(chan error, 1)
		go func() { done <- k.Access(s, 0, Read) }()
		select {
		case err := <-done:
			s.mu.Unlock()
			t.Fatalf("a concurrent kernel's resident hit returned (%v) while the segment lock was held", err)
		case <-time.After(50 * time.Millisecond):
		}
		s.mu.Unlock()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}
