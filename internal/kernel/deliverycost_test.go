package kernel

import (
	"testing"
	"time"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

// The paper's Table 1 gap between the two fault paths — 107µs when the
// manager handles the fault in the faulting process, 379µs when it is a
// separate process reached by IPC — must be carried entirely by the plane's
// delivery and return charges: the trap, kernel call, migration and mapping
// update in between are identical in both modes. This pins the 272µs split
// so a refactor of processFault cannot silently move cost between the
// shared path and the mode-dependent edges.
func TestDeliveryCostSplit(t *testing.T) {
	cost := sim.DECstation5000()
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 1 << 20})
	var clock sim.Clock
	k := New(mem, &clock, cost, Config{})

	measure := func(d DeliveryMode) time.Duration {
		start := clock.Now()
		k.chargeDelivery(k.boot.id, d)
		k.chargeReturn(k.boot.id, d)
		return clock.Now() - start
	}
	same := measure(DeliverSameProcess)
	ipc := measure(DeliverSeparateProcess)

	wantDelta := cost.VppMinimalFaultSeparateManager() - cost.VppMinimalFaultSameProcess()
	if got := ipc - same; got != wantDelta {
		t.Errorf("delivery+return delta = %v, want composition delta %v", got, wantDelta)
	}
	if wantDelta != 272*time.Microsecond {
		t.Errorf("composition delta = %v, want the paper's 379µs-107µs = 272µs", wantDelta)
	}
	if got := cost.VppMinimalFaultSameProcess(); got != 107*time.Microsecond {
		t.Errorf("same-process minimal fault composes to %v, want 107µs", got)
	}
	if got := cost.VppMinimalFaultSeparateManager(); got != 379*time.Microsecond {
		t.Errorf("separate-manager minimal fault composes to %v, want 379µs", got)
	}
}
