package sim

import "time"

// CostModel holds the per-primitive virtual-time costs of the simulated
// machine. The defaults are calibrated so that the composed operation paths
// land on the paper's Table 1 measurements for a DECstation 5000/200
// (25 MHz R3000, 4 KB pages) running V++ and ULTRIX 4.1.
//
// The calibration targets are:
//
//	V++ minimal fault, faulting process    107 µs
//	V++ minimal fault, default manager     379 µs
//	V++ read 4 KB cached                   222 µs
//	V++ write 4 KB cached                  203 µs
//	Ultrix minimal fault                   175 µs
//	Ultrix user-level fault handler        152 µs
//	Ultrix read 4 KB cached                211 µs
//	Ultrix write 4 KB cached               311 µs
//
// The individual constants are estimates; the paper's claims concern which
// primitives each path composes (for example, that Ultrix pays a 75 µs page
// zeroing on every allocation and that V++ does not), and those compositions
// are what the benchmarks verify.
type CostModel struct {
	// Trap is the hardware trap plus kernel fault dispatch: saving state,
	// decoding the faulting address, and locating the segment.
	Trap time.Duration
	// KernelCall is the cost of a system call entry/exit pair.
	KernelCall time.Duration
	// Upcall is the cost of the kernel transferring control to a fault
	// handling procedure executed by the faulting process itself
	// (the efficient delivery mode of Section 2.1).
	Upcall time.Duration
	// ContextSwitch is one process context switch, paid twice when the
	// manager runs as a separate process reached over IPC.
	ContextSwitch time.Duration
	// ResumeDirect is resumption of the faulting application directly from
	// the manager without reentering the kernel (possible on the R3000).
	ResumeDirect time.Duration
	// ResumeViaKernel is resumption through the kernel, required on
	// processors (e.g. MC680x0) that must restore privileged pipeline state.
	ResumeViaKernel time.Duration
	// MigratePage is the per-page cost of the MigratePages kernel operation:
	// unhooking the frame from the source segment, updating the mapping hash
	// table and hooking it into the destination.
	MigratePage time.Duration
	// ModifyFlags is the per-call cost of ModifyPageFlags (plus a small
	// per-page component folded into MappingUpdate).
	ModifyFlags time.Duration
	// MappingUpdate is a single mapping hash-table or page-table update.
	MappingUpdate time.Duration
	// SuperpageOp is one extent-granular mapping operation: migrating or
	// re-protecting a whole aligned superpage extent through a single
	// mapping entry, whatever the extent's order. It prices like one
	// base-page migrate plus one mapping update — the point of the paper's
	// multiple page sizes is that the per-page bookkeeping disappears, so
	// the cost does not scale with 2^order. Charged only on the superpage
	// fast paths, which are off by default; no golden table composes it.
	SuperpageOp time.Duration
	// TLBFill is a kernel-handled TLB refill (simple misses are handled in
	// the kernel on the R3000 and are nearly free).
	TLBFill time.Duration
	// CopyPage is copying 4 KB of data memory-to-memory.
	CopyPage time.Duration
	// ZeroPage is zero-filling a 4 KB page. Ultrix zeroes every page it
	// allocates, for security; V++ does not unless the frame changes user.
	ZeroPage time.Duration
	// SignalDeliver is Unix signal delivery to a user handler and the
	// matching sigreturn, used by the Ultrix user-level fault handler path.
	SignalDeliver time.Duration
	// Mprotect is one mprotect system call changing one page's protection.
	Mprotect time.Duration

	// DiskAccess is a backing-store access for one 4 KB page (seek +
	// rotation + transfer on a local disk of the period).
	DiskAccess time.Duration
	// NetworkAccess is fetching one 4 KB page from a network file server
	// (the V++ machine is diskless; its files come from a DECstation 3100).
	NetworkAccess time.Duration

	// Fixed path overheads: bookkeeping each operation performs beyond the
	// shared primitives above (cache-directory lookups, argument checking,
	// buffer management). Separated out so the compositions stay explicit.

	// UIOReadExtra is the V++ UIO block-read bookkeeping.
	UIOReadExtra time.Duration
	// UIOWriteExtra is the V++ UIO block-write bookkeeping.
	UIOWriteExtra time.Duration
	// UltrixReadExtra is the Ultrix read(2) buffer-cache lookup overhead.
	UltrixReadExtra time.Duration
	// UltrixWriteExtra is the Ultrix write(2) buffer-cache overhead.
	UltrixWriteExtra time.Duration
	// UltrixFaultExtra is fixed Ultrix in-kernel fault bookkeeping.
	UltrixFaultExtra time.Duration
}

// DECstation5000 returns the cost model calibrated to the paper's hardware.
func DECstation5000() *CostModel {
	return &CostModel{
		Trap:            20 * time.Microsecond,
		KernelCall:      30 * time.Microsecond,
		Upcall:          20 * time.Microsecond,
		ContextSwitch:   115 * time.Microsecond,
		ResumeDirect:    8 * time.Microsecond,
		ResumeViaKernel: 32 * time.Microsecond,
		MigratePage:     25 * time.Microsecond,
		ModifyFlags:     10 * time.Microsecond,
		MappingUpdate:   4 * time.Microsecond,
		SuperpageOp:     29 * time.Microsecond,
		TLBFill:         2 * time.Microsecond,
		CopyPage:        145 * time.Microsecond,
		ZeroPage:        75 * time.Microsecond,
		SignalDeliver:   70 * time.Microsecond,
		Mprotect:        30 * time.Microsecond,
		DiskAccess:      16 * time.Millisecond,
		NetworkAccess:   20 * time.Millisecond,

		UIOReadExtra:     39 * time.Microsecond,
		UIOWriteExtra:    20 * time.Microsecond,
		UltrixReadExtra:  36 * time.Microsecond,
		UltrixWriteExtra: 53 * time.Microsecond,
		UltrixFaultExtra: 10 * time.Microsecond,
	}
}

// MinDeliveryLatency is the cheapest possible cross-manager delivery the
// model admits: a hardware trap plus the upcall that transfers control into
// a manager (the efficient same-process mode of §2.1). Every fault
// delivery, deletion notice and control message pays at least this much
// before any other manager can observe it, so the sharded virtual-time
// engine uses it as the conservative lookahead bound — a cross-shard event
// can never land closer to the sender's clock than this.
// 40 µs on the DECstation 5000 calibration.
func (c *CostModel) MinDeliveryLatency() time.Duration {
	return c.Trap + c.Upcall
}

// The composed paths below document, in one place, which primitives each
// measured operation is built from. The kernel and manager implementations
// charge the same primitives as they execute; these helpers exist so tests
// can assert that the implementations and the documented compositions agree.

// VppMinimalFaultSameProcess is the V++ minimal page fault handled by a
// procedure executed by the faulting process itself: trap, upcall to the
// manager procedure, one MigratePages call moving one frame from the
// manager's free-page segment, and direct resumption (R3000).
// Target: 107 µs.
func (c *CostModel) VppMinimalFaultSameProcess() time.Duration {
	return c.Trap + c.Upcall + c.KernelCall + c.MigratePage + c.MappingUpdate + c.ResumeDirect
}

// VppMinimalFaultSeparateManager is the V++ minimal fault handled by the
// default segment manager running as a separate server process: trap, a
// context switch to the manager, the migrate call, and a context switch
// back plus kernel resumption of the faulting process.
// Target: 379 µs.
func (c *CostModel) VppMinimalFaultSeparateManager() time.Duration {
	return c.Trap + 2*c.ContextSwitch + c.KernelCall + c.MigratePage + c.MappingUpdate +
		c.KernelCall + c.ResumeViaKernel + 2*c.MappingUpdate
}

// UltrixMinimalFault is the conventional kernel-internal fault: trap,
// in-kernel allocation including the security zero-fill, page-table update
// and return from trap.
// Target: 175 µs.
func (c *CostModel) UltrixMinimalFault() time.Duration {
	return c.Trap + c.KernelCall + c.ZeroPage + c.MappingUpdate*2 + c.ResumeViaKernel + c.UltrixFaultExtra
}

// UltrixUserFaultHandler is a fault on a protected page delivered to a user
// signal handler that changes the page protection with mprotect and returns:
// trap, signal delivery, mprotect, sigreturn path.
// Target: 152 µs.
func (c *CostModel) UltrixUserFaultHandler() time.Duration {
	return c.Trap + c.SignalDeliver + c.Mprotect + c.ResumeViaKernel
}

// VppRead4K is a cached-file block read through the UIO block interface:
// one kernel operation plus the data copy to the caller's buffer.
// Target: 222 µs.
func (c *CostModel) VppRead4K() time.Duration {
	return c.KernelCall + c.CopyPage + 2*c.MappingUpdate + c.UIOReadExtra
}

// VppWrite4K is a cached-file block write through the UIO block interface.
// Writes are slightly cheaper than reads here because the written page's
// mapping is already write-enabled for the cache.
// Target: 203 µs.
func (c *CostModel) VppWrite4K() time.Duration {
	return c.KernelCall + c.CopyPage + 2*c.MappingUpdate + c.UIOWriteExtra
}

// UltrixRead4K is the read system call for 4 KB of a cached file.
// Target: 211 µs.
func (c *CostModel) UltrixRead4K() time.Duration {
	return c.KernelCall + c.CopyPage + c.UltrixReadExtra
}

// UltrixWrite4K is the write system call for 4 KB of a cached file. Ultrix
// pays a buffer allocation with zero-fill on the write path.
// Target: 311 µs.
func (c *CostModel) UltrixWrite4K() time.Duration {
	return c.KernelCall + c.CopyPage + c.ZeroPage + c.MappingUpdate*2 + c.UltrixWriteExtra
}
