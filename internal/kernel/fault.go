package kernel

import "fmt"

// AccessType distinguishes read and write references.
type AccessType int

// Access types.
const (
	Read AccessType = iota
	Write
)

func (a AccessType) String() string {
	if a == Write {
		return "write"
	}
	return "read"
}

// FaultKind classifies the event communicated to a segment manager.
type FaultKind int

const (
	// FaultMissing is a reference to a page with no frame.
	FaultMissing FaultKind = iota
	// FaultProtection is a reference denied by the page's protection flags.
	FaultProtection
	// FaultCopyOnWrite is a write that crossed a copy-on-write binding and
	// must materialize a private page in the front segment. The kernel
	// performs the copy after the manager has allocated a page (§2.1).
	FaultCopyOnWrite
)

func (k FaultKind) String() string {
	switch k {
	case FaultMissing:
		return "missing"
	case FaultProtection:
		return "protection"
	case FaultCopyOnWrite:
		return "copy-on-write"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault describes a page fault event delivered to a segment manager.
type Fault struct {
	// Seg is the segment the manager must supply a page for (after binding
	// resolution; for a COW fault it is the front segment that needs the
	// private copy).
	Seg *Segment
	// Page is the faulting page number within Seg.
	Page int64
	// Access is the access type that faulted.
	Access AccessType
	// Kind classifies the fault.
	Kind FaultKind
}

func (f Fault) String() string {
	return fmt.Sprintf("%s %s fault on %s page %d", f.Kind, f.Access, f.Seg, f.Page)
}

// DeliveryMode selects how the kernel transfers control to a manager
// (§2.1): a procedure executed by the faulting process itself (no context
// switch; resumption can bypass the kernel on the R3000), or a separate
// manager process reached over IPC.
type DeliveryMode int

const (
	// DeliverSameProcess runs the manager as a procedure of the faulting
	// process — the efficient mode (107 µs minimal fault).
	DeliverSameProcess DeliveryMode = iota
	// DeliverSeparateProcess suspends the faulting process and sends the
	// fault to a separate manager process (379 µs minimal fault).
	DeliverSeparateProcess
)

func (d DeliveryMode) String() string {
	if d == DeliverSeparateProcess {
		return "separate-process"
	}
	return "same-process"
}

// Manager is a segment manager: the process-level module responsible for
// managing the page frames of the segments it is bound to with
// SetSegmentManager. Everything a conventional kernel VM does — allocation,
// fill, replacement, writeback — happens in implementations of this
// interface; the kernel itself only moves frames and flags as told.
type Manager interface {
	// ManagerName identifies the manager in diagnostics and statistics.
	ManagerName() string
	// Delivery reports how faults reach this manager.
	Delivery() DeliveryMode
	// HandleFault services a fault. On success the faulted page must be
	// present in f.Seg (for FaultMissing / FaultCopyOnWrite) or its
	// protection must permit the access (FaultProtection); the kernel
	// retries the access and re-faults if not, up to a bound.
	HandleFault(f Fault) error
	// SegmentDeleted notifies the manager that a segment it manages is
	// being deleted, before the kernel reclaims any remaining frames, so
	// the manager can migrate them to its free-page segment first (§2.2).
	SegmentDeleted(s *Segment)
}

// VectorHandler is a stub kept because bench/ names it: the kernel delivers
// every fault alone, through Manager.HandleFault, and never calls
// HandleFaultVector. ROADMAP item 7 removes it.
type VectorHandler interface {
	HandleFaultVector(fs []Fault, errs []error)
}

// Cred is a credential presented to kernel operations that touch restricted
// segments (the boot frame segment is "limited to system processes,
// specifically the system page cache manager", §2.1).
type Cred struct {
	// Name identifies the holder in errors.
	Name string
	// Privileged grants access to restricted segments.
	Privileged bool
}

// AppCred is the unprivileged credential ordinary applications and managers
// use.
var AppCred = Cred{Name: "app"}

// SystemCred is the privileged credential held by the system page cache
// manager.
var SystemCred = Cred{Name: "system", Privileged: true}
