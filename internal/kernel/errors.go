package kernel

import (
	"errors"
	"fmt"
)

// Sentinel errors returned by kernel operations. Callers match them with
// errors.Is; the wrapped forms carry segment and page context.
var (
	// ErrNoSuchSegment reports an operation on a deleted or unknown segment.
	ErrNoSuchSegment = errors.New("kernel: no such segment")
	// ErrPageNotPresent reports that a source page has no frame.
	ErrPageNotPresent = errors.New("kernel: page not present")
	// ErrPageBusy reports that a destination page already has a frame.
	ErrPageBusy = errors.New("kernel: destination page already present")
	// ErrNotPrivileged reports an operation on a restricted segment (such
	// as the boot frame segment) by an unprivileged credential.
	ErrNotPrivileged = errors.New("kernel: operation requires a privileged credential")
	// ErrNoManager reports a fault on a segment with no manager to field it.
	ErrNoManager = errors.New("kernel: segment has no manager")
	// ErrFaultLoop reports that fault handling did not make the page
	// accessible within the retry bound (e.g. a manager that never maps the
	// page, the paper's recursive-fault hazard).
	ErrFaultLoop = errors.New("kernel: fault not resolved after repeated manager calls")
	// ErrProtection reports an access denied by page protection that the
	// manager declined to resolve.
	ErrProtection = errors.New("kernel: protection violation")
	// ErrBadRange reports a page range that is negative, empty or outside
	// the segment, or a page size other than one frame.
	ErrBadRange = errors.New("kernel: bad page range")
	// ErrOverlap reports a binding that overlaps an existing binding.
	ErrOverlap = errors.New("kernel: binding overlaps existing binding")
	// ErrNotContiguous reports an extent promotion over frames that are not
	// physically contiguous, ascending and naturally aligned.
	ErrNotContiguous = errors.New("kernel: frames not physically contiguous")
	// ErrManagerFailed wraps an error returned by a segment manager.
	ErrManagerFailed = errors.New("kernel: segment manager failed")
	// ErrManagerCrashed reports that a segment manager died (or was killed
	// by the fault plane). The kernel responds by revoking the manager:
	// every segment it managed falls back to the default manager.
	ErrManagerCrashed = errors.New("kernel: segment manager crashed")
	// ErrNoFallback reports that a crashed manager cannot be revoked
	// because no default manager is registered (or the default manager
	// itself crashed).
	ErrNoFallback = errors.New("kernel: no default manager to fall back to")
)

// pageError decorates err with segment and page context.
func pageError(err error, seg *Segment, page int64) error {
	return fmt.Errorf("%w (segment %q id=%d page %d)", err, seg.name, seg.id, page)
}
