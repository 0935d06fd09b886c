// Package apps implements the user-level virtual-memory algorithms the
// paper cites as beneficiaries of cheap fault handling (§3.1, referencing
// Appel & Li): concurrent checkpointing and a concurrent-GC write barrier.
// Both use page protection hardware from user level; on V++ a protection
// fault costs 107 µs through the application's own manager, versus 152 µs
// for the Ultrix signal+mprotect path — and the V++ manager can combine the
// fault with page-cache actions (copying, remapping) in the same handler.
package apps

import (
	"fmt"
	"slices"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/storage"
)

// Checkpointer takes consistent point-in-time images of a segment while
// the application keeps running (concurrent checkpointing). Begin
// write-protects the segment; the first write to each page faults to the
// manager, which saves the page's *old* contents to the checkpoint image
// before re-enabling writes. Pages never written during the epoch are
// saved lazily by Drain. The resulting image is the exact state at Begin.
type Checkpointer struct {
	k     *kernel.Kernel
	g     *manager.Generic
	seg   *kernel.Segment
	store *storage.Store

	epoch   int
	active  bool
	pending map[int64]bool // pages not yet saved this epoch
	// stats
	faultSaves int64 // pages saved in the write-fault path
	drainSaves int64 // pages saved by background drain
}

// NewCheckpointer wires a checkpointer into a manager's protection-fault
// path for one segment. Create the manager with its Protection hook set to
// the value returned by Hook (manager.Config is immutable after creation,
// so the hook indirection goes through the returned checkpointer).
func NewCheckpointer(k *kernel.Kernel, store *storage.Store) *Checkpointer {
	return &Checkpointer{k: k, store: store, pending: make(map[int64]bool)}
}

// Attach binds the checkpointer to its manager and segment.
func (c *Checkpointer) Attach(g *manager.Generic, seg *kernel.Segment) {
	c.g = g
	c.seg = seg
}

// Hook returns the Protection hook to install in the manager's Config.
// Faults on other segments (or with no checkpoint active) fall back to the
// default enable-access behaviour.
func (c *Checkpointer) Hook() func(f kernel.Fault) error {
	return func(f kernel.Fault) error {
		if c.active && f.Seg == c.seg && f.Access == kernel.Write && c.pending[f.Page] {
			if err := c.savePage(f.Page); err != nil {
				return err
			}
			c.faultSaves++
		}
		need := kernel.FlagRead
		if f.Access == kernel.Write {
			need = kernel.FlagWrite
		}
		return c.k.ModifyPageFlags(kernel.AppCred, f.Seg, f.Page, 1, need, 0)
	}
}

// imageName names the current epoch's checkpoint file.
func (c *Checkpointer) imageName() string {
	return fmt.Sprintf("ckpt-%s-%d", c.seg.Name(), c.epoch)
}

// savePage copies one page's current contents into the image and charges
// the copy.
func (c *Checkpointer) savePage(page int64) error {
	frame := c.seg.FrameAt(page)
	if frame == nil {
		delete(c.pending, page)
		return nil
	}
	buf := frame.Data()
	if buf == nil {
		buf = make([]byte, frame.Size())
	}
	c.k.Clock().Advance(c.k.Cost().CopyPage)
	if err := c.store.Store(c.imageName(), page, buf); err != nil {
		return err
	}
	delete(c.pending, page)
	return nil
}

// Begin starts a checkpoint epoch: every resident page is write-protected
// and marked pending. The application continues immediately; its writes
// trigger copy-before-write through the manager.
func (c *Checkpointer) Begin() error {
	if c.active {
		return fmt.Errorf("apps: checkpoint already active on %v", c.seg)
	}
	c.epoch++
	c.active = true
	c.pending = make(map[int64]bool)
	for _, p := range c.seg.Pages() {
		c.pending[p] = true
	}
	// Remove write permission in contiguous runs.
	pages := c.seg.Pages()
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+1 {
			j++
		}
		if err := c.k.ModifyPageFlags(kernel.AppCred, c.seg, pages[i], int64(j-i), 0, kernel.FlagWrite); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// Drain saves up to n still-pending pages in the background (the
// checkpointer's own pace, interleaved with the application). It returns
// the number of pages still pending afterwards.
func (c *Checkpointer) Drain(n int) (int, error) {
	if !c.active {
		return 0, nil
	}
	for p := range c.pending {
		if n <= 0 {
			break
		}
		if err := c.savePage(p); err != nil {
			return len(c.pending), err
		}
		// The saved page can take writes again without another fault.
		if c.seg.HasPage(p) {
			if err := c.k.ModifyPageFlags(kernel.AppCred, c.seg, p, 1, kernel.FlagWrite, 0); err != nil {
				return len(c.pending), err
			}
		}
		c.drainSaves++
		n--
	}
	return len(c.pending), nil
}

// Finish drains everything left and closes the epoch.
func (c *Checkpointer) Finish() error {
	for c.active && len(c.pending) > 0 {
		if _, err := c.Drain(64); err != nil {
			return err
		}
	}
	c.active = false
	// Restore write access everywhere.
	for _, p := range c.seg.Pages() {
		if err := c.k.ModifyPageFlags(kernel.AppCred, c.seg, p, 1, kernel.FlagWrite, 0); err != nil {
			return err
		}
	}
	return nil
}

// Image reads back a full checkpoint image for verification.
func (c *Checkpointer) Image(epoch int, pages int64) ([][]byte, error) {
	name := fmt.Sprintf("ckpt-%s-%d", c.seg.Name(), epoch)
	out := make([][]byte, pages)
	for p := int64(0); p < pages; p++ {
		buf := make([]byte, c.seg.PageSize())
		if err := c.store.Fetch(name, p, buf); err != nil {
			return nil, err
		}
		out[p] = buf
	}
	return out, nil
}

// FaultSaves and DrainSaves report how pages reached the image.
func (c *Checkpointer) FaultSaves() int64 { return c.faultSaves }
func (c *Checkpointer) DrainSaves() int64 { return c.drainSaves }

// WriteBarrier is a concurrent-GC style barrier: during a mark epoch it
// records exactly which pages the application wrote, using protection
// faults (the card-marking / remembered-set construction of Appel-Li-style
// collectors).
type WriteBarrier struct {
	k       *kernel.Kernel
	seg     *kernel.Segment
	active  bool
	written map[int64]bool
	faults  int64
}

// NewWriteBarrier builds a barrier for one segment.
func NewWriteBarrier(k *kernel.Kernel, seg *kernel.Segment) *WriteBarrier {
	return &WriteBarrier{k: k, seg: seg, written: make(map[int64]bool)}
}

// Hook returns the Protection hook to install in the segment's manager.
func (w *WriteBarrier) Hook() func(f kernel.Fault) error {
	return func(f kernel.Fault) error {
		if w.active && f.Seg == w.seg && f.Access == kernel.Write {
			w.written[f.Page] = true
			w.faults++
		}
		need := kernel.FlagRead
		if f.Access == kernel.Write {
			need = kernel.FlagWrite
		}
		return w.k.ModifyPageFlags(kernel.AppCred, f.Seg, f.Page, 1, need, 0)
	}
}

// Begin write-protects the segment and starts recording.
func (w *WriteBarrier) Begin() error {
	w.active = true
	w.written = make(map[int64]bool)
	for _, p := range w.seg.Pages() {
		if err := w.k.ModifyPageFlags(kernel.AppCred, w.seg, p, 1, 0, kernel.FlagWrite); err != nil {
			return err
		}
	}
	return nil
}

// End stops recording and returns the written pages in ascending order.
func (w *WriteBarrier) End() []int64 {
	w.active = false
	out := make([]int64, 0, len(w.written))
	for p := range w.written {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Faults reports barrier faults taken.
func (w *WriteBarrier) Faults() int64 { return w.faults }

// Restore rebuilds the segment's contents from a completed checkpoint
// image — crash recovery. Present pages are overwritten in place; missing
// pages are faulted in first (through the ordinary manager path) and then
// overwritten. The segment afterwards equals the state at that epoch's
// Begin.
func (c *Checkpointer) Restore(epoch int, pages int64) error {
	if c.active {
		return fmt.Errorf("apps: cannot restore during an active checkpoint")
	}
	name := fmt.Sprintf("ckpt-%s-%d", c.seg.Name(), epoch)
	buf := make([]byte, c.seg.PageSize())
	for p := int64(0); p < pages; p++ {
		if !c.seg.HasPage(p) {
			if err := c.k.Access(c.seg, p, kernel.Write); err != nil {
				return fmt.Errorf("apps: restore page %d: %w", p, err)
			}
		}
		if err := c.store.Fetch(name, p, buf); err != nil {
			return fmt.Errorf("apps: restore page %d: %w", p, err)
		}
		frame := c.seg.FrameAt(p)
		if data := frame.Data(); data != nil {
			copy(data, buf)
		}
		c.k.Clock().Advance(c.k.Cost().CopyPage)
	}
	return nil
}
