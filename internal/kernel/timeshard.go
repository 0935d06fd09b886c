package kernel

import (
	"time"

	"epcm/internal/sim"
)

// Time-shard binding: the kernel side of the sharded virtual-time engine.
//
// Under the serial engine one global clock orders everything. Under the
// sharded engine each manager owns a sim.Shard — its own event queue and
// local clock — and the delivery plane becomes the shard boundary: every
// fault, deletion notice and control message a manager receives is charged
// to that manager's shard clock as well as the global clock, and the
// scheduler stamps the manager's envelopes with the shard's local time, so
// per-manager delivery streams stay ordered by the time that manager has
// actually consumed rather than by a clock some other manager raced ahead.
//
// The per-shard clocks form the per-manager delivery ledger: after a run,
// shard i's clock reads the total virtual time manager i spent fielding
// deliveries, and the maximum across shards is the makespan the sharded
// engine's model throughput is measured against (reproduce -sweep time).
//
// The binding is one field of the manager's record (managerCell,
// segment.go), which the delivery path already holds: a delivery's stamp
// and its ticks read the same pointer, so they agree whenever the binding is
// made. Bind at boot — the discipline of SetScheduler and the interceptor —
// if every delivery is to land on the shard. Revoking a manager drops its
// record and the binding with it.

// BindTimeShard gives manager m its own time shard. Subsequent deliveries
// to m are stamped with the shard's local clock and charge their delivery
// costs (trap, upcall or IPC, resume) to it as well as to the global clock.
// A nil shard unbinds.
func (k *Kernel) BindTimeShard(m Manager, sh *sim.Shard) {
	k.cellOf(m).shard.Store(sh)
}

// TimeShardClock returns the clock deliveries to m are stamped with: m's
// shard clock when bound, the kernel's global clock otherwise.
func (k *Kernel) TimeShardClock(m Manager) *sim.Clock {
	k.mgrMu.Lock()
	c := k.managers[m]
	k.mgrMu.Unlock()
	return k.clockOf(c)
}

// clockOf is TimeShardClock for a manager's record; nil is no record.
func (k *Kernel) clockOf(c *managerCell) *sim.Clock {
	if c != nil {
		if sh := c.shard.Load(); sh != nil {
			return sh.Clock()
		}
	}
	return k.clock
}

// stampFor returns the envelope timestamp for a delivery to c's manager:
// its local virtual time when a shard is bound, else global time.
func (k *Kernel) stampFor(c *managerCell) time.Duration { return k.clockOf(c).Now() }

// tickShard charges d of virtual delivery time to a manager's shard clock.
// A nil shard (unbound manager) is a no-op. Shards tick only while their
// manager's messages process, which the delivery plane serializes per
// manager, so no two goroutines tick one shard concurrently.
func tickShard(sh *sim.Shard, d time.Duration) {
	if sh != nil && d > 0 {
		sh.Clock().Advance(d)
	}
}
