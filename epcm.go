// Package epcm is a Go reproduction of "Application-Controlled Physical
// Memory using External Page-Cache Management" (Kieran Harty and David R.
// Cheriton, ASPLOS 1992): the V++ kernel's virtual memory system, in which
// the kernel exports a page-frame cache that process-level segment managers
// — including application-specific ones — manage themselves.
//
// Because Go programs cannot control physical page frames (the runtime owns
// memory), the machine is simulated: a deterministic physical memory, MMU
// and cost model calibrated to the paper's DECstation 5000/200
// measurements. Everything above that line is implemented for real: the
// kernel's segments, bound regions and copy-on-write; the MigratePages /
// ModifyPageFlags / GetPageAttributes / SetSegmentManager operations; the
// generic and default segment managers; the System Page Cache Manager with
// its dram memory market; and the ULTRIX 4.1 baseline the paper compares
// against.
//
// Quick start:
//
//	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 32 << 20, StoreData: true})
//	mgr, _, err := sys.NewAppManager(epcm.ManagerConfig{Name: "mine"}, 1000)
//	seg, err := mgr.CreateManagedSegment("data")
//	err = sys.Kernel.Access(seg, 0, epcm.Write) // faults to *your* manager
//
// See examples/ for complete programs, each built on this package alone, and
// cmd/reproduce for the program that regenerates every table of the paper's
// evaluation.
package epcm

import (
	"epcm/internal/apps"
	"epcm/internal/core"
	"epcm/internal/db"
	"epcm/internal/faultinject"
	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/spcm"
	"epcm/internal/storage"
)

// System is a booted V++ machine: kernel, SPCM, default segment manager and
// file server over a simulated physical memory and virtual clock.
type System = core.System

// Config describes the machine and policies to boot.
type Config = core.Config

// Boot builds and starts a system.
func Boot(cfg Config) (*System, error) { return core.Boot(cfg) }

// Segment is a kernel segment: a variable-size range of pages backed by
// page frames, the unit managers operate on.
type Segment = kernel.Segment

// Fault is a page-fault event delivered to a segment manager.
type Fault = kernel.Fault

// PageFlags are per-page state and protection flags.
type PageFlags = kernel.PageFlags

// Page flag and access-type constants re-exported from the kernel.
const (
	FlagRead        = kernel.FlagRead
	FlagWrite       = kernel.FlagWrite
	FlagRW          = kernel.FlagRW
	FlagDirty       = kernel.FlagDirty
	FlagReferenced  = kernel.FlagReferenced
	FlagPinned      = kernel.FlagPinned
	FlagDiscardable = kernel.FlagDiscardable

	Read  = kernel.Read
	Write = kernel.Write
)

// Manager is the segment-manager interface a custom manager implements (or
// derives from Generic).
type Manager = kernel.Manager

// Cred is a credential for kernel operations; AppCred is the ordinary
// unprivileged credential, SystemCred the SPCM's privileged one.
type Cred = kernel.Cred

// Credentials re-exported from the kernel.
var (
	AppCred    = kernel.AppCred
	SystemCred = kernel.SystemCred
)

// PageRange is one contiguous run of pages in a batched kernel operation
// (MigratePagesBatch / ModifyPageFlagsBatch).
type PageRange = kernel.PageRange

// CoalesceRanges, re-exported from the kernel, groups parallel
// source/destination page lists into the fewest ranges for a batched call.
var CoalesceRanges = kernel.CoalesceRanges

// Generic is the specializable generic segment manager of the paper's §2.2.
type Generic = manager.Generic

// ManagerConfig specializes a Generic manager: its Backing is the page-fill
// routine and its Policy the replacement policy, beside allocation
// constraints and the delivery mode.
type ManagerConfig = manager.Config

// Backing supplies and persists page data for managed segments.
type Backing = manager.Backing

// --- Replacement policies -----------------------------------------------

// Policy is a pluggable replacement policy: victim selection plus
// insert/touch/remove bookkeeping hooks, driven by the manager through a
// PolicyHost over every page it holds. NewPolicy builds "clock" (the §2.2
// default), "lfu" and "random" by name; NewMRUPolicy is an application's
// own. Set ManagerConfig.Policy for one manager (any Policy value, named
// or not) or Config.ReclaimPolicy for a whole system; a segment that needs
// a policy of its own gets a manager of its own (SetSegmentManager).
type Policy = manager.Policy

// PolicyHost is the manager-side interface a Policy samples and evicts
// through.
type PolicyHost = manager.PolicyHost

// PageID names one page of one segment in policy bookkeeping.
type PageID = manager.PageID

// Policy constructors: NewPolicy builds a policy by name and PolicyNames
// lists the names it accepts. NewMRUPolicy returns the classic DBMS scan
// policy, which evicts the most recently used (highest-numbered) page.
var (
	NewPolicy    = manager.NewPolicy
	PolicyNames  = manager.PolicyNames
	NewMRUPolicy = manager.NewMRUPolicy
)

// FrameRange constrains which physical frames may serve an allocation
// (physical placement control and page coloring).
type FrameRange = phys.Range

// AnyFrame is the unconstrained FrameRange.
func AnyFrame() FrameRange { return phys.AnyFrame() }

// MarketPolicy is the SPCM's dram memory-market policy.
type MarketPolicy = spcm.Policy

// Account is one client of the memory market.
type Account = spcm.Account

// DefaultMarketPolicy returns the standard market parameters.
func DefaultMarketPolicy() MarketPolicy { return spcm.DefaultPolicy() }

// DBParams parametrizes the §3.3 database transaction-processing
// experiment; DBConfig selects one of Table 4's four configurations.
type (
	DBParams = db.Params
	DBConfig = db.MemoryConfig
	DBResult = db.Result
)

// Table 4 configurations.
const (
	DBNoIndex           = db.NoIndex
	DBIndexInMemory     = db.IndexInMemory
	DBIndexWithPaging   = db.IndexWithPaging
	DBIndexRegeneration = db.IndexRegeneration
)

// DefaultDBParams returns the paper's §3.3 setup (6 processors, 40 tps,
// 95 % DebitCredit / 5 % joins).
func DefaultDBParams() DBParams { return db.DefaultParams() }

// RunDBAll runs all four Table 4 configurations side by side on one draw of
// the arrival stream and returns them in Table 4 order; a configuration
// that panics panics again on the caller.
func RunDBAll(p DBParams) []*DBResult { return db.RunAll(p) }

// Checkpointer and WriteBarrier are the Appel-Li style user-level
// algorithms of §3.1: concurrent checkpointing and a concurrent-GC write
// barrier, built on protection faults to the application's manager.
type (
	Checkpointer = apps.Checkpointer
	WriteBarrier = apps.WriteBarrier
)

// MP3D is the §1 memory-adaptive particle simulation.
type MP3D = apps.MP3D

// --- Fault injection ---------------------------------------------------

// FaultPlan is a seeded, deterministic fault-injection schedule. Set
// Config.FaultPlan to arm it at boot; the same seed over the same workload
// reproduces the same injections, byte for byte. System.Chaos exposes the
// armed plane's summary and event log.
type FaultPlan = faultinject.Plan

// ChaosPlane is the armed fault plane (System.Chaos).
type ChaosPlane = faultinject.Plane

// ChaosSummary reports what a plane injected.
type ChaosSummary = faultinject.Summary

// Typed errors for fault-injection and recovery paths, matchable with
// errors.Is through manager retry wrapping.
var (
	// ErrInjected marks an injected storage failure.
	ErrInjected = storage.ErrInjected
	// ErrTransient marks a retryable storage failure.
	ErrTransient = storage.ErrTransient
	// ErrTornWrite marks a store failure that persisted a partial block.
	ErrTornWrite = storage.ErrTornWrite
	// ErrManagerCrashed reports a segment manager death; the kernel revokes
	// the manager and its segments fall back to the default manager.
	ErrManagerCrashed = kernel.ErrManagerCrashed
	// ErrRetriesExhausted reports a transient storage error that outlived
	// the manager's retry budget.
	ErrRetriesExhausted = manager.ErrRetriesExhausted
)

// FailingStore wraps a BlockStore with deterministic failure injection
// (fail-after-N, fail-once, torn writes, transient marking).
type FailingStore = storage.FailingStore

// --- Storage -----------------------------------------------------------

// BlockStore is the backing-store interface managers persist to.
type BlockStore = storage.BlockStore

// LatencyModel describes a storage device's timing.
type LatencyModel = storage.LatencyModel

// LocalDisk is the latency model of the paper's local disk (Config.Storage
// defaults to its diskless network file server).
func LocalDisk() LatencyModel { return storage.LocalDisk() }

// --- Backings ------------------------------------------------------------

// Backing constructors; see the corresponding types above. These exist on
// the facade because external users cannot import the internal packages.
type (
	FileBacking = manager.FileBacking
	SwapBacking = manager.SwapBacking
)

// NewFileBacking maps managed segments to named files in a store.
func NewFileBacking(store BlockStore) *FileBacking { return manager.NewFileBacking(store) }

// NewSwapBacking persists anonymous pages to per-segment swap files.
func NewSwapBacking(store BlockStore) *SwapBacking { return manager.NewSwapBacking(store) }

// --- Manager specializations ----------------------------------------------

// The manager constructors are methods of System: NewAppManager (a plain
// Generic), NewColoring, NewPlacement and NewPrefetch. Each follows one
// rule: a manager draws on the ManagerConfig.Source the caller set (a
// FixedPool from System.NewFixedPool, say) and opens no account, or else on
// the SPCM through a new account funded with the income it is given.

// Prefetch is the read-ahead manager System.NewPrefetch builds.
type Prefetch = manager.Prefetch

// FixedPool is a frame source of its own that System.NewFixedPool stocks
// out of the SPCM: set it as ManagerConfig.Source and a manager is granted
// its frames in page order, with no account and no rent.
type FixedPool = manager.FixedPool

// Cache is a physically-indexed, set-associative cache model with one set
// per page color: what page coloring (System.NewColoring) is measured
// against.
type Cache = phys.Cache

// NewCache builds a cache model with colors sets of ways frames each.
func NewCache(colors, ways int) *Cache { return phys.NewCache(colors, ways) }

// Fault delivery modes (ManagerConfig.Delivery).
const (
	DeliverSameProcess     = kernel.DeliverSameProcess
	DeliverSeparateProcess = kernel.DeliverSeparateProcess
)

// Fault-delivery scheduler modes (Config.Scheduler). SerialScheduler (the
// default) drains deliveries deterministically on the faulting goroutine;
// ConcurrentScheduler gives every segment manager its own worker goroutine
// so applications on different managers fault in parallel. Call
// System.Shutdown when done with a concurrent system to retire the workers.
const (
	SerialScheduler     = "serial"
	ConcurrentScheduler = "concurrent"
)

// --- User-level algorithms --------------------------------------------------

// NewCheckpointer builds a concurrent checkpointer (wire its Hook into the
// manager's Protection and Attach it to the segment).
func NewCheckpointer(sys *System) *Checkpointer {
	return apps.NewCheckpointer(sys.Kernel, sys.Store)
}

// NewWriteBarrier builds a concurrent-GC write barrier for a segment.
func NewWriteBarrier(sys *System, seg *Segment) *WriteBarrier {
	return apps.NewWriteBarrier(sys.Kernel, seg)
}

// NewMP3D builds the §1 memory-adaptive particle simulation.
func NewMP3D(sys *System, backing Backing, income float64) (*MP3D, error) {
	return apps.NewMP3D(sys.Kernel, sys.SPCM, backing, income)
}
