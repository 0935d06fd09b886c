#!/usr/bin/env bash
# check.sh — the one gate: formatting, vet, build, race-enabled tests, the
# chaos and fuzz smokes, the bench/ module (its own go.mod, so the root
# build never compiles it), the unlinked-function list, one-iteration
# benchmark smokes, and the golden output (the paper tables on three arms and
# on one and eight cores, the sweeps on the default one). CI runs this script
# rather than a copy of it. Run from anywhere inside the repo.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== deleted mechanisms stay deleted =="
# PR 14 removed epoch-based reclamation, the boxed CAS-table slots and the
# pooled per-page maps of the batch collision check; a merge must not bring
# any of them back.
if grep -rnE '\bebr\b|casBox|lookupEntry|srcSeen' internal/; then
    echo "a mechanism deleted in PR 14 is back (see the matches above)" >&2
    exit 1
fi
# The time engine runs callbacks only: simulated processes (the channel
# switch, then coroutines), their resources and cross-shard sends are gone
# from internal/sim; processes live on only as the reference in
# internal/db's tests (refenv_test.go).
if grep -rnE 'resume +chan|parked +chan|iter\.Pull|\*Proc\b|Resource\b|\.Send\(|inbox' --include='*.go' --exclude='*_test.go' internal/sim; then
    echo "a simulated-process or cross-shard-send mechanism is back in internal/sim (see the matches above)" >&2
    exit 1
fi

# PR 16 put the lock manager on per-mode counts; the holder lists live on only
# in the reference in internal/db's tests.
if grep -rnE 'granted +\[\]lockHold' --include='*.go' --exclude='*_test.go' internal/db; then
    echo "the per-lock holder list deleted in PR 16 is back (see the matches above)" >&2
    exit 1
fi

# PR 17 made the manager's record (managerCell) the fault path's only way to
# its manager, and sim.Striped the one striped counter. A
# map[Manager] may exist only as the registration-time interning table behind
# cellOf (SetSegmentManager, Exec, Revoke), never from Access
# down; and every kernel charge names its stripe.
if grep -rnE 'sync\.Map|casStatCell|casTLBStatCell|shardClock' --include='*.go' --exclude='*_test.go' internal/kernel; then
    echo "a per-fault lookup or stat cell deleted in PR 17 is back (see the matches above)" >&2
    exit 1
fi
if grep -rnE 'clock\.Advance\(' --include='*.go' --exclude='*_test.go' internal/kernel; then
    echo "internal/kernel charges the clock without a stripe key: use AdvanceOn(segment ID, d)" >&2
    exit 1
fi

# PR 19 retired the wall-clock sweep harnesses: `go run -C bench .` is the
# one instrument and `bench -compare` the one comparison tool. No trajectory
# file, no append/diff code, and nothing in internal/experiments that reads
# a wall clock, the heap or the collector, or writes a file.
if grep -rnE 'AppendBenchSweep|AppendTimeSweep|AppendPolicySweep|Diff(Scale|Super|Time|Policy)Sweeps|ScaleRegressionVerdict' internal/ cmd/; then
    echo "a sweep trajectory function deleted in PR 19 is back (see the matches above)" >&2
    exit 1
fi
if grep -rnE 'time\.Now|time\.Since|ReadMemStats|SetGCPercent|os\.WriteFile' --include='*.go' --exclude='*_test.go' internal/experiments; then
    echo "internal/experiments prints model numbers only; wall-clock questions go to bench/ (see the matches above)" >&2
    exit 1
fi
if compgen -G 'BENCH_*.json' > /dev/null; then
    echo "a BENCH_*.json trajectory file is back at the root; bench/ writes its results under bench/" >&2
    exit 1
fi

# PR 20 made ReserveSlots/Granted the one door into a free-page segment and
# the slot ledger (internal/manager/slots.go) its only bookkeeper, and
# deleted plane.Queue. The old five-method protocol, the three mode fields
# and the queue stay gone, and no other manager file writes a ledger field.
if grep -rnE 'ReceiveSlots|ReceiveSlotsAppend|ReleaseSlots|FramesGranted|RunsGranted|freshOnly|runSlotQueue|runSlotNext|NewQueue\[' internal/ cmd/ examples/ epcm.go; then
    echo "a grant-protocol method, slot mode field or queue deleted in PR 20 is back (see the matches above)" >&2
    exit 1
fi
ledger='slots\.(listed|nListed|recall|empty|parked|recycled|next|inflight|skipped|plan)\b'
if grep -nE "$ledger(\[[^]]*\])?(\.[A-Za-z]+)* *([-+]?=[^=]|\+\+|--)|(append|delete)\([a-z.]*$ledger|$ledger\.(Add|Store)\(" \
    $(ls internal/manager/*.go | grep -vE '_test\.go$|/slots\.go$'); then
    echo "a slot-ledger field is written outside internal/manager/slots.go: go through the ledger's methods" >&2
    exit 1
fi

# PR 21 put the lock manager's bodies on the owner's record — the keyed
# spellings resolve the key once — and gave the event queue a FIFO lane for
# in-order pushes, which retired the heap's pop-side shrink (a copy into a
# half-size array once a burst had drained).
if grep -nE 'func (\([a-z]+ \*LockManager\) )?(acquire|grant|grantable|releaseAll)\([^)]*interface\{\}' internal/db/locks.go; then
    echo "a lock-manager body takes an interface{} owner again: bodies take the owner's *holdList (see the matches above)" >&2
    exit 1
fi
# Table 4 runs each transaction as a record that callback events resume; the
# process bodies it replaced live on only as refRun in internal/db's tests.
if grep -rnE 'sim\.Proc|sim\.Resource|\.Park\(|\.Sleep\(|GoAt\(' --include='*.go' --exclude='*_test.go' internal/db; then
    echo "internal/db runs transactions on simulated processes again: a transaction is a txn record (see the matches above)" >&2
    exit 1
fi
if grep -nE 'make\(eventHeap, *[a-z]+,' internal/sim/des.go; then
    echo "the event heap's pop-side shrink deleted in PR 21 is back (see the matches above)" >&2
    exit 1
fi

# PR 23 made every mode a field of the constructor it configures
# (kernel.Config, manager.Config, db.Params, core.Config) and deleted the
# process-global boot switches. The one survivor is the kernel.SetSuperpages
# shim bench/ pins: nothing in the root module but its definition and its
# own test may call it. And the packages whose tests were serial only
# because of the switches keep at least one parallel test.
if grep -rnE 'func SetBoot|bootConcurrent|bootSharded|bootPolicyName|superSwitchMu' internal/ cmd/ examples/ epcm.go; then
    echo "a process-global mode switch deleted in PR 23 is back (see the matches above)" >&2
    exit 1
fi
if grep -rnE 'SetSuperpages\(|SuperpagesEnabled\(' --include='*.go' --exclude-dir=bench . |
    grep -vE '^\./internal/kernel/superpage(_shim_test)?\.go:'; then
    echo "the superpage shim is for bench/ alone: set kernel.Config.Superpages, ask (*Kernel).Superpages" >&2
    exit 1
fi
for pkg in internal/kernel internal/core internal/experiments; do
    if ! grep -rqF 't.Parallel()' --include='*_test.go' "$pkg"; then
        echo "$pkg has no t.Parallel() test left: modes are per value, its mode tests can run side by side" >&2
        exit 1
    fi
done

# PR 24: the runners pre-cached their input files in Go's map order, so which
# segment ID, donor pages and free slots each file got — mapping-table keys —
# changed from run to run. Machine state is built in sorted order.
if grep -rnE 'range inputs' --include='*.go' --exclude='*_test.go' internal/workload; then
    echo "internal/workload builds machine state in map order: range over sortedNames(inputs)" >&2
    exit 1
fi

# PR 25 made a serial delivery a direct call: with one goroutine delivering,
# the mailbox group the serial scheduler posted through was empty at every
# post. plane.Group and Mailbox stay in internal/plane for bench's probe.
if grep -rnE 'plane\.Group|NewMailbox|PopOldest|deliveryResult|\.box\b' --include='*.go' --exclude='*_test.go' internal/kernel; then
    echo "the serial scheduler's mailbox queue deleted in PR 25 is back (see the matches above)" >&2
    exit 1
fi

# One mapping table serves both schedulers: the paper's §3.2 hash table,
# lock-striped once shared. The lock-free open-addressing table the
# concurrent scheduler used to swap in, and the interface it hid behind,
# stay deleted.
if grep -rnE 'casTable|casPackOrder|casTombstone|newCASTable' internal/; then
    echo "the CAS mapping table is back: the paper table serves both schedulers (see the matches above)" >&2
    exit 1
fi
if grep -rnE 'type +mapper +interface' --include='*.go' --exclude='*_test.go' internal/kernel; then
    echo "a mapper interface is back in internal/kernel: the kernel has one *mappingTable (see the matches above)" >&2
    exit 1
fi

# Every fault reaches its manager alone — one fault, one upcall, one resolve,
# on both schedulers — so the vectored delivery path, the manager's
# classify/group pipeline and the serial scheduler's per-delivery scratch
# stack stay deleted.
if grep -rnE 'processFaultRun|faultRunLen|replyRun|faultScratch|vecFaults|vecClass|vecSeen|vecMembers|VectoredFaults' --include='*.go' --exclude='*_test.go' internal/; then
    echo "a vectored-delivery mechanism is back: every fault is delivered alone (see the matches above)" >&2
    exit 1
fi
# A manager's deliveries are serialized by the mutex on its record
# (managerCell.handling) on a concurrent kernel and by the one driving
# goroutine on a serial one, through the same path: the flat-combining lane
# (its ring, combining token, drain batch and pooled reply channels) stays
# deleted, and so do the ring methods only it used.
if grep -rnE '\b(drainCells|laneDrainBatch|laneRingCap|laneOf|PopMany)\b|^type +lane\b' --include='*.go' --exclude='*_test.go' internal/; then
    echo "a flat-combining lane mechanism is back: a manager's deliveries are serialized by a mutex on its record (see the matches above)" >&2
    exit 1
fi

# §3.1 splits mechanism from policy: the kernel moves frames and flags as it
# is told, so non-test internal/kernel imports no manager, policy, storage
# or market package of this module — only phys and sim. (It no longer
# queues deliveries, so internal/plane is not among them.)
kernel_imports=$(go list -f '{{join .Imports "\n"}}' ./internal/kernel)
if policy_imports=$(grep '^epcm/' <<<"$kernel_imports" | grep -vxE 'epcm/internal/(phys|sim)'); then
    echo "$policy_imports"
    echo "internal/kernel imports a package beyond phys and sim (see above): policy lives outside the kernel" >&2
    exit 1
fi

# A page entry is an 8-byte frame number stored in place in the page store:
# no per-page entry box or frame-pointer slice comes back into the kernel.
if grep -rnE '\[\]\*pageEntry|\[\]\*phys\.Frame' --include='*.go' --exclude='*_test.go' internal/kernel; then
    echo "a boxed page entry or frame-pointer slice is back in internal/kernel: a page is its first frame's PFN (see the matches above)" >&2
    exit 1
fi

# One body applies every migration (moveRun, kernel/batch.go); the per-page
# and whole-extent bodies, the two extra coalesce/split spellings and the
# time-shard binding no production path reached stay deleted.
if grep -rnE '\b(movePage|moveExtent|MigrateCoalescedBatch|MigrateSplitBatch|BindTimeShard|tickShard)\b' internal/; then
    echo "a deleted migrate body, spelling or time-shard binding is back (see the matches above)" >&2
    exit 1
fi
# A kernel page is one frame: the extent plane (kernel/superpage.go,
# manager/super.go) is the one way a mapping covers more. Frames-per-page
# segments, the coalesce/split calls that filled and emptied them, their
# page-size error and the lone-run source interface stay deleted.
if grep -rnE '\b(MigrateCoalesced|MigrateSplit|fpp|FramesAt|FramesPerPage|ErrPageSizeMismatch|ContiguousSource)\b' --include='*.go' --exclude='*_test.go' internal/; then
    echo "a second large-page mechanism is back: a page is one frame, and extents are the large pages (see the matches above)" >&2
    exit 1
fi

# Table 4 runs on one time engine, every manager maps pages read-write and
# retries after a fixed 1 ms backoff: the engine flag and the two knobs no
# caller set stay gone. (Functions need no grep here: the unlinked gate
# below fails on any that no binary reaches.)
if grep -rnE '\bShardedTime\b|"timeengine"|\bMapFlags\b|\bRetryBackoff\b' --include='*.go' internal/ cmd/ examples/ epcm.go; then
    echo "a deleted time-engine switch or manager knob is back (see the matches above)" >&2
    exit 1
fi

# A manager is specialized through one Backing, whose Fill is the page-fill
# routine every page-in runs, and one replacement Policy over every page it
# holds: the Config fill, victim-selection and fault-observer hooks and the
# per-segment policy binding stay gone. (A segment that needs a policy of
# its own gets a manager of its own.)
if grep -rnE '\b(SelectVictim|SetSegmentPolicy|MRUVictim|OnFault)\b|\bOwned\(' --include='*.go' internal/ cmd/ examples/ epcm.go; then
    echo "a deleted manager hook or per-segment policy is back (see the matches above)" >&2
    exit 1
fi

# NewPolicy builds its policies from a fixed table (clock, lfu, random in
# internal/manager/policy.go): LRU, FIFO, MGLRU and S3-FIFO were best on no
# row of the policy sweep and left with the open registry. A manager that
# wants any other policy sets Config.Policy.
if grep -rnE 'RegisterPolicy|NewFIFOPolicy|NewLRUPolicy|NewMGLRUPolicy|NewS3FIFOPolicy|\bpageList\b' --include='*.go' --exclude='*_test.go' internal/ cmd/ examples/ epcm.go; then
    echo "a policy registry or replacement policy deleted for winning no sweep row is back (see the matches above)" >&2
    exit 1
fi

# Table 4's locks are slots of db.System — the fixed four as fields, one per
# account page in a slice indexed by page — so db.go names no lock by string
# and looks none up; names live on only in the keyed spelling of the lock
# tests (keyedLocks in internal/db/locks_test.go).
if grep -nE 'pageLockNames|lockFor\(|map\[string\]\*lock' internal/db/db.go; then
    echo "internal/db/db.go names a lock by string again: a lock is a slot of System (see the matches above)" >&2
    exit 1
fi
# Series.Percentile sorts its samples with slices.Sort: no closure-driven
# sort.Slice in non-test internal/sim.
if grep -rnE 'sort\.Slice' --include='*.go' --exclude='*_test.go' internal/sim; then
    echo "non-test internal/sim calls sort.Slice: use slices.Sort (see the matches above)" >&2
    exit 1
fi
# A segment's mu is taken only through Segment.lock/unlock (and unlock's
# out-of-line unlockMu), which take it under the concurrent scheduler alone:
# the serial kernel's mapping table and TLB are unsynchronized anyway. No
# other non-test internal/kernel function locks or unlocks a .mu directly;
# the registry's k.mu and mgrMu are not segment locks, and a manager
# record's mutex is named handling, so it never reads as one.
seg_mu=$(awk '/^func /{fn=$0}
    /\.mu\.(Lock|Unlock)\(\)/ && !/(^|[^A-Za-z0-9_.])k\.mu\./ &&
    fn !~ /^func \(s \*Segment\) (lock|unlock|unlockMu)\(\)/ {print FILENAME ":" FNR ": " $0}' \
    $(find internal/kernel -name '*.go' ! -name '*_test.go'))
if [ -n "$seg_mu" ]; then
    echo "$seg_mu"
    echo "internal/kernel locks a segment's mu directly: use s.lock()/s.unlock(), which skip it on a serial kernel (see the matches above)" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== unlinked functions are named =="
# Reachability is what the linker reports: scripts/unlinked.sh lists every
# function of internal/ and epcm.go that none of the ten binaries links, and
# scripts/unlinked.txt names each with its reason — a paper section, a test
# reference, a bench pin or the facade. A new unlinked function fails here
# until it is deleted or named; a listed one that is now linked or deleted
# fails until its line goes.
unlinked=$(scripts/unlinked.sh)
listed=$(grep -v '^#' scripts/unlinked.txt)
if untagged=$(awk '$2 != "test-reference" && $2 != "bench-pin" && $2 != "facade" && !($2 == "paper" && $3 ~ /^§/)' <<<"$listed") &&
    [[ -n "$untagged" ]]; then
    echo "scripts/unlinked.txt lines without a reason (paper §N, test-reference, bench-pin or facade):" >&2
    echo "$untagged" >&2
    exit 1
fi
if ! diff <(awk '{ print $1 }' <<<"$listed") - <<<"$unlinked"; then
    echo "scripts/unlinked.txt is stale: '<' is listed but now linked or deleted, '>' is unlinked and unnamed" >&2
    exit 1
fi

echo "== inlining budget: page store, mapping table, clock =="
# The fault path and the page operations probe the page store per page
# through get, has and del; losing their inlining costs extent about 6 %.
# Range probes sit beside them in pagestore.go; these three must still inline.
# The mapping table's slot compare and key packer run on every probe,
# insert and remove (every MigratePages page twice): they must inline too.
inl=$(go build -gcflags=-m ./internal/kernel 2>&1)
for fn in '\(\*pageStore\)\.get' '\(\*pageStore\)\.has' '\(\*pageStore\)\.del' '\(\*hashSlot\)\.holds' packKey; do
    if ! grep -qE "can inline $fn\$" <<<"$inl"; then
        echo "${fn//\\/} no longer inlines: go build -gcflags=-m=2 ./internal/kernel says why" >&2
        exit 1
    fi
done
# A serial kernel's clock and counters are plain words (sim.Striped until
# Share): each charge is one branch and an add only while these inline.
inl=$(go build -gcflags=-m ./internal/sim 2>&1)
for fn in '\(\*Clock\)\.Advance' '\(\*Clock\)\.AdvanceOn' '\(\*Striped\)\.Add'; do
    if ! grep -qE "can inline $fn\$" <<<"$inl"; then
        echo "${fn//\\/} no longer inlines: go build -gcflags=-m=2 ./internal/sim says why" >&2
        exit 1
    fi
done

echo "== examples: one way in, output pinned =="
go build ./examples/...
# Every example is a program an outside user could write: it imports the
# public epcm package and the standard library, nothing under internal/.
example_imports=$(go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./examples/...)
if grep -E '(^|[: ])epcm/internal/' <<<"$example_imports"; then
    echo "an example imports epcm/internal/... (see above): examples run on the public epcm API alone" >&2
    exit 1
fi
# Each example is deterministic: its stdout and exit status at default flags
# are pinned in examples/<name>/testdata/stdout.golden (the last line is the
# exit status), on one core and on eight.
examples_bin=$(mktemp -d)
trap 'rm -rf "$examples_bin"' EXIT
for dir in examples/*/; do
    name=$(basename "$dir")
    go build -o "$examples_bin/$name" "./$dir"
    for procs in 1 8; do
        status=0
        GOMAXPROCS=$procs "$examples_bin/$name" > "$examples_bin/out" || status=$?
        echo "exit $status" >> "$examples_bin/out"
        if ! diff "$dir/testdata/stdout.golden" "$examples_bin/out"; then
            echo "examples/$name at GOMAXPROCS=$procs differs from its stdout.golden (see the diff above)" >&2
            exit 1
        fi
    done
done
rm -rf "$examples_bin"

echo "== bench module (vet + self-test against this tree's internal/) =="
go vet -C bench ./...
go test -C bench ./...

echo "== go test -race =="
go test -race ./...

echo "== chaos suite (fault injection + shared structure hammers, -race) =="
go test -race -run Chaos -count=1 ./internal/core ./internal/spcm ./internal/kernel ./internal/manager ./internal/sim

echo "== fuzz smoke (10s per target) =="
# Minimizing a new input takes up to 60 s by default, which a 10 s budget
# never outlasts: a target that finds one stops executing. Every target
# caps minimization at 1 s so it fuzzes for its whole budget.
go test -run='^$' -fuzz='^FuzzMappingTable$' -fuzztime=10s -fuzzminimizetime=1s ./internal/kernel
go test -run='^$' -fuzz='^FuzzTLB$' -fuzztime=10s -fuzzminimizetime=1s ./internal/kernel
go test -run='^$' -fuzz='^FuzzExtentTable$' -fuzztime=10s -fuzzminimizetime=1s ./internal/kernel
go test -run='^$' -fuzz='^FuzzRestore$' -fuzztime=10s -fuzzminimizetime=1s ./internal/kernel
go test -run='^$' -fuzz='^FuzzBatchDisjoint$' -fuzztime=10s -fuzzminimizetime=1s ./internal/kernel
go test -run='^$' -fuzz='^FuzzKernelOps$' -fuzztime=10s -fuzzminimizetime=1s ./internal/kernel
go test -run='^$' -fuzz='^FuzzUIO$' -fuzztime=10s -fuzzminimizetime=1s ./internal/uio
go test -run='^$' -fuzz='^FuzzMailbox$' -fuzztime=10s -fuzzminimizetime=1s ./internal/plane
go test -run='^$' -fuzz='^FuzzPolicy$' -fuzztime=10s -fuzzminimizetime=1s ./internal/manager
go test -run='^$' -fuzz='^FuzzSlotLedger$' -fuzztime=10s -fuzzminimizetime=1s ./internal/manager
go test -run='^$' -fuzz='^FuzzEventHeap$' -fuzztime=10s -fuzzminimizetime=1s ./internal/sim
go test -run='^$' -fuzz='^FuzzClock$' -fuzztime=10s -fuzzminimizetime=1s ./internal/sim
go test -run='^$' -fuzz='^FuzzLockManager$' -fuzztime=10s -fuzzminimizetime=1s ./internal/db
go test -run='^$' -fuzz='^FuzzTable4Machine$' -fuzztime=10s -fuzzminimizetime=1s ./internal/db
go test -run='^$' -fuzz='^FuzzStore$' -fuzztime=10s -fuzzminimizetime=1s ./internal/storage

echo "== bench smoke (1 iteration) =="
go test -bench=Harness -benchtime=1x -run='^$' .
go test -bench=DeliveryPlane -benchtime=1x -run='^$' ./internal/experiments
go test -bench='BatchMigrate|TLB|MappingTable|CheckDisjoint|DeliverFault|Access' -benchtime=1x -run='^$' ./internal/kernel
go test -bench='LockReleaseAll|LockCycle|Table4' -benchtime=1x -run='^$' ./internal/db
go test -bench='MachineBoot|StockThenTouch' -benchtime=1x -run='^$' ./internal/manager
go test -bench='EventHeap|WindowBarrier|Clock' -benchtime=1x -run='^$' ./internal/sim
go test -bench='Store' -benchtime=1x -run='^$' ./internal/storage

golden_tmp=$(mktemp)
trap 'rm -f "$golden_tmp"' EXIT

echo "== golden output: three arms, then the sweeps =="
# Every arm must reproduce the checked-in tables byte for byte: the
# scheduler and the superpage switch change how the simulation runs, never
# what it computes.
for arm in "" "-sched concurrent" "-super"; do
    echo "   reproduce $arm"
    # shellcheck disable=SC2086 # $arm is a flag and its value, split on purpose
    go run ./cmd/reproduce $arm > "$golden_tmp"
    diff internal/experiments/testdata/reproduce.golden "$golden_tmp"
done
# The tables run their independent simulations side by side (Table 4's
# configurations, Tables 2-3's calibrations), so which worker runs what, and
# in what interleaving, changes from run to run and with the core count; the
# bytes must not. The default arm runs again on one core and on eight.
for procs in 1 8; do
    echo "   GOMAXPROCS=$procs reproduce"
    GOMAXPROCS=$procs go run ./cmd/reproduce > "$golden_tmp"
    diff internal/experiments/testdata/reproduce.golden "$golden_tmp"
done
# The sweeps print model numbers only, so they have a golden file too:
# Table 1's section of reproduce.golden (its first 9 lines), then the three
# sweeps in table order. A missed gate is a non-zero exit.
# Every column is exact on both schedulers, so a second run on one core
# must print the same bytes: output that depends on the core count fails.
for procs in "" 1; do
    echo "   ${procs:+GOMAXPROCS=$procs }reproduce -table 1 -sweep all"
    GOMAXPROCS=$procs go run ./cmd/reproduce -table 1 -sweep all > "$golden_tmp"
    head -n 9 internal/experiments/testdata/reproduce.golden |
        cat - internal/experiments/testdata/sweeps.golden | diff - "$golden_tmp"
done

echo "== tracked numbers: non-test Go lines, root module; unlinked functions =="
# The counts ROADMAP tracks, and the line count's split by package, so a
# PR's log carries the numbers instead of a hand count.
echo "$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l) lines," \
    "$(grep -c . <<<"$unlinked") unlinked functions"
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' |
    while read -r f; do echo "$(dirname "$f") $(wc -l < "$f")"; done |
    awk '{ n[$1] += $2 } END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -rn

echo "All checks passed."
