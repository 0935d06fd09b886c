// Market: the SPCM's dram memory market (§2.4) with competing batch jobs.
//
// Each job earns an income of I drams per second and pays M·D·T drams to
// hold M megabytes for T seconds. A batch job saves up until it can afford
// a useful time slice of memory (querying the SPCM for the expected wait),
// runs, then releases its memory and goes quiescent — the paper's batch
// scheduling discipline. Incomes are the administrative policy: a job with
// twice the income gets twice the machine over time.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"epcm"
)

type job struct {
	name    string
	mgr     *epcm.Generic
	account *epcm.Account
	want    int           // pages per slice
	slice   time.Duration // how long a slice runs
	runs    int
	heldFor time.Duration
	running bool
	runEnd  time.Duration
}

func main() {
	minutes := flag.Int("minutes", 20, "simulated minutes")
	flag.Parse()

	policy := epcm.DefaultMarketPolicy()
	policy.FreeWhenUncontended = false // always charge: a busy machine
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 16 << 20, StoreData: false, Market: &policy})
	if err != nil {
		log.Fatal(err)
	}

	mkJob := func(name string, income float64, wantMB int, slice time.Duration) *job {
		mgr, account, err := sys.NewAppManager(epcm.ManagerConfig{Name: name}, income)
		if err != nil {
			log.Fatal(err)
		}
		return &job{name: name, mgr: mgr, account: account, want: wantMB * 256, slice: slice}
	}
	jobs := []*job{
		mkJob("simulation-A", 8, 8, 30*time.Second), // income 8 drams/s, wants 8 MB slices
		mkJob("simulation-B", 4, 8, 30*time.Second), // same appetite, half the income
		mkJob("small-C", 2, 2, 20*time.Second),      // modest job
	}

	end := time.Duration(*minutes) * time.Minute
	for sys.Clock.Now() < end {
		sys.Clock.Advance(time.Second)
		sys.SPCM.SettleAll()
		if _, err := sys.SPCM.Enforce(); err != nil {
			log.Fatal(err)
		}
		for _, j := range jobs {
			j.step(sys)
		}
	}

	fmt.Printf("after %v of contended operation (incomes 8 : 4 : 2 drams/s):\n\n", end)
	fmt.Printf("%-14s %8s %12s %12s %10s %10s\n", "Job", "Slices", "MB-seconds", "Rent paid", "Tax paid", "Balance")
	var totalMBs float64
	for _, j := range jobs {
		totalMBs += j.mbSeconds()
	}
	for _, j := range jobs {
		fmt.Printf("%-14s %8d %12.0f %12.1f %10.1f %10.1f\n",
			j.name, j.runs, j.mbSeconds(), j.account.RentPaid(), j.account.TaxPaid(), j.account.Balance())
	}
	fmt.Printf("\nmachine share: ")
	for i, j := range jobs {
		if i > 0 {
			fmt.Print(" : ")
		}
		fmt.Printf("%.0f%%", 100*j.mbSeconds()/totalMBs)
	}
	fmt.Println("  (income ratio 57% : 29% : 14%)")
}

func (j *job) mbSeconds() float64 {
	return j.heldFor.Seconds() * float64(j.want) / 256
}

// step advances the job's save-up-then-run state machine by one tick.
func (j *job) step(sys *epcm.System) {
	now := sys.Clock.Now()
	if j.running {
		j.heldFor += time.Second
		if now >= j.runEnd {
			// Slice over: page out and go quiescent (return the memory).
			if _, err := j.mgr.ReturnFreeFrames(j.mgr.FreeFrames()); err != nil {
				log.Fatal(err)
			}
			j.running = false
		}
		return
	}
	// Quiescent: wait until the slice is affordable, then request memory.
	if sys.SPCM.EstimateWait(j.account, j.want, j.slice) > 0 {
		return
	}
	got, err := sys.SPCM.RequestFrames(j.mgr, j.want, epcm.AnyFrame())
	if err != nil {
		log.Fatal(err)
	}
	if got < j.want/2 {
		// Not enough memory available right now; give back and retry later.
		if _, err := j.mgr.ReturnFreeFrames(got); err != nil {
			log.Fatal(err)
		}
		return
	}
	j.running = true
	j.runs++
	j.runEnd = now + j.slice
}
