package txn_test

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/adversary"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/types"
)

// steadyCluster is n persistent managers under one simulator engine,
// deciding batches one after another the way a long-lived service does:
// instances retire behind the traffic, and every buffer has long reached
// its working size.
type steadyCluster struct {
	managers []*txn.Manager
	eng      *sim.Engine
	adv      *adversary.RoundRobin
	view     *sim.View
	width    int
	batches  int
	decided  int // member decisions reported by OnOutcome, all nodes
	ids      []txn.ID
	votes    []bool
}

func newSteadyCluster(tb testing.TB, n, width int) *steadyCluster {
	tb.Helper()
	c := &steadyCluster{
		managers: make([]*txn.Manager, n),
		adv:      &adversary.RoundRobin{},
		width:    width,
		ids:      make([]txn.ID, width),
		votes:    make([]bool, width),
	}
	machines := make([]types.Machine, n)
	for p := range c.managers {
		mgr, err := txn.NewManager(txn.Config{
			ID: types.ProcID(p), N: n, K: 3,
			InboxShards: 8, RetireAfter: 16,
			OnOutcome: func(txn.Outcome) { c.decided++ },
		})
		if err != nil {
			tb.Fatal(err)
		}
		c.managers[p] = mgr
		machines[p] = mgr
	}
	for i := range c.votes {
		c.votes[i] = true
	}
	eng, err := sim.NewEngine(sim.Config{
		K: 3, Machines: machines, Adversary: c.adv,
		Seeds: rng.NewCollection(0x5eed, n),
	})
	if err != nil {
		tb.Fatal(err)
	}
	c.eng, c.view = eng, eng.View()
	return c
}

// decideBatch begins the next batch on the next coordinator in turn and
// applies simulator events until every member has decided on every node.
func (c *steadyCluster) decideBatch(tb testing.TB) {
	k := c.batches
	c.batches++
	prefix := "sb-" + strconv.Itoa(k)
	for i := range c.ids {
		c.ids[i] = txn.ID(prefix + "-" + strconv.Itoa(i))
	}
	if err := c.managers[k%len(c.managers)].BeginBatch(txn.BatchID(prefix), c.ids, c.votes); err != nil {
		tb.Fatal(err)
	}
	want := c.decided + c.width*len(c.managers)
	for steps := 0; c.decided < want; steps++ {
		if steps > 100_000 {
			tb.Fatalf("batch %d undecided after %d events", k, steps)
		}
		if err := c.eng.Apply(c.adv.Next(c.view)); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestBatchedManagerSteadyStateAllocBudget bounds what the batched
// manager path allocates per decided transaction once a cluster is warm:
// five persistent managers decide batches back to back under the
// simulator. Width 2 is near the mean batch occupancy of the closed-loop
// in-process service workload; width 16 weighs per-member costs more.
// Each budget is about 1.25x the figure measured when it was set, so a
// per-message allocation creeping back in fails it: width 2 measured
// ~11.7 KB and ~197 allocations per member, width 16 ~2.2 KB and ~25.5.
// Before step scratch was reused, broadcasts were wrapped once and a
// batch kept one record for all its members, the same runs allocated
// ~37.7 KB and ~351 allocations (width 2), ~6.4 KB and ~60 (width 16).
func TestBatchedManagerSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting wants an unloaded process")
	}
	for _, tc := range []struct {
		width, maxBytes, maxAllocs int
	}{
		{2, 14700, 247},
		{16, 2780, 32},
	} {
		const n, warm, batchN = 5, 50, 200
		c := newSteadyCluster(t, n, tc.width)
		for i := 0; i < warm; i++ {
			c.decideBatch(t)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < batchN; i++ {
			c.decideBatch(t)
		}
		runtime.ReadMemStats(&after)
		members := float64(batchN * tc.width)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / members
		allocs := float64(after.Mallocs-before.Mallocs) / members
		t.Logf("width %d, per decided member: %.0f B, %.1f allocs", tc.width, bytes, allocs)
		if bytes > float64(tc.maxBytes) {
			t.Errorf("width %d: %.0f B allocated per decided member, budget %d", tc.width, bytes, tc.maxBytes)
		}
		if allocs > float64(tc.maxAllocs) {
			t.Errorf("width %d: %.1f allocations per decided member, budget %d", tc.width, allocs, tc.maxAllocs)
		}
	}
}

// BenchmarkManagerSteadyBatches reports the steady-state cost of the
// batched manager path per decided transaction: one iteration is one
// batch decided on all five nodes of a warm cluster. Width 2 is near the
// mean batch occupancy of the closed-loop in-process service workload
// (~1.6 members); width 16 weighs the per-member costs more.
func BenchmarkManagerSteadyBatches(b *testing.B) {
	for _, width := range []int{2, 16} {
		b.Run("width="+strconv.Itoa(width), func(b *testing.B) {
			const n = 5
			c := newSteadyCluster(b, n, width)
			for i := 0; i < 20; i++ {
				c.decideBatch(b)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.decideBatch(b)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			members := float64(b.N * width)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/members, "B/decision")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/members, "allocs/decision")
		})
	}
}
