package txn

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/types"
)

// bundleChecker wraps a manager and fails the test if any step sends more
// than one message to a peer or anything but a Bundle.
type bundleChecker struct {
	*Manager
	t     *testing.T
	steps int
}

func (b *bundleChecker) Step(received []types.Message, rnd types.Rand) []types.Message {
	out := b.Manager.Step(received, rnd)
	seen := make(map[types.ProcID]bool, len(out))
	for _, msg := range out {
		if seen[msg.To] {
			b.t.Fatalf("node %d step %d: two messages to %d", b.ID(), b.steps, msg.To)
		}
		seen[msg.To] = true
		bundle, ok := msg.Payload.(Bundle)
		if !ok || len(bundle.Items) == 0 {
			b.t.Fatalf("node %d step %d: payload %#v is not a non-empty bundle", b.ID(), b.steps, msg.Payload)
		}
	}
	b.steps++
	return out
}

// TestStepSendsOneBundlePerPeer runs singles and batches from several
// coordinators at once through the simulator: every manager step sends
// at most one message per destination, and every transaction decides.
func TestStepSendsOneBundlePerPeer(t *testing.T) {
	const n = 5
	managers := make([]*Manager, n)
	machines := make([]types.Machine, n)
	for p := 0; p < n; p++ {
		mgr, err := NewManager(Config{ID: types.ProcID(p), N: n, K: 3, InboxShards: 2, RetireAfter: 6})
		if err != nil {
			t.Fatal(err)
		}
		managers[p] = mgr
		machines[p] = &bundleChecker{Manager: mgr, t: t}
	}
	var ids []ID
	for i := 0; i < 12; i++ {
		id := ID(fmt.Sprintf("s-%d", i))
		if err := managers[i%n].Begin(id, true); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for b := 0; b < 3; b++ {
		members := []ID{ID(fmt.Sprintf("b%d-0", b)), ID(fmt.Sprintf("b%d-1", b))}
		if err := managers[b].BeginBatch(BatchID(fmt.Sprintf("b%d", b)), members, []bool{true, true}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, members...)
	}
	res, err := sim.Run(sim.Config{
		K: 3, Machines: machines, Adversary: &adversary.RoundRobin{},
		Seeds: rng.NewCollection(7, n), MaxSteps: 100_000,
		StopWhen: func(*sim.Result) bool {
			for _, mgr := range managers {
				if mgr.Active() != 0 {
					return false
				}
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted {
		t.Fatal("managers did not retire every instance")
	}
	for p, mgr := range managers {
		for _, id := range ids {
			if d, ok := mgr.DecisionOf(id); !ok || d != types.DecisionCommit {
				t.Fatalf("node %d: %s decided %v (%v), want COMMIT", p, id, d, ok)
			}
		}
	}
}

// TestBundleKeepsPerPeerOrder bundles an interleaved output and routes the
// bundles into a receiver: each peer must see exactly the envelopes sent
// to it, in send order.
func TestBundleKeepsPerPeerOrder(t *testing.T) {
	const n = 3
	sender, err := NewManager(Config{ID: 0, N: n})
	if err != nil {
		t.Fatal(err)
	}
	var out []types.Message
	for i := 0; i < 20; i++ {
		var p types.Payload = Envelope{Txn: ID(fmt.Sprintf("t%d", i)), Inner: core.VoteMsg{Val: types.V1}}
		if i%4 == 0 {
			p = BatchEnvelope{Batch: BatchID(fmt.Sprintf("b%d", i)), Txns: []ID{"x"}, Inner: core.GoMsg{}}
		}
		out = append(out, types.Message{From: 0, To: types.ProcID((i * 7) % n), Payload: p})
	}
	bundles := sender.bundle(out)
	if len(bundles) != n {
		t.Fatalf("%d bundles for %d peers", len(bundles), n)
	}
	for to := types.ProcID(0); to < n; to++ {
		var want []types.Payload
		for _, msg := range out {
			if msg.To == to {
				want = append(want, msg.Payload)
			}
		}
		receiver, err := NewManager(Config{ID: to, N: n})
		if err != nil {
			t.Fatal(err)
		}
		msg := bundles[to]
		if msg.To != to || msg.From != 0 {
			t.Fatalf("bundle %d addressed %d->%d", to, msg.From, msg.To)
		}
		for _, it := range msg.Payload.(Bundle).Items {
			receiver.route(msg, it)
		}
		var got []types.Payload
		for _, r := range receiver.shards[0].recv {
			if r.From != 0 || r.To != to {
				t.Fatalf("routed message addressed %d->%d", r.From, r.To)
			}
			got = append(got, r.Payload)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("peer %d received\n%v\nwant\n%v", to, got, want)
		}
	}
	// The scratch counters are reset, so the next step groups afresh.
	if again := sender.bundle(out[:1]); len(again) != 1 || len(again[0].Payload.(Bundle).Items) != 1 {
		t.Fatalf("second bundling = %#v", again)
	}
}

// TestHaltedInstancesLeaveStepLoop: with retirement off, every decided
// instance sits in the halt queue, not the step loop, yet Active,
// Transactions and Halted still count it as held.
func TestHaltedInstancesLeaveStepLoop(t *testing.T) {
	const n = 3
	managers := make([]*Manager, n)
	machines := make([]types.Machine, n)
	for p := 0; p < n; p++ {
		mgr, err := NewManager(Config{ID: types.ProcID(p), N: n, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		managers[p], machines[p] = mgr, mgr
	}
	if err := managers[0].Begin("a", true); err != nil {
		t.Fatal(err)
	}
	if err := managers[1].BeginBatch("b", []ID{"b0", "b1"}, []bool{true, false}); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		K: 3, Machines: machines, Adversary: &adversary.RoundRobin{},
		Seeds: rng.NewCollection(3, n), MaxSteps: 100_000,
		StopWhen: func(*sim.Result) bool {
			for _, mgr := range managers {
				if !mgr.Halted() {
					return false
				}
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted {
		t.Fatal("managers never halted")
	}
	for p, mgr := range managers {
		sh := mgr.shards[0]
		if len(sh.order) != 0 || len(sh.border) != 0 {
			t.Fatalf("node %d steps %d singles and %d batches after halting", p, len(sh.order), len(sh.border))
		}
		if got := mgr.Active(); got != 2 {
			t.Fatalf("node %d Active = %d, want 2 (one single, one batch)", p, got)
		}
		if got := mgr.Transactions(); !reflect.DeepEqual(got, []ID{"a", "b0", "b1"}) {
			t.Fatalf("node %d Transactions = %v", p, got)
		}
	}
}
