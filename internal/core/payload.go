// Package core implements the paper's primary contribution: Protocol 2,
// the randomized transaction commit protocol (§3.2), together with a
// convenience constructor for Protocol 1 (the shared-coin agreement
// subroutine of §3.1, whose machinery lives in internal/agreement).
//
// Protocol 2 in brief: the coordinator (processor 0) flips n coins and
// floods them in GO messages; every processor relays GO on first contact;
// a processor that fails to collect all n GO messages within 2K clock
// ticks moves its vote to abort; votes are exchanged with another 2K-tick
// timeout; the processor then runs Protocol 1 with input 1 iff it saw n
// commit votes, using the coordinator's coins as the shared coin list, and
// commits iff Protocol 1 yields 1. GO is piggybacked on every message so
// that any contact wakes a sleeping processor.
package core

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/types"
)

// GoMsg is the paper's GO message: the coordinator's coin flips, relayed
// by every processor as "I am participating in the protocol".
type GoMsg struct {
	Coins []types.Value
}

// Kind implements types.Payload.
func (GoMsg) Kind() string { return "tc.go" }

// String implements fmt.Stringer.
func (m GoMsg) String() string { return fmt.Sprintf("GO(%d coins)", len(m.Coins)) }

// SizeBits implements types.Sized: tag + 16-bit count + one bit per coin.
// Remark 3's trade-off lives here: more coins, bigger GO messages.
func (m GoMsg) SizeBits() int { return 8 + 16 + len(m.Coins) }

// VoteMsg carries a processor's vote: 1 to commit, 0 to abort.
type VoteMsg struct {
	Val types.Value
}

// Kind implements types.Payload.
func (VoteMsg) Kind() string { return "tc.vote" }

// String implements fmt.Stringer.
func (m VoteMsg) String() string { return fmt.Sprintf("VOTE(%v)", m.Val) }

// SizeBits implements types.Sized: tag + vote bit.
func (VoteMsg) SizeBits() int { return 8 + 1 }

// Piggyback wraps any payload with the GO coin flips, implementing the
// paper's "GO messages are piggybacked on every message sent, including
// those of Protocol 1". Receipt of a Piggyback wakes a sleeping processor
// (it has now "received a Go message") but does not count toward the n
// explicit GO relays awaited at instruction 4.
type Piggyback struct {
	Inner types.Payload
	Coins []types.Value
}

// Kind implements types.Payload, delegating to the wrapped payload so that
// message statistics attribute traffic to the protocol that caused it.
func (p Piggyback) Kind() string {
	if p.Inner == nil {
		return "tc.piggyback"
	}
	return p.Inner.Kind()
}

// PiggybackInner exposes the wrapped payload for structural detection by
// content-aware ablation schedulers (see adversary.KindHold).
func (p Piggyback) PiggybackInner() types.Payload { return p.Inner }

// SizeBits implements types.Sized: the inner payload plus the piggybacked
// coin list (count + bits).
func (p Piggyback) SizeBits() int { return types.SizeOf(p.Inner) + 16 + len(p.Coins) }

// Unwrap returns the protocol payload inside m, stripping a Piggyback
// layer if present, and the piggybacked coins (nil if none).
func Unwrap(p types.Payload) (types.Payload, []types.Value) {
	if pb, ok := p.(Piggyback); ok {
		return pb.Inner, pb.Coins
	}
	return p, nil
}

// piggybackRuns wraps msgs' payloads in place with the GO coins. All n
// messages of a broadcast share one payload value, so it allocates one
// Piggyback box per run of one payload (see SamePayload), not one per
// message.
func piggybackRuns(msgs []types.Message, coins []types.Value) {
	var lastInner, lastWrapped types.Payload
	for i := range msgs {
		p := msgs[i].Payload
		if i == 0 || !SamePayload(p, lastInner) {
			lastInner = p
			lastWrapped = Piggyback{Inner: p, Coins: coins}
		}
		msgs[i].Payload = lastWrapped
	}
}

// SamePayload reports whether a and b are one payload value repeated, as
// the n messages of one broadcast are: scalar payloads compare by value,
// and slice-bearing ones by backing-array identity — never by interface
// equality, which panics on slice-bearing types. A false negative only
// costs a second box, so payload types it does not know report false.
// Wrappers use it to box one envelope per broadcast instead of one per
// message.
func SamePayload(a, b types.Payload) bool {
	switch x := a.(type) {
	case Piggyback:
		y, ok := b.(Piggyback)
		return ok && sameSlice(x.Coins, y.Coins) && SamePayload(x.Inner, y.Inner)
	case GoMsg:
		y, ok := b.(GoMsg)
		return ok && sameSlice(x.Coins, y.Coins)
	case VoteMsg, agreement.ReportMsg, agreement.ProposalMsg, agreement.DecidedMsg:
		// Comparable types: == compares the dynamic types first, so a
		// slice-bearing b of another type cannot make it panic.
		return a == b
	case BatchVoteMsg:
		y, ok := b.(BatchVoteMsg)
		return ok && sameSlice(x.Vals, y.Vals)
	case agreement.VecReportMsg:
		y, ok := b.(agreement.VecReportMsg)
		return ok && x.Stage == y.Stage && sameSlice(x.Vals, y.Vals)
	case agreement.VecProposalMsg:
		y, ok := b.(agreement.VecProposalMsg)
		return ok && x.Stage == y.Stage && sameSlice(x.Vals, y.Vals) && sameSlice(x.Bots, y.Bots)
	case agreement.VecDecidedMsg:
		y, ok := b.(agreement.VecDecidedMsg)
		return ok && sameSlice(x.Vals, y.Vals)
	}
	return false
}

// sameSlice reports slice identity: both nil, or the same length and the
// same first element.
func sameSlice[T any](a, b []T) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b) && (a == nil) == (b == nil)
	}
	return len(a) == len(b) && &a[0] == &b[0]
}
