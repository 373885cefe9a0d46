package core

// BatchCommit is Protocol 2 generalized to decide a vector of outcomes
// for a batch of B concurrent transactions in one run: one coin flood,
// one (vectored) vote exchange, one (vectored) Protocol 1 execution.
// Per-transaction semantics are preserved element-wise — element i
// commits iff every processor's vote vector has commit at i and the
// embedded vector agreement decides 1 there — so each transaction gets
// exactly the guarantee Theorem 11 gives a scalar run (project every
// message onto element i).
//
// The cost model is the whole point: a scalar instance spends one GO
// round, one vote round, and ~3 expected agreement stages per
// transaction; a batch spends the same rounds once for all B.

import (
	"fmt"
	"slices"

	"repro/internal/agreement"
	"repro/internal/types"
)

// BatchVoteMsg carries a processor's vote vector for a batch: one Value
// per transaction, 1 to commit.
type BatchVoteMsg struct {
	Vals []types.Value
}

// Kind implements types.Payload.
func (BatchVoteMsg) Kind() string { return "tc.bvote" }

// String implements fmt.Stringer.
func (m BatchVoteMsg) String() string { return fmt.Sprintf("BVOTE([%d])", len(m.Vals)) }

// SizeBits implements types.Sized: tag + 16-bit count + one bit per vote.
func (m BatchVoteMsg) SizeBits() int { return 8 + 16 + len(m.Vals) }

// BatchConfig parameterizes a batched Protocol 2 machine.
type BatchConfig struct {
	ID types.ProcID
	N  int // total processors
	T  int // fault tolerance; requires N > 2T
	K  int // the timing constant of §2.2
	// Votes is this processor's initial vote vector (1 = commit); its
	// length fixes the batch width for every participant.
	Votes []types.Value
	// CoinFactor c makes the coordinator flip c*n coins instead of n.
	CoinFactor int
	// Gadget enables the agreement termination gadget.
	Gadget bool
	// Coordinator selects which processor floods GO. Default 0.
	Coordinator types.ProcID
}

// Validate checks the configuration.
func (c BatchConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("core: N must be positive, got %d", c.N)
	}
	if c.T < 0 || c.N <= 2*c.T {
		return fmt.Errorf("core: need N > 2T, got N=%d T=%d", c.N, c.T)
	}
	if int(c.ID) < 0 || int(c.ID) >= c.N {
		return fmt.Errorf("core: id %d out of range [0,%d)", c.ID, c.N)
	}
	if c.K < 1 {
		return fmt.Errorf("core: K must be >= 1, got %d", c.K)
	}
	if len(c.Votes) == 0 {
		return fmt.Errorf("core: empty batch vote vector")
	}
	for i, v := range c.Votes {
		if !v.Valid() {
			return fmt.Errorf("core: invalid vote %d at element %d", v, i)
		}
	}
	if c.CoinFactor < 0 {
		return fmt.Errorf("core: negative coin factor %d", c.CoinFactor)
	}
	if int(c.Coordinator) < 0 || int(c.Coordinator) >= c.N {
		return fmt.Errorf("core: coordinator %d out of range [0,%d)", c.Coordinator, c.N)
	}
	return nil
}

// BatchCommit is the batched Protocol 2 state machine. It follows the
// types.Machine step contract (returned slices are reusable scratch).
type BatchCommit struct {
	cfg   BatchConfig
	b     int // batch width
	st    state
	clock int

	votes []types.Value // current vote vector (GO timeout demotes all)
	coins []types.Value

	// goSenders and voteVecs hold each sender once, in arrival order.
	goSenders []types.ProcID
	voteVecs  []senderVotes
	waitClock int

	sub           *agreement.VectorMachine
	subStartClock int
	preAgreement  []types.Message

	halted bool

	out []types.Message // Step's scratch; AppendStep callers bring their own
}

// senderVotes is one sender's vote vector.
type senderVotes struct {
	from types.ProcID
	vals []types.Value
}

var _ types.Machine = (*BatchCommit)(nil)

// NewBatch builds a batched Protocol 2 machine.
func NewBatch(cfg BatchConfig) (*BatchCommit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CoinFactor == 0 {
		cfg.CoinFactor = 1
	}
	return &BatchCommit{
		cfg:       cfg,
		b:         len(cfg.Votes),
		votes:     append([]types.Value(nil), cfg.Votes...),
		goSenders: make([]types.ProcID, 0, cfg.N),
		voteVecs:  make([]senderVotes, 0, cfg.N),
	}, nil
}

// ID implements types.Machine.
func (c *BatchCommit) ID() types.ProcID { return c.cfg.ID }

// Clock implements types.Machine.
func (c *BatchCommit) Clock() int { return c.clock }

// Width returns the batch width B.
func (c *BatchCommit) Width() int { return c.b }

// Decision implements types.Machine with the batch conjunction: decided
// once every element has, with value 1 iff every element committed.
// Engines with decision-based stop conditions treat the batch as one
// unit; per-transaction outcomes come from OutcomeAt.
func (c *BatchCommit) Decision() (types.Value, bool) {
	if c.sub == nil || c.sub.DecidedCount() < c.b {
		return 0, false
	}
	all := types.V1
	for i := 0; i < c.b; i++ {
		if v, _ := c.sub.DecidedAt(i); v != types.V1 {
			all = types.V0
		}
	}
	return all, true
}

// OutcomeAt returns element i's transaction decision, if decided.
// Elements decide individually; callers poll as the batch progresses.
func (c *BatchCommit) OutcomeAt(i int) (types.Decision, bool) {
	if c.sub == nil {
		return types.DecisionNone, false
	}
	v, ok := c.sub.DecidedAt(i)
	if !ok {
		return types.DecisionNone, false
	}
	return types.DecisionOf(v), true
}

// DecidedCount returns how many elements have decided.
func (c *BatchCommit) DecidedCount() int {
	if c.sub == nil {
		return 0
	}
	return c.sub.DecidedCount()
}

// Halted implements types.Machine.
func (c *BatchCommit) Halted() bool { return c.halted }

// Coins returns the shared coin list once known, else nil.
func (c *BatchCommit) Coins() []types.Value { return c.coins }

// Agreement exposes the embedded vector agreement once started.
func (c *BatchCommit) Agreement() *agreement.VectorMachine { return c.sub }

// Violation reports a fault-model violation recorded by the embedded
// agreement machine, if any.
func (c *BatchCommit) Violation() error {
	if c.sub == nil {
		return nil
	}
	return c.sub.Violation()
}

// Step implements types.Machine. The control flow is Protocol 2's,
// unchanged: GO flood → 2K-tick GO wait → vectored vote exchange with a
// 2K-tick timeout → vector agreement, with GO piggybacked on everything.
func (c *BatchCommit) Step(received []types.Message, rnd types.Rand) []types.Message {
	c.out = c.AppendStep(c.out[:0], received, rnd)
	return c.out
}

// AppendStep is Step with the step's sends appended to dst rather than
// to the machine's own scratch, so a caller stepping many machines
// gathers their output in one buffer it owns and reuses.
func (c *BatchCommit) AppendStep(dst, received []types.Message, rnd types.Rand) []types.Message {
	c.clock++
	if c.halted {
		return dst
	}

	for i := range received {
		inner, pbCoins := Unwrap(received[i].Payload)
		if pbCoins != nil && c.coins == nil {
			c.coins = pbCoins
		}
		from := received[i].From
		switch p := inner.(type) {
		case GoMsg:
			if c.coins == nil {
				c.coins = p.Coins
			}
			if !slices.Contains(c.goSenders, from) {
				c.goSenders = append(c.goSenders, from)
			}
		case BatchVoteMsg:
			// A wrong-width vector carries no evidence for this batch.
			if len(p.Vals) != c.b || c.votedBy(from) {
				continue
			}
			c.voteVecs = append(c.voteVecs, senderVotes{from: from, vals: p.Vals})
		case agreement.VecReportMsg, agreement.VecProposalMsg, agreement.VecDecidedMsg:
			m := received[i]
			m.Payload = inner
			if c.sub == nil {
				c.preAgreement = append(c.preAgreement, m)
			} else {
				c.sub.Deliver(m)
			}
		}
	}

	out := dst
	for progress := true; progress; {
		progress = false
		switch c.st {
		case stInit:
			if c.cfg.ID == c.cfg.Coordinator {
				// Instruction 1: flip c*n coins, broadcast GO once for the
				// whole batch.
				c.coins = rnd.Bits(c.cfg.CoinFactor * c.cfg.N)
				out = c.broadcast(out, GoMsg{Coins: c.coins}, false)
				c.waitClock = c.clock
				c.st = stWaitAllGo
			} else {
				c.st = stWaitGo
			}
			progress = true
		case stWaitGo:
			// Instruction 2–3: on first contact, relay GO.
			if c.coins != nil {
				out = c.broadcast(out, GoMsg{Coins: c.coins}, false)
				c.waitClock = c.clock
				c.st = stWaitAllGo
				progress = true
			}
		case stWaitAllGo:
			// Instruction 4–7: n GOs, or 2K ticks then demote every vote
			// in the vector to abort (the timed-out processor cannot tell
			// which transactions its silent peers know about).
			done := len(c.goSenders) >= c.cfg.N
			if !done && c.clock-c.waitClock >= 2*c.cfg.K {
				for i := range c.votes {
					c.votes[i] = types.V0
				}
				done = true
			}
			if done {
				out = c.broadcast(out, BatchVoteMsg{Vals: c.votes}, true)
				c.waitClock = c.clock
				c.st = stWaitVotes
				progress = true
			}
		case stWaitVotes:
			// Instruction 8–12, element-wise: with all n vote vectors,
			// input[i] = 1 iff every vector commits at i; on timeout the
			// whole input vector is 0.
			var input []types.Value
			done := false
			if len(c.voteVecs) >= c.cfg.N {
				input = make([]types.Value, c.b)
				for i := range input {
					input[i] = types.V1
				}
				for _, vec := range c.voteVecs {
					for i, v := range vec.vals {
						if v != types.V1 {
							input[i] = types.V0
						}
					}
				}
				done = true
			} else if c.clock-c.waitClock >= 2*c.cfg.K {
				input = make([]types.Value, c.b)
				done = true
			}
			if done {
				out = c.startAgreement(out, input, rnd)
				c.st = stAgreement
			}
		case stAgreement:
			start := len(out)
			out = c.sub.AppendStep(out, nil, rnd)
			c.wrapAllBatch(out[start:])
			if c.sub.Halted() {
				c.halted = true
			}
		}
	}
	return out
}

// votedBy reports whether from's vote vector has already arrived.
func (c *BatchCommit) votedBy(from types.ProcID) bool {
	for _, v := range c.voteVecs {
		if v.from == from {
			return true
		}
	}
	return false
}

// startAgreement builds the vector agreement machine and feeds it any
// buffered early messages.
func (c *BatchCommit) startAgreement(out []types.Message, input []types.Value, rnd types.Rand) []types.Message {
	sub, err := agreement.NewVector(agreement.VectorConfig{
		ID:      c.cfg.ID,
		N:       c.cfg.N,
		T:       c.cfg.T,
		Initial: input,
		Coins:   agreement.ListCoin{Coins: c.coins},
		Gadget:  c.cfg.Gadget,
	})
	if err != nil {
		// Config was validated at NewBatch; an error here is a programming
		// bug, surfaced by halting without deciding (visible to tests).
		c.halted = true
		return out
	}
	c.sub = sub
	c.subStartClock = c.clock
	start := len(out)
	out = sub.AppendStep(out, c.preAgreement, rnd)
	c.preAgreement = nil
	c.wrapAllBatch(out[start:])
	return out
}

// wrapAllBatch applies GO piggybacking in place to outgoing agreement
// broadcasts.
func (c *BatchCommit) wrapAllBatch(msgs []types.Message) {
	if c.coins != nil {
		piggybackRuns(msgs, c.coins)
	}
}

// broadcast appends a send of p to all processors, optionally
// piggybacking GO.
func (c *BatchCommit) broadcast(out []types.Message, p types.Payload, piggyback bool) []types.Message {
	if piggyback && c.coins != nil {
		p = Piggyback{Inner: p, Coins: c.coins}
	}
	return types.AppendBroadcast(out, c.cfg.ID, c.cfg.N, p)
}
