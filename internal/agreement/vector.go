package agreement

// Vector-outcome agreement: Protocol 1 run element-wise over a vector
// of values with one shared stage progression. Each message of a stage
// carries the sender's whole vector, so a batch of B concurrent
// transactions pays one report exchange and one proposal exchange per
// stage instead of B of them.
//
// Safety is inherited per element. Fix an element i and project every
// vector message onto its i-th component: the projected run is exactly
// a Protocol 1 execution for that element — the n−t waits are satisfied
// by the same sender sets, the majority and S-message rules are applied
// to the projected values, and the stage coin is the shared list coin
// for that stage. Theorem 11's agreement and validity therefore hold
// for every element independently. Termination is per element too: an
// element may decide at a different stage than its neighbors, so the
// machine tracks decision and return readiness element-wise and halts
// only when every element has returned (or a DECIDED vector arrives —
// the same gadget as the scalar machine, generalized to vectors).

import (
	"fmt"
	"slices"

	"repro/internal/types"
)

// VecReportMsg is the first exchange of a stage, vector form: the
// paper's (1, s, xp) where xp is now a vector of local values.
type VecReportMsg struct {
	Stage int
	Vals  []types.Value
}

// Kind implements types.Payload.
func (VecReportMsg) Kind() string { return "ag.vreport" }

// String implements fmt.Stringer.
func (m VecReportMsg) String() string { return fmt.Sprintf("(1,%d,[%d])", m.Stage, len(m.Vals)) }

// SizeBits implements types.Sized: tag + stage + one bit per element.
func (m VecReportMsg) SizeBits() int { return 8 + 32 + len(m.Vals) }

// VecProposalMsg is the second exchange of a stage, vector form: per
// element either an S-value (Bots[i] false) or ⊥ (Bots[i] true).
type VecProposalMsg struct {
	Stage int
	Vals  []types.Value // Vals[i] meaningful only when !Bots[i]
	Bots  []bool
}

// Kind implements types.Payload.
func (VecProposalMsg) Kind() string { return "ag.vproposal" }

// String implements fmt.Stringer.
func (m VecProposalMsg) String() string { return fmt.Sprintf("(2,%d,[%d])", m.Stage, len(m.Vals)) }

// SizeBits implements types.Sized: tag + stage + value and ⊥ bits.
func (m VecProposalMsg) SizeBits() int { return 8 + 32 + len(m.Vals) + len(m.Bots) }

// VecDecidedMsg is the termination gadget, vector form: broadcast once
// by a processor as it returns from the last undecided element. Safe
// for the same reason as the scalar DecidedMsg: each component is sent
// only after n−t processors sent S-messages for that component's value.
type VecDecidedMsg struct {
	Vals []types.Value
}

// Kind implements types.Payload.
func (VecDecidedMsg) Kind() string { return "ag.vdecided" }

// String implements fmt.Stringer.
func (m VecDecidedMsg) String() string { return fmt.Sprintf("DECIDED([%d])", len(m.Vals)) }

// SizeBits implements types.Sized: tag + one bit per element.
func (m VecDecidedMsg) SizeBits() int { return 8 + len(m.Vals) }

// VectorConfig parameterizes a vector agreement machine.
type VectorConfig struct {
	ID types.ProcID
	N  int // total processors
	T  int // fault tolerance; requires N > 2T
	// Initial is the local input vector; its length fixes the batch
	// width for the whole run. All processors must agree on the width.
	Initial []types.Value
	Coins   CoinSource
	// Gadget enables the DECIDED termination broadcast.
	Gadget bool
	// Unsafe permits N <= 2T (see Config.Unsafe).
	Unsafe bool
}

// Validate checks the configuration.
func (c VectorConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("agreement: N must be positive, got %d", c.N)
	}
	if c.T < 0 || c.T >= c.N {
		return fmt.Errorf("agreement: need 0 <= T < N, got N=%d T=%d", c.N, c.T)
	}
	if !c.Unsafe && c.N <= 2*c.T {
		return fmt.Errorf("agreement: need N > 2T, got N=%d T=%d", c.N, c.T)
	}
	if int(c.ID) < 0 || int(c.ID) >= c.N {
		return fmt.Errorf("agreement: id %d out of range [0,%d)", c.ID, c.N)
	}
	if len(c.Initial) == 0 {
		return fmt.Errorf("agreement: empty initial vector")
	}
	for i, v := range c.Initial {
		if !v.Valid() {
			return fmt.Errorf("agreement: invalid initial value %d at element %d", v, i)
		}
	}
	if c.Coins == nil {
		return fmt.Errorf("agreement: nil coin source")
	}
	return nil
}

// vecStage is one stage's bulletin board. The waits need only who has
// sent and, per element, how many senders carried each value, so the
// board tallies messages as they arrive and keeps no reference to the
// received vectors.
type vecStage struct {
	stage     int
	reporters []types.ProcID // senders of (1, s, *), each counted once
	proposers []types.ProcID // senders of (2, s, *), each counted once
	// tally holds four counts per element i at 4i..4i+3: reports
	// carrying 0 and 1, then S-messages (non-⊥ proposals) carrying 0
	// and 1.
	tally []int32
}

// Tally offsets within an element's four counts.
const (
	tallyReport = 0 // + value
	tallySMsg   = 2 // + value
)

// VectorMachine executes element-wise Protocol 1 over a value vector
// with shared stage progression. It follows the same step contract as
// Machine (the returned slice is scratch, reused on the next Step).
type VectorMachine struct {
	cfg     VectorConfig
	b       int           // batch width
	x       []types.Value // local value vector
	stage   int
	ph      phase
	started bool
	clock   int

	decided      []bool
	decision     []types.Value
	decidedCount int
	retReady     []bool // element returned: decision condition recurred
	retCount     int
	halted       bool
	sentDecided  bool

	// Bulletin board, one entry per stage heard of, in first-heard
	// order (a run touches a handful of stages, so lookups scan).
	stages []vecStage
	// adoptDecided holds a received DECIDED vector awaiting adoption.
	adoptDecided []types.Value

	stagesCompleted int
	violation       error

	out []types.Message // Step's scratch; AppendStep callers bring their own
}

// NewVector builds a vector agreement machine.
func NewVector(cfg VectorConfig) (*VectorMachine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := len(cfg.Initial)
	return &VectorMachine{
		cfg:      cfg,
		b:        b,
		x:        append([]types.Value(nil), cfg.Initial...),
		stage:    1,
		ph:       phaseReports,
		decided:  make([]bool, b),
		decision: make([]types.Value, b),
		retReady: make([]bool, b),
	}, nil
}

// ID returns the processor id.
func (m *VectorMachine) ID() types.ProcID { return m.cfg.ID }

// Clock returns the machine's local step count.
func (m *VectorMachine) Clock() int { return m.clock }

// Width returns the batch width B.
func (m *VectorMachine) Width() int { return m.b }

// Halted reports whether every element has returned.
func (m *VectorMachine) Halted() bool { return m.halted }

// Stage returns the stage currently executing.
func (m *VectorMachine) Stage() int { return m.stage }

// StagesCompleted returns the number of fully completed stages.
func (m *VectorMachine) StagesCompleted() int { return m.stagesCompleted }

// DecidedAt reports element i's decision, if made.
func (m *VectorMachine) DecidedAt(i int) (types.Value, bool) {
	if i < 0 || i >= m.b || !m.decided[i] {
		return 0, false
	}
	return m.decision[i], true
}

// DecidedCount returns how many elements have decided.
func (m *VectorMachine) DecidedCount() int { return m.decidedCount }

// Violation returns a recorded fault-model violation, if any.
func (m *VectorMachine) Violation() error { return m.violation }

// Step advances the machine one tick with the given received messages.
func (m *VectorMachine) Step(received []types.Message, rnd types.Rand) []types.Message {
	m.out = m.AppendStep(m.out[:0], received, rnd)
	return m.out
}

// AppendStep is Step with the step's sends appended to dst rather than
// to the machine's own scratch, so a caller stepping many machines
// gathers their output in one buffer it owns and reuses.
func (m *VectorMachine) AppendStep(dst, received []types.Message, rnd types.Rand) []types.Message {
	m.clock++
	if m.halted {
		return dst
	}
	for i := range received {
		m.Deliver(received[i])
	}
	if !m.started {
		m.started = true
		// Instruction 1: broadcast (1, 1, x), the whole vector at once.
		dst = m.broadcast(dst, VecReportMsg{Stage: m.stage, Vals: m.snapshotX()})
	}
	return m.progress(dst, rnd)
}

// Deliver posts one received message on the bulletin board, where the
// next step's waits see it — the same as passing it to that step. A
// halted machine ignores it. Vectors of the wrong width are ignored
// outright: counting such a sender toward an n−t wait would leave some
// element short of evidence. So are reports and S-messages carrying a
// value other than 0 or 1, which a frame off the wire can hold.
func (m *VectorMachine) Deliver(msg types.Message) {
	if m.halted {
		return
	}
	switch p := msg.Payload.(type) {
	case VecReportMsg:
		if len(p.Vals) != m.b || !binaryAt(p.Vals, nil) {
			return
		}
		st := m.board(p.Stage)
		if slices.Contains(st.reporters, msg.From) {
			return
		}
		st.reporters = append(st.reporters, msg.From)
		for i, v := range p.Vals {
			st.tally[4*i+tallyReport+int(v)]++
		}
	case VecProposalMsg:
		if len(p.Vals) != m.b || len(p.Bots) != m.b || !binaryAt(p.Vals, p.Bots) {
			return
		}
		st := m.board(p.Stage)
		if slices.Contains(st.proposers, msg.From) {
			return
		}
		st.proposers = append(st.proposers, msg.From)
		for i, v := range p.Vals {
			if !p.Bots[i] {
				st.tally[4*i+tallySMsg+int(v)]++
			}
		}
	case VecDecidedMsg:
		if len(p.Vals) != m.b {
			return
		}
		if m.cfg.Gadget && m.adoptDecided == nil {
			m.adoptDecided = p.Vals
		}
	}
}

// binaryAt reports whether every value of vals is 0 or 1, skipping the
// ⊥ positions bots marks (nil marks none): the tally counts only those
// two values.
func binaryAt(vals []types.Value, bots []bool) bool {
	for i, v := range vals {
		if !v.Valid() && (bots == nil || !bots[i]) {
			return false
		}
	}
	return true
}

// board returns stage s's board, creating it on first contact. The
// pointer is valid until the next board call.
func (m *VectorMachine) board(s int) *vecStage {
	if st := m.lookup(s); st != nil {
		return st
	}
	// One allocation holds both sender lists, n each.
	senders := make([]types.ProcID, 2*m.cfg.N)
	m.stages = append(m.stages, vecStage{
		stage:     s,
		reporters: senders[:0:m.cfg.N],
		proposers: senders[m.cfg.N:m.cfg.N],
		tally:     make([]int32, 4*m.b),
	})
	return &m.stages[len(m.stages)-1]
}

// lookup returns stage s's board, or nil if nothing of s arrived yet.
func (m *VectorMachine) lookup(s int) *vecStage {
	for i := range m.stages {
		if m.stages[i].stage == s {
			return &m.stages[i]
		}
	}
	return nil
}

// progress cascades through the protocol until a wait is unsatisfied or
// the machine halts.
func (m *VectorMachine) progress(out []types.Message, rnd types.Rand) []types.Message {
	for !m.halted {
		if m.adoptDecided != nil {
			// Gadget adoption: a received DECIDED vector is n−t-S-message
			// evidence for every component; adopt, relay once, halt.
			for i, v := range m.adoptDecided {
				m.decideAt(i, v)
			}
			return m.ret(out)
		}
		var ok bool
		switch m.ph {
		case phaseReports:
			out, ok = m.tryFinishReports(out)
		case phaseProposals:
			out, ok = m.tryFinishProposals(out, rnd)
		}
		if !ok {
			return out
		}
	}
	return out
}

// tryFinishReports applies instructions 2–5 element-wise once n−t
// vector reports arrived: per element, propose the >n/2 majority value
// or ⊥.
func (m *VectorMachine) tryFinishReports(out []types.Message) ([]types.Message, bool) {
	st := m.lookup(m.stage)
	if st == nil || len(st.reporters) < m.cfg.N-m.cfg.T {
		return out, false
	}
	vals := make([]types.Value, m.b)
	bots := make([]bool, m.b)
	for i := 0; i < m.b; i++ {
		counts := st.counts(i, tallyReport)
		switch {
		case 2*counts[types.V0] > m.cfg.N:
			vals[i] = types.V0
		case 2*counts[types.V1] > m.cfg.N:
			vals[i] = types.V1
		default:
			bots[i] = true
		}
	}
	m.ph = phaseProposals
	return m.broadcast(out, VecProposalMsg{Stage: m.stage, Vals: vals, Bots: bots}), true
}

// tryFinishProposals applies instructions 6–14 element-wise once n−t
// vector proposals arrived: per element, adopt an S-value or the shared
// stage coin, and decide (or mark returnable) on n−t matching
// S-messages. The machine halts when every element has become
// returnable; until then it advances to the next stage.
func (m *VectorMachine) tryFinishProposals(out []types.Message, rnd types.Rand) ([]types.Message, bool) {
	st := m.lookup(m.stage)
	if st == nil || len(st.proposers) < m.cfg.N-m.cfg.T {
		return out, false
	}
	// One coin flip covers the whole stage: elements left without an
	// S-value share it, exactly as B scalar machines sharing one coin
	// list would each read the same list position.
	coinFlipped := false
	var coin types.Value
	for i := 0; i < m.b; i++ {
		counts := st.counts(i, tallySMsg)
		sawVal := counts[types.V0]+counts[types.V1] > 0
		sVal := types.V0
		if counts[types.V1] > 0 {
			sVal = types.V1
		}
		if counts[types.V0] > 0 && counts[types.V1] > 0 {
			// Lemma 2 per projected run: impossible under fail-stop.
			m.violation = fmt.Errorf("agreement: conflicting S-messages at stage %d element %d (counts %v)", m.stage, i, counts)
			if counts[types.V1] >= counts[types.V0] {
				sVal = types.V1
			} else {
				sVal = types.V0
			}
		}

		// Instructions 7–10: set the local value.
		if !sawVal {
			if !coinFlipped {
				coin = m.cfg.Coins.Coin(m.stage, rnd)
				coinFlipped = true
			}
			m.x[i] = coin
		} else {
			m.x[i] = sVal
		}

		// Instructions 11–14: decide, or mark returnable on recurrence.
		if sawVal && counts[sVal] >= m.cfg.N-m.cfg.T {
			if m.decided[i] {
				if !m.retReady[i] {
					if m.decision[i] != sVal {
						m.violation = fmt.Errorf("agreement: return value %v conflicts with decision %v at element %d", sVal, m.decision[i], i)
					}
					m.retReady[i] = true
					m.retCount++
				}
			} else {
				m.decideAt(i, sVal)
			}
		}
	}
	m.stagesCompleted++

	if m.retCount == m.b {
		// Every element has returned: the whole machine returns.
		return m.ret(out), true
	}

	// Advance to stage s+1 and broadcast (1, s+1, x).
	m.stage++
	m.ph = phaseReports
	return m.broadcast(out, VecReportMsg{Stage: m.stage, Vals: m.snapshotX()}), true
}

// counts returns element i's tally of one message kind (tallyReport or
// tallySMsg), indexed by value.
func (st *vecStage) counts(i, kind int) [2]int {
	return [2]int{int(st.tally[4*i+kind]), int(st.tally[4*i+kind+1])}
}

// decideAt enters the decision state for element i. Decisions are
// absorbing; a conflicting re-decision records a violation.
func (m *VectorMachine) decideAt(i int, v types.Value) {
	if m.decided[i] {
		if m.decision[i] != v {
			m.violation = fmt.Errorf("agreement: decision flip from %v to %v at element %d", m.decision[i], v, i)
		}
		return
	}
	m.decided[i] = true
	m.decision[i] = v
	m.decidedCount++
}

// ret halts the machine and, with the gadget enabled, broadcasts the
// decided vector once.
func (m *VectorMachine) ret(out []types.Message) []types.Message {
	m.halted = true
	if m.cfg.Gadget && !m.sentDecided {
		m.sentDecided = true
		return m.broadcast(out, VecDecidedMsg{Vals: append([]types.Value(nil), m.decision...)})
	}
	return out
}

// snapshotX copies the local vector for a broadcast (the live x keeps
// mutating across stages; messages must be immutable once sent).
func (m *VectorMachine) snapshotX() []types.Value {
	return append([]types.Value(nil), m.x...)
}

// broadcast appends a send of p to all n processors (including self).
func (m *VectorMachine) broadcast(out []types.Message, p types.Payload) []types.Message {
	return types.AppendBroadcast(out, m.cfg.ID, m.cfg.N, p)
}
