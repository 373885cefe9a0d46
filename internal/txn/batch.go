package txn

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/types"
)

// BatchID names a batched agreement instance. Batches get their own id
// space: hashing by batch id (not member id) keeps every message for one
// batch on one shard, so a batch instance — like a single instance — has
// exactly one owning lock.
type BatchID string

// BatchEnvelope wraps a batched Protocol 2 payload with its batch id and
// the member transactions, in vector order. The member list rides on
// every frame so a node joining the batch mid-flight can compute its own
// vote vector (the batch analogue of the piggybacked GO making the
// transaction joinable from any protocol message).
type BatchEnvelope struct {
	Batch BatchID
	Txns  []ID
	Inner types.Payload

	// key is the batch's trace key, "batch:<id>", set by the sending
	// manager so TxnID builds no string per message. It is not part of
	// the frame: a decoded envelope builds the key on demand.
	key string
}

// Kind implements types.Payload.
func (e BatchEnvelope) Kind() string {
	if e.Inner == nil {
		return "txnb.envelope"
	}
	return envelopeKind(batchEnvelopeKinds, "txnb:", e.Inner.Kind())
}

// TxnID exposes a stable trace key for link-span attribution; batch
// frames are attributed to the batch, not a member.
func (e BatchEnvelope) TxnID() string {
	if e.key != "" {
		return e.key
	}
	return batchKey(e.Batch)
}

// batchKey is a batch's trace and span key.
func batchKey(b BatchID) string { return "batch:" + string(b) }

// SizeBits implements types.Sized: inner payload, a 64-bit batch id
// hash, and a 64-bit id hash per member.
func (e BatchEnvelope) SizeBits() int {
	return types.SizeOf(e.Inner) + 64 + 64*len(e.Txns)
}

// binstance tracks one batched commit machine plus the same lifecycle
// and trace edge-detection state instance keeps, and the per-element
// reporting bitmap that fans batch decisions back out to transactions.
type binstance struct {
	*batchRecord
	c     *core.BatchCommit
	key   string          // trace/span key: "batch:<id>"
	inbox []types.Message // unwrapped envelopes for the next step

	born     int
	haltedAt int // manager clock of the step it halted in; -1 while running

	goRecv    bool
	goSent    bool
	voteSent  bool
	lastStage int

	round           int
	roundStartClock int
	lastRecvClock   int
	roundStartU     int64
	spanDone        bool

	// reportedElems[i] marks member i's outcome as already fanned out.
	reportedElems []bool
	doneCounted   bool // txn_batches_decided_total incremented
}

// batchRecord is the part of a batch that outlives its instance: the
// member list in vector order and, once the batch retires, each member's
// decision (DecisionNone for an abandoned undecided member). Every
// member's memberOf entry points at it, so one record answers for all
// members after retirement, where a tombstone per member would cost a
// map entry each. Fields other than id are guarded by the batch shard's
// lock.
type batchRecord struct {
	id        BatchID
	txns      []ID
	idx       map[ID]int       // member -> vector index, built by the first query
	decisions []types.Decision // nil until the batch retires
}

// indexOf returns txn's position in the member list, or -1. Queries are
// rare next to spawns (the service learns outcomes from OnOutcome), so
// the index is built on the first one. Caller holds the batch shard's
// lock.
func (r *batchRecord) indexOf(txn ID) int {
	if r.idx == nil {
		r.idx = make(map[ID]int, len(r.txns))
		for i, id := range r.txns {
			r.idx[id] = i
		}
	}
	i, ok := r.idx[txn]
	if !ok {
		return -1
	}
	return i
}

// BeginBatch starts one batched agreement instance deciding all of txns
// at once, with this node as coordinator. votes[i] is this node's vote
// for txns[i]. The ids must be fresh: not in flight and not retired,
// individually or in another batch.
func (m *Manager) BeginBatch(batch BatchID, txns []ID, votes []bool) error {
	if len(txns) == 0 {
		return fmt.Errorf("txn: batch %q has no members", batch)
	}
	if len(votes) != len(txns) {
		return fmt.Errorf("txn: batch %q has %d members but %d votes", batch, len(txns), len(votes))
	}
	vals := make([]types.Value, len(txns))
	for i, v := range votes {
		if v {
			vals[i] = types.V1
		}
	}
	sh := m.shardFor(string(batch))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.batches[batch]; exists {
		return fmt.Errorf("txn: batch %q already known", batch)
	}
	if sh.retiredBatches[batch] {
		return fmt.Errorf("txn: batch %q already finished", batch)
	}
	// The member list travels in every frame of the batch, so it must not
	// alias the caller's slice.
	members := append([]ID(nil), txns...)
	return m.spawnBatchLocked(sh, batch, members, vals, m.cfg.ID, m.clockNow())
}

// spawnBatchLocked creates the batched commit instance and registers its
// members for id-keyed lookups. It keeps members, which must never be
// modified: a joining node passes the list of the frame that reached
// it. Caller holds the batch shard's lock.
func (m *Manager) spawnBatchLocked(sh *mshard, batch BatchID, members []ID, votes []types.Value, coordinator types.ProcID, tick int) error {
	c, err := core.NewBatch(core.BatchConfig{
		ID: m.cfg.ID, N: m.cfg.N, T: m.cfg.T, K: m.cfg.K,
		Votes: votes, CoinFactor: m.cfg.CoinFactor, Gadget: true,
		Coordinator: coordinator,
	})
	if err != nil {
		return err
	}
	rec := &batchRecord{id: batch, txns: members}
	bi := &binstance{
		batchRecord: rec, c: c, key: batchKey(batch),
		inbox: sh.takeInbox(), born: tick, haltedAt: -1,
		round: 1, roundStartClock: tick, roundStartU: m.cfg.Spans.Now(),
		reportedElems: make([]bool, len(members)),
	}
	sh.batches[batch] = bi
	sh.border = append(sh.border, bi)
	for _, id := range members {
		home := m.shardFor(string(id))
		home.memberMu.Lock()
		home.memberOf[id] = rec
		home.memberMu.Unlock()
	}
	m.spawned.Add(1)
	m.met.started.Add(uint64(len(members)))
	return nil
}

// demuxBatchLocked is demuxLocked for a batch frame: it joins the batch
// on first contact, computing this node's vote vector from cfg.Vote, and
// drops frames for a retired or halted batch. Caller holds the batch
// shard's lock.
func (m *Manager) demuxBatchLocked(sh *mshard, msg types.Message, env BatchEnvelope, tick int) {
	if sh.retiredBatches[env.Batch] {
		return
	}
	bi := sh.batches[env.Batch]
	if bi == nil {
		if len(env.Txns) == 0 {
			return // a frame without members cannot be joined
		}
		votes := make([]types.Value, len(env.Txns))
		for i, id := range env.Txns {
			votes[i] = types.V1
			if m.cfg.Vote != nil && !m.cfg.Vote(id) {
				votes[i] = types.V0
			}
		}
		if err := m.spawnBatchLocked(sh, env.Batch, env.Txns, votes, m.joinCoordinator(msg.From), tick); err != nil {
			return
		}
		bi = sh.batches[env.Batch]
	}
	if bi.haltedAt >= 0 {
		return
	}
	if m.cfg.Tracer != nil {
		m.traceGoRecv(bi.key, &bi.goRecv, msg.From, env.Inner, tick)
	}
	bi.lastRecvClock = tick
	msg.Payload = env.Inner
	bi.inbox = append(bi.inbox, msg)
}

// traceBatchOutputsLocked mirrors traceOutputsLocked for a batch: the GO
// flood and the vote-vector broadcast, each traced once under the batch
// key.
func (m *Manager) traceBatchOutputsLocked(bi *binstance, sub []types.Message, tick int) {
	if bi.goSent && bi.voteSent {
		return
	}
	for i := range sub {
		inner, _ := core.Unwrap(sub[i].Payload)
		switch p := inner.(type) {
		case core.GoMsg:
			if !bi.goSent {
				bi.goSent = true
				m.trace(bi.key, obs.EventGoSent, tick, fmt.Sprintf("coins=%d fanout=%d", len(p.Coins), m.cfg.N))
			}
		case core.BatchVoteMsg:
			if !bi.voteSent {
				bi.voteSent = true
				m.trace(bi.key, obs.EventVoteCast, tick, "votes="+strconv.Itoa(len(p.Vals)))
			}
		}
		if bi.goSent && bi.voteSent {
			return
		}
	}
}

// spanBatchRoundLocked is spanRoundLocked for a batch: one round span
// per asynchronous round, attributed to the batch key.
func (m *Manager) spanBatchRoundLocked(bi *binstance, tick int, force bool) {
	if m.cfg.Spans == nil || bi.spanDone {
		return
	}
	deadline := bi.roundStartClock
	if bi.lastRecvClock > deadline {
		deadline = bi.lastRecvClock
	}
	if !force && tick < deadline+m.cfg.K {
		return
	}
	now := m.cfg.Spans.Now()
	m.cfg.Spans.Add(span.Span{
		Txn: bi.key, Track: span.ProcTrack(int(m.cfg.ID)),
		Name: "round " + strconv.Itoa(bi.round), Kind: span.KindRound,
		Start: bi.roundStartU, End: now, From: -1, To: -1,
		Detail: fmt.Sprintf("ticks %d..%d", bi.roundStartClock, tick),
	})
	bi.round++
	bi.roundStartClock = tick
	bi.roundStartU = now
}

// stepBatchesLocked advances every unhalted batch on the shard one tick,
// pipelined: batch i+1's machine takes its round-r step in the same
// manager tick batch i takes round r+1's, so consecutive batches overlap
// instead of queueing behind one another. Outputs are wrapped in
// BatchEnvelope frames; member outcomes fan out individually the tick
// their element decides. A batch that halts joins the shard's batch halt
// queue; one past MaxAge is abandoned at once. Caller holds sh.mu.
func (m *Manager) stepBatchesLocked(sh *mshard, tick int, rnd types.Rand, out []types.Message, decidedNow []Outcome) ([]types.Message, []Outcome) {
	kept := sh.border[:0]
	for _, bi := range sh.border {
		start := len(out)
		out = bi.c.AppendStep(out, bi.inbox, rnd)
		bi.inbox = bi.inbox[:0]
		sub := out[start:]
		if m.cfg.Tracer != nil {
			m.traceBatchOutputsLocked(bi, sub, tick)
			if ag := bi.c.Agreement(); ag != nil {
				if st := ag.Stage(); st != bi.lastStage {
					bi.lastStage = st
					m.trace(bi.key, obs.EventStage, tick, "stage="+strconv.Itoa(st))
				}
			}
		}
		wrapRuns(sub, func(p types.Payload) types.Payload {
			return BatchEnvelope{Batch: bi.id, Txns: bi.txns, Inner: p, key: bi.key}
		})

		// Elements decide during a step, the halting one included, so one
		// fan-out pass after each step reports every element exactly once.
		for i, txn := range bi.txns {
			if bi.reportedElems[i] {
				continue
			}
			d, ok := bi.c.OutcomeAt(i)
			if !ok {
				continue
			}
			bi.reportedElems[i] = true
			m.met.decided(d)
			m.met.rounds.Observe(float64(tick - bi.born))
			if m.cfg.Tracer != nil {
				m.trace(string(txn), obs.EventDecided, tick, decisionDetail(d))
			}
			if m.cfg.Spans != nil {
				now := m.cfg.Spans.Now()
				m.cfg.Spans.Add(span.Span{
					Txn: string(txn), Track: span.ProcTrack(int(m.cfg.ID)),
					Name: "decided", Kind: span.KindStage, Start: now, End: now,
					From: -1, To: -1, Detail: decisionDetail(d) + " batch=" + string(bi.id),
				})
			}
			o := Outcome{Txn: txn, Decision: d}
			m.queueLocked(sh, o)
			decidedNow = append(decidedNow, o)
		}
		if !bi.doneCounted && bi.c.DecidedCount() == bi.c.Width() {
			bi.doneCounted = true
			m.met.batches.Inc()
			if m.cfg.Spans != nil && !bi.spanDone {
				m.spanBatchRoundLocked(bi, tick, true)
				bi.spanDone = true
			}
		}
		m.spanBatchRoundLocked(bi, tick, false)
		switch {
		case bi.c.Halted():
			bi.haltedAt = tick
			sh.giveInbox(bi.inbox)
			bi.inbox = nil
			sh.bhalted = append(sh.bhalted, bi)
		case m.cfg.MaxAge > 0 && tick-bi.born >= m.cfg.MaxAge:
			m.retireBatchLocked(sh, bi, tick)
		default:
			kept = append(kept, bi)
		}
	}
	clear(sh.border[len(kept):])
	sh.border = kept
	return out, decidedNow
}

// retireBatchLocked removes a finished (or abandoned) batch, recording
// its members' decisions in its batchRecord — DecisionOf and Watch keep
// answering for them through memberOf. Caller holds sh.mu and removes bi
// from whichever list held it.
func (m *Manager) retireBatchLocked(sh *mshard, bi *binstance, tick int) {
	decisions := make([]types.Decision, len(bi.txns))
	for i, txn := range bi.txns {
		d, decided := bi.c.OutcomeAt(i)
		if decided {
			m.met.retired.Inc()
			if m.cfg.Tracer != nil {
				m.trace(string(txn), obs.EventRetired, tick, "")
			}
		} else {
			d = types.DecisionNone
			m.met.abandoned.Inc()
			if m.cfg.Tracer != nil {
				m.trace(string(txn), obs.EventAbandoned, tick, "")
			}
		}
		decisions[i] = d
	}
	bi.decisions = decisions
	sh.retiredBatches[bi.id] = true
	delete(sh.batches, bi.id)
	sh.giveInbox(bi.inbox)
	bi.inbox = nil
}
