// Package txn multiplexes many concurrent transaction commit instances
// over one set of processors — the distributed database setting the paper
// opens with ("a transaction may be processed concurrently at several
// different processors").
//
// Each node runs one Manager, itself a types.Machine, so the same
// simulator and live runtimes drive it. The Manager demultiplexes
// envelope-wrapped protocol messages to per-transaction Protocol 2
// machines, creating participant instances on demand (the first envelope
// for an unknown transaction reaches the node's VoteFunc to obtain its
// vote) and advancing every unhalted instance one step per Manager step.
// Any node may coordinate a transaction (the paper fixes processor 0
// without loss of generality; core.Config.Coordinator generalizes it).
//
// Two scaling mechanisms serve the hot path:
//
//   - Batched agreement (BeginBatch): one batched Protocol 2 instance
//     (core.BatchCommit) decides the outcome vector for many
//     transactions at once — one coin flood, one vote exchange, one
//     agreement run per batch. Per-transaction observability (Outcome,
//     Watch, DecisionOf, OnOutcome) is unchanged; elements report
//     individually as they decide.
//   - Sharded inboxes (Config.InboxShards): the manager's state is split
//     into S shards, each with its own mutex and its own scratch
//     buffers, with ids assigned by the repository hash
//     (internal/hash64). The stepping goroutine still visits shards in
//     index order (determinism), but client-side calls — Begin, Watch,
//     DecisionOf, metrics gauges — contend only on the shard their id
//     hashes to instead of one global lock. No code path ever holds two
//     shard locks at once.
//
// A manager step costs O(messages received + unhalted instances +
// retirements). Each instance keeps its own inbox; an instance that halts
// leaves the step loop at once for a per-shard FIFO halt queue, and
// long-lived deployments (internal/service) configure RetireAfter so the
// queue's head is retired to a tombstone holding its decision. Every step
// sends at most one message per peer: its envelopes are grouped by
// destination into a Bundle, in send order, and a received Bundle is
// unbundled before routing.
//
// Completion is observable without polling via OnOutcome (a callback
// invoked from the stepping goroutine) or Watch (a per-transaction
// channel).
package txn

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/hash64"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/types"
)

// ID names a transaction.
type ID string

// Envelope wraps a Protocol 2 payload with its transaction id.
type Envelope struct {
	Txn   ID
	Inner types.Payload
}

// Kind implements types.Payload.
func (e Envelope) Kind() string {
	if e.Inner == nil {
		return "txn.envelope"
	}
	return envelopeKind(envelopeKinds, "txn:", e.Inner.Kind())
}

// TxnID exposes the transaction id to layers that must not import this
// package (the transport's link-span instrumentation asserts for it).
func (e Envelope) TxnID() string { return string(e.Txn) }

// SizeBits implements types.Sized: inner payload + a 64-bit id hash.
func (e Envelope) SizeBits() int { return types.SizeOf(e.Inner) + 64 }

// Bundle carries everything one manager step sends to one peer: its
// Envelope and BatchEnvelope items, in send order. This is the paper's
// event (p, M, f) read from the sender's side — a step's output to a peer
// travels as one message, so the transport pays one channel operation or
// frame per peer per tick instead of one per envelope. Items is shared
// with the receiver and never reused by the sender.
type Bundle struct {
	Items []types.Payload
}

// Kind implements types.Payload.
func (b Bundle) Kind() string { return "txn.bundle" }

// SizeBits implements types.Sized: the sum of the items' sizes.
func (b Bundle) SizeBits() int {
	bits := 0
	for _, it := range b.Items {
		bits += types.SizeOf(it)
	}
	return bits
}

// VoteFunc supplies this node's vote when it first hears about a
// transaction it did not originate (true = commit).
type VoteFunc func(txn ID) bool

// Outcome is a finished transaction at this node.
type Outcome struct {
	Txn      ID
	Decision types.Decision
}

// Config parameterizes a Manager.
type Config struct {
	ID types.ProcID
	N  int
	T  int // default (N-1)/2
	K  int // default 4
	// Vote is consulted for transactions this node participates in but
	// did not begin. Nil votes commit.
	Vote VoteFunc
	// CoinFactor is forwarded to each commit instance.
	CoinFactor int
	// OnOutcome, if non-nil, is invoked once per transaction as it
	// decides at this node, from the goroutine driving Step and after the
	// manager's locks are released (so the callback may call back into
	// the manager). Outcomes then stays empty: each outcome goes to the
	// callback only.
	OnOutcome func(Outcome)
	// RetireAfter, when positive, removes an instance that many ticks
	// after it halts, keeping only a decision tombstone: later envelopes
	// for the transaction are dropped instead of respawning a fresh
	// instance (which could disagree with the recorded decision), and
	// DecisionOf keeps answering from the tombstone. Zero keeps every
	// instance forever (the pre-service behavior, right for bounded
	// batches).
	RetireAfter int
	// MaxAge, when positive, abandons an instance that has run that many
	// ticks without halting — the availability valve for instances that
	// can never finish (e.g. a transaction joined from a coordinator that
	// then crashed along with too many peers). An abandoned undecided
	// instance leaves a DecisionNone tombstone. Zero never abandons.
	MaxAge int
	// InboxShards splits the manager's state across that many
	// independently locked shards (ids placed by the internal/hash64
	// hash). Default 1 — the single-lock behavior, byte-identical to the
	// pre-sharding manager. The service sets it per core to kill
	// cross-core contention between the stepping goroutine and client
	// queries under load.
	InboxShards int
	// Registry, if non-nil, receives the manager's metrics: instances
	// started/decided/retired/abandoned, batches decided, and a
	// rounds-to-decision histogram, labeled by node id.
	Registry *obs.Registry
	// Shard, when set, qualifies the node metric label ("<shard>/<id>")
	// so several groups sharing one registry keep distinct series.
	Shard string
	// Tracer, if non-nil, records per-transaction protocol events (GO
	// sent/received, vote cast, Protocol 1 stage transitions, decision).
	Tracer *obs.Tracer
	// Spans, if non-nil, receives per-transaction causal spans: one span
	// per asynchronous round of each instance (closed by the live
	// approximation of the paper's §2.2 rule — a round ends K ticks
	// after the later of its start and the last message receipt) and a
	// zero-length "decided" marker at the decision tick.
	Spans *span.Collector
}

// mmetrics bundles one manager's handles into the shared registry. All
// handles are nil no-ops when no registry is configured.
type mmetrics struct {
	started   *obs.Counter
	commits   *obs.Counter // txn_instances_decided_total{decision="COMMIT"}
	aborts    *obs.Counter // txn_instances_decided_total{decision="ABORT"}
	retired   *obs.Counter
	abandoned *obs.Counter
	batches   *obs.Counter
	rounds    *obs.Histogram
}

func newMMetrics(reg *obs.Registry, node string) mmetrics {
	decided := reg.CounterVec("txn_instances_decided_total",
		"Commit instances decided, by node and decision.", "node", "decision")
	return mmetrics{
		started: reg.CounterVec("txn_instances_started_total",
			"Commit instances spawned (begun or joined), by node; a batch counts one per member.", "node").With(node),
		commits: decided.With(node, types.DecisionCommit.String()),
		aborts:  decided.With(node, types.DecisionAbort.String()),
		retired: reg.CounterVec("txn_instances_retired_total",
			"Decided instances retired to tombstones, by node.", "node").With(node),
		abandoned: reg.CounterVec("txn_instances_abandoned_total",
			"Undecided instances abandoned at MaxAge, by node.", "node").With(node),
		batches: reg.CounterVec("txn_batches_decided_total",
			"Batched agreement instances fully decided (every member), by node.", "node").With(node),
		rounds: reg.HistogramVec("txn_rounds_to_decision_ticks",
			"Manager clock ticks from instance spawn to decision, by node.",
			obs.TickBuckets, "node").With(node),
	}
}

// decided counts one decision of an instance or batch member.
func (mm *mmetrics) decided(d types.Decision) {
	if d == types.DecisionCommit {
		mm.commits.Inc()
	} else {
		mm.aborts.Inc()
	}
}

// instance tracks one commit machine plus its inbox, the lifecycle
// metadata the retirement policy needs and the tracer's edge-detection
// state (each protocol milestone is recorded once per instance).
type instance struct {
	id       ID
	c        *core.Commit
	inbox    []types.Message // unwrapped envelopes for the next step
	born     int             // manager clock at spawn
	haltedAt int             // manager clock of the step it halted in; -1 while running
	reported bool            // outcome fanned out to Outcomes/watchers

	goRecv    bool // explicit GO received (traced)
	goSent    bool // GO broadcast/relayed (traced)
	voteSent  bool // vote broadcast (traced)
	lastStage int  // last Protocol 1 stage seen (stage transitions traced)

	round           int   // current asynchronous round (1-based, span-tracked)
	roundStartClock int   // manager clock when the current round began
	lastRecvClock   int   // manager clock of the last envelope receipt
	roundStartU     int64 // collector clock when the current round began
	spanDone        bool  // decision span emitted; stop round tracking
}

// mshard is one independently locked slice of a Manager's state. The
// stepping goroutine is the only user of recv; mu guards everything else
// against concurrent client calls (Begin, Watch, DecisionOf, gauges).
//
// Every held instance is in exactly one of two lists: order (unhalted, in
// spawn order — the deterministic step order simulation replay relies
// on) or halted (a FIFO queue in halt order). Instances halt in tick
// order, so the queue's head is always the next one due for retirement.
type mshard struct {
	mu        sync.Mutex
	instances map[ID]*instance // every held instance, halted or not
	order     []*instance
	halted    []*instance
	batches   map[BatchID]*binstance
	border    []*binstance
	bhalted   []*binstance
	pending   []Outcome
	// retired maps finished-and-removed single transactions to their
	// decision (DecisionNone for abandoned undecided instances).
	retired map[ID]types.Decision
	// retiredBatches drops stragglers for finished batches; their
	// members' decisions live in their batchRecord.
	retiredBatches map[BatchID]bool
	watchers       map[ID][]chan Outcome

	// memberOf maps the batch members homed on this shard (by member id)
	// to their batch's record, so per-transaction queries (Watch,
	// DecisionOf) can find the shard holding the batch and, after it
	// retires, the member's decision. Entries live forever, like retired
	// — id-keyed lookups must keep answering after retirement. memberMu
	// guards the map and is a leaf lock: a batch's spawn takes it while
	// holding the batch shard's mu, and nothing takes any mu while
	// holding it.
	memberMu sync.Mutex
	memberOf map[ID]*batchRecord

	// Scratch owned by the stepping goroutine; never touched by client
	// calls, so it carries no lock.
	recv []types.Message
	// inboxes holds the emptied inboxes of halted and retired instances
	// for new instances to take over, so a busy shard stops growing a
	// fresh inbox from nil for every instance. Guarded by mu.
	inboxes [][]types.Message
}

func newMshard() *mshard {
	return &mshard{
		instances:      make(map[ID]*instance),
		batches:        make(map[BatchID]*binstance),
		retired:        make(map[ID]types.Decision),
		retiredBatches: make(map[BatchID]bool),
		watchers:       make(map[ID][]chan Outcome),
		memberOf:       make(map[ID]*batchRecord),
	}
}

// batchOf returns the record of the batch a member homed on this shard
// belongs to, or nil.
func (sh *mshard) batchOf(txn ID) *batchRecord {
	sh.memberMu.Lock()
	defer sh.memberMu.Unlock()
	return sh.memberOf[txn]
}

// takeInbox returns an empty inbox for a new instance, reusing one that
// a halted or retired instance gave back when there is one. Caller holds
// sh.mu.
func (sh *mshard) takeInbox() []types.Message {
	n := len(sh.inboxes)
	if n == 0 {
		return nil
	}
	in := sh.inboxes[n-1]
	sh.inboxes[n-1] = nil
	sh.inboxes = sh.inboxes[:n-1]
	return in
}

// giveInbox takes back an instance's inbox once the instance will never
// step again. Its stale messages are cleared so the payloads they point
// to can be collected. Caller holds sh.mu.
func (sh *mshard) giveInbox(in []types.Message) {
	if cap(in) == 0 {
		return
	}
	clear(in[:cap(in)])
	sh.inboxes = append(sh.inboxes, in[:0])
}

// held reports how many instances the shard holds, halted ones included;
// a batch counts as one. Caller holds sh.mu.
func (sh *mshard) held() int {
	return len(sh.order) + len(sh.halted) + len(sh.border) + len(sh.bhalted)
}

// Manager runs all of one node's commit instances.
type Manager struct {
	cfg Config
	met mmetrics

	clock   atomic.Int64
	spawned atomic.Int64
	shards  []*mshard

	// Step scratch, owned by the stepping goroutine.
	out        []types.Message // wrapped envelopes, in send order
	bundles    []types.Message // out grouped into one Bundle per peer
	perPeer    []int           // envelopes per destination, then bundle ends
	decidedNow []Outcome
}

var _ types.Machine = (*Manager)(nil)

// NewManager validates the configuration and builds a Manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("txn: N must be positive, got %d", cfg.N)
	}
	if int(cfg.ID) < 0 || int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("txn: id %d out of range [0,%d)", cfg.ID, cfg.N)
	}
	if cfg.T == 0 {
		cfg.T = (cfg.N - 1) / 2
	}
	if cfg.T < 0 || cfg.N <= 2*cfg.T {
		return nil, fmt.Errorf("txn: need N > 2T, got N=%d T=%d", cfg.N, cfg.T)
	}
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("txn: K must be >= 1, got %d", cfg.K)
	}
	if cfg.RetireAfter < 0 || cfg.MaxAge < 0 {
		return nil, fmt.Errorf("txn: RetireAfter/MaxAge must be >= 0")
	}
	if cfg.InboxShards < 0 {
		return nil, fmt.Errorf("txn: InboxShards must be >= 0")
	}
	if cfg.InboxShards == 0 {
		cfg.InboxShards = 1
	}
	node := strconv.Itoa(int(cfg.ID))
	if cfg.Shard != "" {
		node = cfg.Shard + "/" + node
	}
	m := &Manager{
		cfg:     cfg,
		met:     newMMetrics(cfg.Registry, node),
		shards:  make([]*mshard, cfg.InboxShards),
		perPeer: make([]int, cfg.N),
	}
	for i := range m.shards {
		m.shards[i] = newMshard()
	}
	return m, nil
}

// shardFor returns the shard an id string hashes to.
func (m *Manager) shardFor(id string) *mshard {
	if len(m.shards) == 1 {
		return m.shards[0]
	}
	return m.shards[hash64.String(id)%uint64(len(m.shards))]
}

// clockNow reads the manager clock without any shard lock.
func (m *Manager) clockNow() int { return int(m.clock.Load()) }

// Begin starts a transaction with this node as coordinator. Call before
// (or while) the manager is being stepped. vote is this node's own vote.
func (m *Manager) Begin(txn ID, vote bool) error {
	sh := m.shardFor(string(txn))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.instances[txn]; exists {
		return fmt.Errorf("txn: transaction %q already known", txn)
	}
	if _, done := sh.retired[txn]; done {
		return fmt.Errorf("txn: transaction %q already finished", txn)
	}
	return m.spawnLocked(sh, txn, m.cfg.ID, vote)
}

// spawnLocked creates the commit instance for txn with the given
// coordinator. Caller holds sh.mu.
func (m *Manager) spawnLocked(sh *mshard, txn ID, coordinator types.ProcID, vote bool) error {
	v := types.V0
	if vote {
		v = types.V1
	}
	inst, err := core.New(core.Config{
		ID: m.cfg.ID, N: m.cfg.N, T: m.cfg.T, K: m.cfg.K,
		Vote: v, CoinFactor: m.cfg.CoinFactor, Gadget: true,
		Coordinator: coordinator,
	})
	if err != nil {
		return err
	}
	now := m.clockNow()
	in := &instance{
		id: txn, c: inst, inbox: sh.takeInbox(), born: now, haltedAt: -1,
		round: 1, roundStartClock: now, roundStartU: m.cfg.Spans.Now(),
	}
	sh.instances[txn] = in
	sh.order = append(sh.order, in)
	m.spawned.Add(1)
	m.met.started.Inc()
	return nil
}

// trace records one event for a trace key at the given tick; nil
// tracers are no-ops.
func (m *Manager) trace(key string, t obs.EventType, tick int, detail string) {
	m.cfg.Tracer.Record(obs.Event{
		Node: int(m.cfg.ID), Txn: key, Type: t, Tick: tick, Detail: detail,
	})
}

// traceGoRecv records the first explicit GO receipt under key, using
// seen as the once-per-instance edge detector.
func (m *Manager) traceGoRecv(key string, seen *bool, from types.ProcID, payload types.Payload, tick int) {
	if *seen {
		return
	}
	if inner, _ := core.Unwrap(payload); inner != nil {
		if _, isGo := inner.(core.GoMsg); isGo {
			*seen = true
			m.trace(key, obs.EventGoRecv, tick, "from="+strconv.Itoa(int(from)))
		}
	}
}

// traceOutputsLocked records protocol milestones visible in an instance's
// outgoing burst: the GO broadcast/relay and the vote broadcast, each
// once per instance.
func (m *Manager) traceOutputsLocked(txn ID, inst *instance, out []types.Message, tick int) {
	if inst.goSent && inst.voteSent {
		return
	}
	for i := range out {
		inner, _ := core.Unwrap(out[i].Payload)
		switch p := inner.(type) {
		case core.GoMsg:
			if !inst.goSent {
				inst.goSent = true
				m.trace(string(txn), obs.EventGoSent, tick, fmt.Sprintf("coins=%d fanout=%d", len(p.Coins), m.cfg.N))
			}
		case core.VoteMsg:
			if !inst.voteSent {
				inst.voteSent = true
				m.trace(string(txn), obs.EventVoteCast, tick, "vote="+p.Val.String())
			}
		}
		if inst.goSent && inst.voteSent {
			return
		}
	}
}

// spanRoundLocked closes the instance's current asynchronous round span
// when the paper's §2.2 rule fires in manager-clock terms — the round
// ends K ticks after the later of its start and the last envelope
// receipt — then opens the next round. force closes the in-progress
// round regardless (used at decision time). Caller holds the shard lock.
func (m *Manager) spanRoundLocked(txn ID, inst *instance, tick int, force bool) {
	if m.cfg.Spans == nil || inst.spanDone {
		return
	}
	deadline := inst.roundStartClock
	if inst.lastRecvClock > deadline {
		deadline = inst.lastRecvClock
	}
	if !force && tick < deadline+m.cfg.K {
		return
	}
	now := m.cfg.Spans.Now()
	m.cfg.Spans.Add(span.Span{
		Txn: string(txn), Track: span.ProcTrack(int(m.cfg.ID)),
		Name: "round " + strconv.Itoa(inst.round), Kind: span.KindRound,
		Start: inst.roundStartU, End: now, From: -1, To: -1,
		Detail: fmt.Sprintf("ticks %d..%d", inst.roundStartClock, tick),
	})
	inst.round++
	inst.roundStartClock = tick
	inst.roundStartU = now
}

// ID implements types.Machine.
func (m *Manager) ID() types.ProcID { return m.cfg.ID }

// Clock implements types.Machine.
func (m *Manager) Clock() int { return m.clockNow() }

// Decision implements types.Machine. A manager reports no aggregate
// decision; per-transaction outcomes come from Outcomes. (It reports
// decided only so engines with decision-based stop conditions are not
// used with managers by accident — use custom StopWhen predicates.)
func (m *Manager) Decision() (types.Value, bool) { return 0, false }

// Halted implements types.Machine: a manager halts only when it has seen
// at least one transaction and every still-held instance (and batch) has
// halted (retired instances count as finished). Persistent service nodes
// ignore this and keep stepping for new work.
func (m *Manager) Halted() bool {
	if m.spawned.Load() == 0 {
		return false
	}
	for _, sh := range m.shards {
		sh.mu.Lock()
		live := len(sh.order) + len(sh.border)
		sh.mu.Unlock()
		if live > 0 {
			return false
		}
	}
	return true
}

// Outcomes drains the transactions decided since the last call. A
// manager with an OnOutcome callback hands every outcome to the callback
// instead and keeps none for Outcomes: a long-lived service never drains
// the queue, which would otherwise grow by one entry per decision.
func (m *Manager) Outcomes() []Outcome {
	var out []Outcome
	for _, sh := range m.shards {
		sh.mu.Lock()
		out = append(out, sh.pending...)
		sh.pending = nil
		sh.mu.Unlock()
	}
	return out
}

// queueLocked keeps a decided outcome for Outcomes, unless OnOutcome
// receives it. Caller holds sh.mu.
func (m *Manager) queueLocked(sh *mshard, o Outcome) {
	if m.cfg.OnOutcome == nil {
		sh.pending = append(sh.pending, o)
	}
}

// lookupLocked answers a decision query against one shard's state for an
// id homed there (single instance or tombstone). Caller holds sh.mu.
func (sh *mshard) lookupLocked(txn ID) (types.Decision, bool, bool) {
	if inst, ok := sh.instances[txn]; ok {
		d, decided := inst.c.Outcome()
		return d, decided, true
	}
	if d, ok := sh.retired[txn]; ok {
		return d, d != types.DecisionNone, true
	}
	return types.DecisionNone, false, false
}

// decisionOf is DecisionOf without the exported contract comment: it
// checks the id's own shard, then its batch (if any). Locks are taken
// one at a time, never nested.
func (m *Manager) decisionOf(txn ID) (types.Decision, bool) {
	sh := m.shardFor(string(txn))
	sh.mu.Lock()
	d, decided, known := sh.lookupLocked(txn)
	sh.mu.Unlock()
	if known {
		return d, decided
	}
	if rec := sh.batchOf(txn); rec != nil {
		bsh := m.shardFor(string(rec.id))
		bsh.mu.Lock()
		defer bsh.mu.Unlock()
		i := rec.indexOf(txn)
		switch {
		case i < 0:
		case rec.decisions != nil:
			if d := rec.decisions[i]; d != types.DecisionNone {
				return d, true
			}
		default:
			if bi, ok := bsh.batches[rec.id]; ok {
				return bi.c.OutcomeAt(i)
			}
		}
	}
	return types.DecisionNone, false
}

// Watch returns a channel that receives this node's outcome for txn
// exactly once, then is never used again. If the transaction has already
// decided (or retired with a decision), the outcome is delivered
// immediately. Watching a transaction the node never hears of yields a
// channel that never fires.
func (m *Manager) Watch(txn ID) <-chan Outcome {
	ch := make(chan Outcome, 1)
	if d, ok := m.decisionOf(txn); ok {
		ch <- Outcome{Txn: txn, Decision: d}
		return ch
	}
	sh := m.shardFor(string(txn))
	sh.mu.Lock()
	sh.watchers[txn] = append(sh.watchers[txn], ch)
	sh.mu.Unlock()
	// The decision may have landed between the check and the
	// registration (it is recorded under a different shard's lock for
	// batch members). Re-check; if it has, claim the channel back and
	// deliver here — the firing pass and this path both remove the
	// channel under sh.mu, so exactly one of them sends.
	if d, ok := m.decisionOf(txn); ok {
		sh.mu.Lock()
		ws := sh.watchers[txn]
		for i, w := range ws {
			if w == ch {
				sh.watchers[txn] = append(ws[:i], ws[i+1:]...)
				sh.mu.Unlock()
				ch <- Outcome{Txn: txn, Decision: d}
				return ch
			}
		}
		sh.mu.Unlock()
	}
	return ch
}

// DecisionOf reports a transaction's decision at this node.
func (m *Manager) DecisionOf(txn ID) (types.Decision, bool) {
	return m.decisionOf(txn)
}

// Active reports how many instances the manager is still holding
// (decided instances awaiting retirement included); a batch counts as
// one instance.
func (m *Manager) Active() int {
	total := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		total += sh.held()
		sh.mu.Unlock()
	}
	return total
}

// Transactions lists the transactions this node currently holds, sorted;
// batch members are included. Retired transactions no longer appear.
func (m *Manager) Transactions() []ID {
	var out []ID
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, list := range [][]*instance{sh.order, sh.halted} {
			for _, inst := range list {
				out = append(out, inst.id)
			}
		}
		for _, list := range [][]*binstance{sh.border, sh.bhalted} {
			for _, bi := range list {
				out = append(out, bi.txns...)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Step implements types.Machine: unbundle and demultiplex by shard, spawn
// participants for new transactions and batches, advance every unhalted
// instance one tick, retire the halt queue's due head, and bundle the
// wrapped outputs one message per peer. Shards are visited in index
// order under their own locks; watcher firing and OnOutcome callbacks
// run after every lock is released.
func (m *Manager) Step(received []types.Message, rnd types.Rand) []types.Message {
	tick := int(m.clock.Add(1))

	// Route received envelopes to their shard's scratch inbox. Only the
	// stepping goroutine touches recv, so no locks yet.
	for i := range received {
		if b, ok := received[i].Payload.(Bundle); ok {
			for _, it := range b.Items {
				m.route(received[i], it)
			}
			continue
		}
		m.route(received[i], received[i].Payload)
	}

	out := m.out[:0]
	decidedNow := m.decidedNow[:0]
	for _, sh := range m.shards {
		sh.mu.Lock()
		out, decidedNow = m.stepShardLocked(sh, tick, rnd, out, decidedNow)
		sh.mu.Unlock()
	}
	m.out = out
	m.decidedNow = decidedNow

	// Fire watchers and the outcome callback with no locks held. Batch
	// members' watchers live on the member's own shard, which can differ
	// from the batch's, so this pass re-locks per outcome.
	cb := m.cfg.OnOutcome
	for _, o := range decidedNow {
		sh := m.shardFor(string(o.Txn))
		sh.mu.Lock()
		ws := sh.watchers[o.Txn]
		delete(sh.watchers, o.Txn)
		sh.mu.Unlock()
		for _, ch := range ws {
			ch <- o // buffered (cap 1), at most one send ever
		}
	}
	if cb != nil {
		for _, o := range decidedNow {
			cb(o)
		}
	}
	return m.bundle(out)
}

// route queues one received envelope on the shard its id hashes to, as a
// message from the original sender. Anything else — a foreign payload or
// a bundle nested in a bundle — is ignored.
func (m *Manager) route(msg types.Message, p types.Payload) {
	var sh *mshard
	switch env := p.(type) {
	case Envelope:
		sh = m.shardFor(string(env.Txn))
	case BatchEnvelope:
		sh = m.shardFor(string(env.Batch))
	default:
		return
	}
	msg.Payload = p
	sh.recv = append(sh.recv, msg)
}

// bundle groups one step's wrapped outputs by destination: one message
// per peer, peers in id order, each carrying its envelopes in send order.
// The items array is allocated fresh every step because the bundles it
// backs travel to other goroutines; only the message slice is scratch.
func (m *Manager) bundle(out []types.Message) []types.Message {
	if len(out) == 0 {
		return out
	}
	// Counting sort by destination: perPeer[to] first counts to's
	// envelopes, then marks the end of its range in items.
	ends := m.perPeer
	for i := range out {
		ends[out[i].To]++
	}
	next := 0
	for to, c := range ends {
		next += c
		ends[to] = next - c // range start; advanced to its end below
	}
	items := make([]types.Payload, len(out))
	for i := range out {
		items[ends[out[i].To]] = out[i].Payload
		ends[out[i].To]++
	}
	bundles := m.bundles[:0]
	start := 0
	for to, end := range ends {
		if end > start {
			bundles = append(bundles, types.Message{
				From: m.cfg.ID, To: types.ProcID(to),
				Payload: Bundle{Items: items[start:end:end]},
			})
		}
		start = end
		ends[to] = 0
	}
	m.bundles = bundles
	return bundles
}

// stepShardLocked advances one shard one tick: demux its inbox, spawn
// joins, step unhalted singles then batches, retire the halt queue's due
// head, and collect outputs and newly decided outcomes. Caller holds
// sh.mu.
func (m *Manager) stepShardLocked(sh *mshard, tick int, rnd types.Rand, out []types.Message, decidedNow []Outcome) ([]types.Message, []Outcome) {
	for i := range sh.recv {
		switch env := sh.recv[i].Payload.(type) {
		case Envelope:
			m.demuxLocked(sh, sh.recv[i], env, tick)
		case BatchEnvelope:
			m.demuxBatchLocked(sh, sh.recv[i], env, tick)
		}
	}
	sh.recv = sh.recv[:0]

	kept := sh.order[:0]
	for _, inst := range sh.order {
		start := len(out)
		out = inst.c.AppendStep(out, inst.inbox, rnd)
		inst.inbox = inst.inbox[:0]
		sub := out[start:]
		if m.cfg.Tracer != nil {
			m.traceOutputsLocked(inst.id, inst, sub, tick)
			if ag := inst.c.Agreement(); ag != nil {
				if st := ag.Stage(); st != inst.lastStage {
					inst.lastStage = st
					m.trace(string(inst.id), obs.EventStage, tick, "stage="+strconv.Itoa(st))
				}
			}
		}
		wrapRuns(sub, func(p types.Payload) types.Payload { return Envelope{Txn: inst.id, Inner: p} })
		d, decided := inst.c.Outcome()
		if decided && !inst.reported {
			inst.reported = true
			decidedNow = m.reportLocked(sh, inst, d, tick, decidedNow)
		}
		m.spanRoundLocked(inst.id, inst, tick, false)
		switch {
		case inst.c.Halted():
			inst.haltedAt = tick
			sh.giveInbox(inst.inbox)
			inst.inbox = nil
			sh.halted = append(sh.halted, inst)
		case !decided && m.cfg.MaxAge > 0 && tick-inst.born >= m.cfg.MaxAge:
			m.retireLocked(sh, inst, tick)
		default:
			kept = append(kept, inst)
		}
	}
	clear(sh.order[len(kept):])
	sh.order = kept
	out, decidedNow = m.stepBatchesLocked(sh, tick, rnd, out, decidedNow)

	for len(sh.halted) > 0 && m.due(sh.halted[0].haltedAt, tick) {
		m.retireLocked(sh, sh.halted[0], tick)
		sh.halted[0] = nil
		sh.halted = sh.halted[1:]
	}
	for len(sh.bhalted) > 0 && m.due(sh.bhalted[0].haltedAt, tick) {
		m.retireBatchLocked(sh, sh.bhalted[0], tick)
		sh.bhalted[0] = nil
		sh.bhalted = sh.bhalted[1:]
	}
	return out, decidedNow
}

// due reports whether an instance that halted at haltedAt is due for
// retirement at tick.
func (m *Manager) due(haltedAt, tick int) bool {
	return m.cfg.RetireAfter > 0 && tick-haltedAt >= m.cfg.RetireAfter
}

// demuxLocked routes one received envelope into its instance's inbox,
// joining the transaction as a participant on first contact. Envelopes
// for a retired or halted instance are dropped: the tombstone (or the
// halted machine's recorded outcome) answers queries, a halted machine
// ignores input, and respawning could contradict the recorded decision.
// Caller holds sh.mu.
func (m *Manager) demuxLocked(sh *mshard, msg types.Message, env Envelope, tick int) {
	if _, done := sh.retired[env.Txn]; done {
		return
	}
	inst := sh.instances[env.Txn]
	if inst == nil {
		// First contact with this transaction: join as a participant.
		// Only the coordinator's GO names it, but any protocol message
		// carries the piggybacked GO, so the vote is computable now.
		vote := true
		if m.cfg.Vote != nil {
			vote = m.cfg.Vote(env.Txn)
		}
		if err := m.spawnLocked(sh, env.Txn, m.joinCoordinator(msg.From), vote); err != nil {
			return
		}
		inst = sh.instances[env.Txn]
	}
	if inst.haltedAt >= 0 {
		return
	}
	if m.cfg.Tracer != nil {
		m.traceGoRecv(string(env.Txn), &inst.goRecv, msg.From, env.Inner, tick)
	}
	inst.lastRecvClock = tick
	msg.Payload = env.Inner
	inst.inbox = append(inst.inbox, msg)
}

// joinCoordinator names the coordinator for an instance joined from the
// wire. The real coordinator is unknown at join time and irrelevant for a
// participant: the instance never enters the coordinator branch unless
// Coordinator == own id, so point it at the sender when that differs
// from us, else at the next processor.
func (m *Manager) joinCoordinator(from types.ProcID) types.ProcID {
	if from == m.cfg.ID {
		return types.ProcID((int(m.cfg.ID) + 1) % m.cfg.N)
	}
	return from
}

// reportLocked records a single instance's decision: metrics, trace,
// the closing round and decided spans, and the outcome queues. Caller
// holds sh.mu.
func (m *Manager) reportLocked(sh *mshard, inst *instance, d types.Decision, tick int, decidedNow []Outcome) []Outcome {
	m.met.decided(d)
	m.met.rounds.Observe(float64(tick - inst.born))
	if m.cfg.Tracer != nil {
		m.trace(string(inst.id), obs.EventDecided, tick, decisionDetail(d))
	}
	if m.cfg.Spans != nil && !inst.spanDone {
		m.spanRoundLocked(inst.id, inst, tick, true)
		now := m.cfg.Spans.Now()
		m.cfg.Spans.Add(span.Span{
			Txn: string(inst.id), Track: span.ProcTrack(int(m.cfg.ID)),
			Name: "decided", Kind: span.KindStage, Start: now, End: now,
			From: -1, To: -1, Detail: decisionDetail(d),
		})
		inst.spanDone = true
	}
	o := Outcome{Txn: inst.id, Decision: d}
	m.queueLocked(sh, o)
	return append(decidedNow, o)
}

// retireLocked replaces a single instance with its decision tombstone
// (DecisionNone if it is abandoned undecided). Caller holds sh.mu and
// removes inst from whichever list held it.
func (m *Manager) retireLocked(sh *mshard, inst *instance, tick int) {
	d, decided := inst.c.Outcome()
	if decided {
		m.met.retired.Inc()
		if m.cfg.Tracer != nil {
			m.trace(string(inst.id), obs.EventRetired, tick, "")
		}
	} else {
		m.met.abandoned.Inc()
		if m.cfg.Tracer != nil {
			m.trace(string(inst.id), obs.EventAbandoned, tick, "")
		}
	}
	sh.retired[inst.id] = d
	delete(sh.instances, inst.id)
	sh.giveInbox(inst.inbox)
	inst.inbox = nil
}

// decisionDetail is the trace and span detail naming a decision, built
// once rather than per decided instance.
func decisionDetail(d types.Decision) string {
	switch d {
	case types.DecisionCommit:
		return "decision=COMMIT"
	case types.DecisionAbort:
		return "decision=ABORT"
	}
	return "decision=" + d.String()
}

// wrapRuns replaces each message's payload with its envelope, wrapping
// in place. All n messages of a broadcast carry one payload value, so it
// boxes one envelope per run of one payload (core.SamePayload), not one
// per message; envelopes are immutable, so the peers share the box.
func wrapRuns(msgs []types.Message, wrap func(types.Payload) types.Payload) {
	var inner, boxed types.Payload
	for i := range msgs {
		p := msgs[i].Payload
		if i == 0 || !core.SamePayload(p, inner) {
			inner, boxed = p, wrap(p)
		}
		msgs[i].Payload = boxed
	}
}

// envelopeKinds and batchEnvelopeKinds map the kind of every payload a
// commit machine sends to its envelope's kind, "txn:" or "txnb:" plus
// the inner kind. Link spans name every envelope by kind; the tables
// build each name once instead of once per message. Filled at start-up
// and only read after.
var (
	envelopeKinds      = kindNames("txn:")
	batchEnvelopeKinds = kindNames("txnb:")
)

func kindNames(prefix string) map[string]string {
	inner := []types.Payload{
		core.GoMsg{}, core.VoteMsg{}, core.BatchVoteMsg{},
		agreement.ReportMsg{}, agreement.ProposalMsg{}, agreement.DecidedMsg{},
		agreement.VecReportMsg{}, agreement.VecProposalMsg{}, agreement.VecDecidedMsg{},
	}
	names := make(map[string]string, len(inner))
	for _, p := range inner {
		names[p.Kind()] = prefix + p.Kind()
	}
	return names
}

// envelopeKind returns prefix+inner, from names when it is there.
func envelopeKind(names map[string]string, prefix, inner string) string {
	if s, ok := names[inner]; ok {
		return s
	}
	return prefix + inner
}
