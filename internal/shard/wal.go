package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/types"
	"repro/internal/wal"
)

// The cross-shard coordinator's write-ahead log is a wal.SegmentedLog —
// internal/wal's framing, group commit and snapshots — whose records
// are the commit-of-commits transitions:
//
//	RecBegin    txn + participating shard set (logged before any child
//	            submission, so a crashed coordinator knows which shards
//	            to ask)
//	RecVerdict  one shard's prepare verdict (its group's Protocol-2
//	            decision for the child transaction)
//	RecOutcome  the combined top-level outcome; terminal for the txn
//
// A log holding RecBegin without RecOutcome marks an in-doubt
// transaction; Coordinator.Recover resolves it by re-querying the shard
// groups, which keep answering because decisions are absorbing (the same
// property internal/recovery's outcome queries lean on).

// CrossRecordType tags one logged cross-shard transition.
type CrossRecordType uint8

// The logged transition kinds.
const (
	// RecBegin opens a cross-shard transaction.
	RecBegin CrossRecordType = iota + 1
	// RecVerdict logs one shard's prepare verdict.
	RecVerdict
	// RecOutcome logs the combined top-level outcome (terminal).
	RecOutcome
)

// String implements fmt.Stringer.
func (t CrossRecordType) String() string {
	switch t {
	case RecBegin:
		return "begin"
	case RecVerdict:
		return "verdict"
	case RecOutcome:
		return "outcome"
	default:
		return fmt.Sprintf("CrossRecordType(%d)", uint8(t))
	}
}

// CrossRecord is one logged cross-shard transition.
type CrossRecord struct {
	Type CrossRecordType
	Txn  string
	// Shards is the participating shard set (RecBegin only).
	Shards []int
	// Shard is the reporting shard (RecVerdict only).
	Shard int
	// Decision is the verdict or outcome (RecVerdict, RecOutcome).
	Decision types.Decision
}

// ErrCorruptCross is returned when a cross-log record fails validation.
var ErrCorruptCross = errors.New("shard: corrupt cross-log record")

// encodeCrossPayload serializes one record's payload (the bytes under
// the frame).
//
// payload: [u8 type][u8 decision][u16 shard][u16 nShards][nShards×u16]
//
//	[u16 idLen][idLen bytes]
func encodeCrossPayload(r CrossRecord) ([]byte, error) {
	if len(r.Shards) > 1<<16-1 {
		return nil, fmt.Errorf("shard: too many shards (%d)", len(r.Shards))
	}
	if len(r.Txn) > 1<<16-1 {
		return nil, fmt.Errorf("shard: txn id too long (%d bytes)", len(r.Txn))
	}
	payload := make([]byte, 8+2*len(r.Shards)+len(r.Txn))
	payload[0] = byte(r.Type)
	payload[1] = byte(r.Decision)
	binary.LittleEndian.PutUint16(payload[2:4], uint16(r.Shard))
	binary.LittleEndian.PutUint16(payload[4:6], uint16(len(r.Shards)))
	off := 6
	for _, s := range r.Shards {
		binary.LittleEndian.PutUint16(payload[off:off+2], uint16(s))
		off += 2
	}
	binary.LittleEndian.PutUint16(payload[off:off+2], uint16(len(r.Txn)))
	copy(payload[off+2:], r.Txn)
	return payload, nil
}

// decodeCrossPayload parses a checksum-verified payload.
func decodeCrossPayload(payload []byte) (CrossRecord, error) {
	if len(payload) < 8 {
		return CrossRecord{}, ErrCorruptCross
	}
	r := CrossRecord{
		Type:     CrossRecordType(payload[0]),
		Decision: types.Decision(payload[1]),
		Shard:    int(binary.LittleEndian.Uint16(payload[2:4])),
	}
	nShards := int(binary.LittleEndian.Uint16(payload[4:6]))
	off := 6
	if len(payload) < off+2*nShards+2 {
		return CrossRecord{}, ErrCorruptCross
	}
	if nShards > 0 {
		r.Shards = make([]int, nShards)
		for i := 0; i < nShards; i++ {
			r.Shards[i] = int(binary.LittleEndian.Uint16(payload[off : off+2]))
			off += 2
		}
	}
	idLen := int(binary.LittleEndian.Uint16(payload[off : off+2]))
	off += 2
	if len(payload) != off+idLen {
		return CrossRecord{}, ErrCorruptCross
	}
	r.Txn = string(payload[off:])
	return r, nil
}

// CrossLog is the cross-shard coordinator's log, open on a segmented
// directory (OpenCrossSegmented). It is safe for concurrent use. A nil
// *CrossLog is a valid "disabled" log: Append is a no-op.
type CrossLog struct {
	seg *wal.SegmentedLog
}

// Append journals one record. An outcome append blocks until its
// covering group-commit fsync succeeds (concurrent outcomes share one
// flush); the other records ride along asynchronously.
func (l *CrossLog) Append(r CrossRecord) error {
	if l == nil {
		return nil
	}
	payload, err := encodeCrossPayload(r)
	if err != nil {
		return err
	}
	if r.Type == RecOutcome {
		return l.seg.AppendSync(payload)
	}
	return l.seg.Append(payload, nil)
}

// CrossState is one cross-shard transaction reconstructed from the log.
type CrossState struct {
	Txn    string
	Shards []int
	// Verdicts holds each shard's logged prepare verdict.
	Verdicts map[int]types.Decision
	// Decided and Outcome reflect a logged RecOutcome.
	Decided bool
	Outcome types.Decision
}

// InDoubt reports whether the transaction was opened but never closed —
// the state a coordinator crash leaves behind.
func (s *CrossState) InDoubt() bool { return !s.Decided }

// applyCross folds one record into states, creating the transaction's
// entry on first sight: the single per-record fold behind both
// ReconstructCross and the log's own replay.
func applyCross(states map[string]*CrossState, r CrossRecord) {
	st, ok := states[r.Txn]
	if !ok {
		st = &CrossState{Txn: r.Txn, Verdicts: make(map[int]types.Decision)}
		states[r.Txn] = st
	}
	switch r.Type {
	case RecBegin:
		st.Shards = append([]int(nil), r.Shards...)
	case RecVerdict:
		st.Verdicts[r.Shard] = r.Decision
	case RecOutcome:
		st.Decided, st.Outcome = true, r.Decision
	}
}

// ReconstructCross folds records into per-transaction states, in log
// order. Records for transactions without a RecBegin still accumulate
// (a torn log may lose the begin but keep later records).
func ReconstructCross(records []CrossRecord) map[string]*CrossState {
	out := make(map[string]*CrossState)
	for _, r := range records {
		applyCross(out, r)
	}
	return out
}

// crossCodec is the wal.SnapshotCodec for the segmented cross log. Its
// state is the map of OPEN (in-doubt) cross-shard transactions: an
// outcome record is terminal, so applying one retires the transaction
// from the state — which is what keeps snapshots, and therefore the
// compacted log, bounded by in-flight work instead of all history.
//
// Snapshot payload: a stream of framed records (wal.Frame) that
// re-creates every open transaction — Begin then Verdicts, per
// transaction in sorted id order so identical states encode identically.
type crossCodec struct {
	open map[string]*CrossState
}

func (c *crossCodec) Apply(payload []byte) error {
	r, err := decodeCrossPayload(payload)
	if err != nil {
		return err
	}
	applyCross(c.open, r)
	if r.Type == RecOutcome {
		delete(c.open, r.Txn)
	}
	return nil
}

func (c *crossCodec) EncodeSnapshot() []byte {
	var out []byte
	for _, r := range c.records() {
		p, err := encodeCrossPayload(r)
		if err != nil {
			continue // unencodable states cannot have been appended
		}
		out = append(out, wal.Frame(p)...)
	}
	return out
}

// RestoreSnapshot is all-or-nothing: the stream must scan to its last
// byte (a torn or trailing frame rejects the snapshot) before the open
// set is replaced.
func (c *crossCodec) RestoreSnapshot(data []byte) error {
	open := make(map[string]*CrossState)
	c2 := &crossCodec{open: open}
	valid, err := wal.ScanFrames(bytes.NewReader(data), int64(len(data)), c2.Apply)
	if err != nil {
		return err
	}
	if rem := int64(len(data)) - valid; rem != 0 {
		return fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorruptCross, rem)
	}
	c.open = open
	return nil
}

// records synthesizes the record stream re-creating the open set.
func (c *crossCodec) records() []CrossRecord {
	ids := make([]string, 0, len(c.open))
	for id := range c.open {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []CrossRecord
	for _, id := range ids {
		st := c.open[id]
		out = append(out, CrossRecord{Type: RecBegin, Txn: id, Shards: st.Shards})
		shards := make([]int, 0, len(st.Verdicts))
		for s := range st.Verdicts {
			shards = append(shards, s)
		}
		sort.Ints(shards)
		for _, s := range shards {
			out = append(out, CrossRecord{Type: RecVerdict, Txn: id, Shard: s, Decision: st.Verdicts[s]})
		}
	}
	return out
}

// CrossSegLog is an open cross log together with its lifecycle.
type CrossSegLog struct {
	*CrossLog
}

// OpenCrossSegmented opens (creating if needed) the segmented cross log
// in opts.FS — or, when the caller supplies none, in directory dir —
// replaying snapshot + suffix. The returned records re-create the
// recovered state — exactly the still-in-doubt transactions (decided
// ones are retired during replay) — in a form Coordinator.Recover
// accepts. opts.Name defaults to "cross".
func OpenCrossSegmented(dir string, opts wal.SegmentedOptions) (*CrossSegLog, []CrossRecord, error) {
	if opts.FS == nil {
		fs, err := wal.NewDirFS(dir)
		if err != nil {
			return nil, nil, err
		}
		opts.FS = fs
	}
	if opts.Name == "" {
		opts.Name = "cross"
	}
	codec := &crossCodec{open: make(map[string]*CrossState)}
	seg, err := wal.OpenSegmented(codec, opts)
	if err != nil {
		return nil, nil, err
	}
	// codec is stable here: the writer only touches it once appends flow.
	records := codec.records()
	return &CrossSegLog{CrossLog: &CrossLog{seg: seg}}, records, nil
}

// Stats exposes the underlying segmented log's counters.
func (l *CrossSegLog) Stats() wal.SegStats { return l.seg.Stats() }

// Close drains, seals, and closes the segmented log: once it returns,
// every record appended before it is in the segments.
func (l *CrossSegLog) Close() error { return l.seg.Close() }

// ReadCrossHistory decodes every record still held in a closed cross
// log's segments, in log order. For a log that never snapshotted, that
// is its whole history, outcomes included — what an auditor compares
// against the answers clients saw.
func ReadCrossHistory(fs wal.FS) ([]CrossRecord, error) {
	var out []CrossRecord
	err := wal.ScanSegments(fs, func(payload []byte) error {
		r, err := decodeCrossPayload(payload)
		if err != nil {
			return err
		}
		out = append(out, r)
		return nil
	})
	return out, err
}
