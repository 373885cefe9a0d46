// Package wal provides the write-ahead logs that make the paper's
// recovery story concrete. The protocol's graceful degradation ("instead
// of producing a wrong answer, the protocol simply fails to terminate...
// by not producing a wrong answer, we leave open the opportunity to
// recover", §1) is only useful if a crashed processor can come back,
// re-learn where it was, and find out the outcome.
//
// Every journal — a node's protocol transitions (NodeLog), the commit
// service's decisions (DecisionLog), and the cross-shard coordinator's
// index in internal/shard — is a SegmentedLog: checksummed,
// torn-tail-tolerant segments written by one group-commit goroutine and
// bounded in replay length by snapshots. One record framing serves them
// all (little endian):
//
//	[u32 payloadLen][u32 crc32(payload)][payload]
//
// Frame writes it and ScanFrames reads it; nothing else in the module
// frames or parses records. A scan stops cleanly at a truncated tail
// (the crash-during-append case) and rejects corrupted records
// (checksum mismatch or implausible length).
//
// A node journal record's payload is:
//
//	[u8 type][u8 value][u16 coinCount][coinCount bytes of coin bits]
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/types"
)

// RecordType tags a logged transition.
type RecordType uint8

// The logged transition kinds.
const (
	// RecordVote logs the processor's (possibly demoted) vote.
	RecordVote RecordType = iota + 1
	// RecordCoins logs the shared coin list learned from GO.
	RecordCoins
	// RecordInput logs the input handed to Protocol 1.
	RecordInput
	// RecordDecision logs the final decision value. A log containing a
	// RecordDecision is terminal: recovery needs nothing else.
	RecordDecision
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case RecordVote:
		return "vote"
	case RecordCoins:
		return "coins"
	case RecordInput:
		return "input"
	case RecordDecision:
		return "decision"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is one logged transition.
type Record struct {
	Type  RecordType
	Value types.Value
	Coins []types.Value
}

// ErrCorrupt is returned when a record fails its checksum.
var ErrCorrupt = errors.New("wal: corrupt record")

const headerSize = 8

// maxRecordPayload bounds one segment record: a larger length field is
// corruption, not a record still being written.
const maxRecordPayload = 1 << 20

// Frame wraps payload in the [u32 len][u32 crc][payload] record framing.
func Frame(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[headerSize:], payload)
	return buf
}

// ScanFrames reads framed payloads from r, calling fn for each, and
// returns the byte length of the valid prefix. A torn tail (truncated
// header or payload — the crash-during-append case) stops the scan
// cleanly, while a checksum mismatch or a length above maxPayload
// returns ErrCorrupt.
func ScanFrames(r io.Reader, maxPayload int64, fn func(payload []byte) error) (int64, error) {
	var off int64
	header := make([]byte, headerSize)
	for {
		if _, err := io.ReadFull(r, header); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // torn header: stop
			}
			return off, err
		}
		payloadLen := binary.LittleEndian.Uint32(header[0:4])
		wantCRC := binary.LittleEndian.Uint32(header[4:8])
		if int64(payloadLen) > maxPayload {
			return off, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, payloadLen)
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // torn payload: stop
			}
			return off, err
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return off, ErrCorrupt
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += int64(headerSize) + int64(payloadLen)
	}
}

// encodePayload serializes a record's payload (the bytes under the
// frame).
func encodePayload(r Record) ([]byte, error) {
	if len(r.Coins) > 1<<16-1 {
		return nil, fmt.Errorf("wal: too many coins (%d)", len(r.Coins))
	}
	payload := make([]byte, 4+len(r.Coins))
	payload[0] = byte(r.Type)
	payload[1] = byte(r.Value)
	binary.LittleEndian.PutUint16(payload[2:4], uint16(len(r.Coins)))
	for i, c := range r.Coins {
		payload[4+i] = byte(c)
	}
	return payload, nil
}

// decodePayload parses a checksum-verified payload.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) < 4 {
		return Record{}, ErrCorrupt
	}
	r := Record{Type: RecordType(payload[0]), Value: types.Value(payload[1])}
	count := int(binary.LittleEndian.Uint16(payload[2:4]))
	if len(payload) != 4+count {
		return Record{}, ErrCorrupt
	}
	if count > 0 {
		r.Coins = make([]types.Value, count)
		for i := 0; i < count; i++ {
			r.Coins[i] = types.Value(payload[4+i])
		}
	}
	return r, nil
}

// State is the protocol state reconstructed from a log.
type State struct {
	HasVote  bool
	Vote     types.Value
	Coins    []types.Value
	HasInput bool
	Input    types.Value
	Decided  bool
	Decision types.Value
}

// apply folds one record into the state: the single per-record fold
// behind both Reconstruct and the node journal's replay.
func (s *State) apply(r Record) {
	switch r.Type {
	case RecordVote:
		s.HasVote, s.Vote = true, r.Value
	case RecordCoins:
		s.Coins = r.Coins
	case RecordInput:
		s.HasInput, s.Input = true, r.Value
	case RecordDecision:
		s.Decided, s.Decision = true, r.Value
	}
}

// Reconstruct folds records into the latest state.
func Reconstruct(records []Record) State {
	var s State
	for _, r := range records {
		s.apply(r)
	}
	return s
}
