package transport

// Differential tests for the binary wire codec: every registered payload
// type must survive binary encode→decode with exactly the value gob would
// reproduce, and arbitrary bytes must never panic the decoder.

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/paxoscommit"
	"repro/internal/recovery"
	"repro/internal/threepc"
	"repro/internal/twopc"
	"repro/internal/txn"
	"repro/internal/types"
)

// wirePayloads is one representative value per registered payload type,
// plus the nesting combinations the protocols actually ship (Piggyback,
// Envelope and Bundle wrap inner payloads recursively).
func wirePayloads() []types.Payload {
	return []types.Payload{
		nil,
		core.GoMsg{Coins: []types.Value{1, 0, 1, 1}},
		core.GoMsg{}, // nil coin slice
		core.VoteMsg{Val: types.V1},
		core.Piggyback{Inner: core.VoteMsg{Val: types.V0}, Coins: []types.Value{0, 1}},
		core.Piggyback{Inner: core.GoMsg{Coins: []types.Value{1}}, Coins: []types.Value{1, 1, 0}},
		core.Piggyback{}, // nil inner, nil coins
		agreement.ReportMsg{Stage: 4, Val: types.V1},
		agreement.ProposalMsg{Stage: 3, Val: types.V0, Bot: true},
		agreement.ProposalMsg{Stage: 1 << 20, Val: types.V1},
		agreement.DecidedMsg{Val: types.V0},
		twopc.PrepareMsg{},
		twopc.VoteMsg{Val: types.V1},
		twopc.OutcomeMsg{Val: types.V0},
		threepc.CanCommitMsg{},
		threepc.VoteMsg{Val: types.V0},
		threepc.PreCommitMsg{},
		threepc.AckMsg{},
		threepc.DoCommitMsg{},
		threepc.AbortMsg{},
		txn.Envelope{Txn: "txn-00042", Inner: core.VoteMsg{Val: types.V1}},
		txn.Envelope{Txn: "", Inner: nil},
		txn.Envelope{Txn: "nested", Inner: core.Piggyback{
			Inner: agreement.ReportMsg{Stage: 2, Val: types.V1}, Coins: []types.Value{1, 0}}},
		core.BatchVoteMsg{Vals: []types.Value{1, 0, 0, 1, 1}},
		core.BatchVoteMsg{}, // nil vote vector
		agreement.VecReportMsg{Stage: 2, Vals: []types.Value{1, 1, 0}},
		agreement.VecReportMsg{Stage: 1 << 18}, // nil vals
		agreement.VecProposalMsg{Stage: 3, Vals: []types.Value{0, 1}, Bots: []bool{true, false}},
		agreement.VecProposalMsg{Stage: 1}, // nil vals, nil bots
		agreement.VecDecidedMsg{Vals: []types.Value{1, 0, 1}},
		txn.BatchEnvelope{Batch: "batch-7", Txns: []txn.ID{"a", "b", "c"},
			Inner: core.BatchVoteMsg{Vals: []types.Value{1, 0, 1}}},
		txn.BatchEnvelope{Batch: "", Txns: nil, Inner: nil},
		txn.BatchEnvelope{Batch: "nested", Txns: []txn.ID{"x"}, Inner: core.Piggyback{
			Inner: agreement.VecReportMsg{Stage: 1, Vals: []types.Value{1}},
			Coins: []types.Value{0, 1}}},
		bundleFixture(),
		txn.Bundle{}, // no items
		recovery.QueryMsg{},
		recovery.ReplyMsg{Val: types.V1},
		paxoscommit.Prepare1aMsg{Instance: 3, Ballot: 17},
		paxoscommit.Prepare1aMsg{}, // ballot 0, instance 0
		paxoscommit.Promise1bMsg{Instance: 2, Ballot: 12, VBal: 7, VVal: types.V1},
		paxoscommit.Promise1bMsg{Instance: 0, Ballot: 5, VBal: -1}, // free case: VBal -1
		paxoscommit.Accept2aMsg{Instance: 4, Ballot: 0, Val: types.V1},
		paxoscommit.Accepted2bMsg{Instance: 1, Ballot: 1 << 16, Val: types.V0},
		paxoscommit.OutcomeMsg{Val: types.V1},
	}
}

// bundleFixture is one manager step's output to one peer: a single
// transaction's envelope and a batch's envelope, each carrying a
// piggybacked GO.
func bundleFixture() txn.Bundle {
	return txn.Bundle{Items: []types.Payload{
		txn.Envelope{Txn: "t1", Inner: core.Piggyback{
			Inner: core.VoteMsg{Val: types.V1}, Coins: []types.Value{1, 0}}},
		txn.BatchEnvelope{Batch: "b1", Txns: []txn.ID{"x", "y"}, Inner: core.Piggyback{
			Inner: core.BatchVoteMsg{Vals: []types.Value{1, 0}}, Coins: []types.Value{0, 1}}},
	}}
}

// TestBundleGolden pins the bundle's wire bytes: the tag, the item count,
// then each item in its own encoding. Tags are append-only wire format,
// so a change here breaks mixed-version clusters.
func TestBundleGolden(t *testing.T) {
	msg := types.Message{From: 1, To: 2, Payload: bundleFixture(), Seq: 3}
	body, ok := appendMessage(nil, msg)
	if !ok {
		t.Fatal("bundle has no binary encoding")
	}
	want := []byte{
		2, 4, 6, 0, 0, // From=1, To=2, Seq=3, SentClock, SentEvent (zigzag)
		tagTxnBundle, 4, // two items
		tagTxnEnvelope, 4, 't', '1',
		tagCorePiggyback, tagCoreVote, 1, 4, 1, 0,
		tagTxnBatchEnvelope, 4, 'b', '1', 4, 2, 'x', 2, 'y',
		tagCorePiggyback, tagCoreBatchVote, 4, 1, 0, 4, 0, 1,
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("bundle bytes:\ngot  %v\nwant %v", body, want)
	}
	got, err := decodeMessage(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("round trip:\ngot  %#v\nwant %#v", got, msg)
	}
}

// gobRoundTrip pushes a message through gob exactly as a 'G' frame would.
func gobRoundTrip(t *testing.T, msg types.Message) types.Message {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(frame{Msg: msg}); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var f frame
	if err := gob.NewDecoder(&buf).Decode(&f); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return f.Msg
}

// TestBinaryCodecMatchesGob round-trips every payload type through both
// codecs and requires identical results: the binary codec is a drop-in
// replacement for gob on the registered types.
func TestBinaryCodecMatchesGob(t *testing.T) {
	RegisterWirePayloads()
	for i, p := range wirePayloads() {
		msg := types.Message{
			From: 3, To: 1, Payload: p,
			Seq: 1000 + i, SentClock: 17, SentEvent: 40_000 + i,
		}
		body, ok := appendMessage(nil, msg)
		if !ok {
			t.Fatalf("payload %d (%T): no binary encoding", i, p)
		}
		got, err := decodeMessage(body)
		if err != nil {
			t.Fatalf("payload %d (%T): decode: %v", i, p, err)
		}
		want := gobRoundTrip(t, msg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("payload %d (%T):\nbinary = %#v\ngob    = %#v", i, p, got, want)
		}
	}
}

// TestBinaryCodecNegativeInts checks the zigzag varints on fields that
// could in principle go negative.
func TestBinaryCodecNegativeInts(t *testing.T) {
	msg := types.Message{From: -1, To: 2, Seq: -7, SentClock: -1, SentEvent: -99}
	body, ok := appendMessage(nil, msg)
	if !ok {
		t.Fatal("no binary encoding")
	}
	got, err := decodeMessage(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %#v want %#v", got, msg)
	}
}

// unregisteredPayload has no binary tag: it must force the gob fallback.
type unregisteredPayload struct{ X int }

func (unregisteredPayload) Kind() string { return "test.unregistered" }

func TestUnregisteredPayloadFallsBackToGob(t *testing.T) {
	msg := types.Message{To: 1, Payload: unregisteredPayload{X: 9}}
	if _, ok := appendMessage(nil, msg); ok {
		t.Fatal("unregistered payload unexpectedly binary-encodable")
	}
	// Nested inside a registered wrapper it must still refuse, so the
	// whole frame falls back rather than shipping a half-binary body.
	wrapped := types.Message{To: 1, Payload: core.Piggyback{Inner: unregisteredPayload{X: 9}}}
	if _, ok := appendMessage(nil, wrapped); ok {
		t.Fatal("nested unregistered payload unexpectedly binary-encodable")
	}
}

// TestTCPGobFallbackRoundTrip ships a payload outside the binary codec
// through a real TCP pair: it must ride a 'G' frame and arrive intact.
func TestTCPGobFallbackRoundTrip(t *testing.T) {
	RegisterWirePayloads()
	gob.Register(unregisteredPayload{})
	n0, err := ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close() //nolint:errcheck
	n1, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close() //nolint:errcheck
	n0.SetPeers(map[types.ProcID]string{1: n1.Addr()})

	// Interleave binary and fallback frames on one connection to check
	// the two formats coexist on a single stream.
	sent := []types.Message{
		{To: 1, Payload: unregisteredPayload{X: 9}, Seq: 1},
		{To: 1, Payload: core.VoteMsg{Val: types.V1}, Seq: 2},
		{To: 1, Payload: unregisteredPayload{X: -3}, Seq: 3},
	}
	for _, msg := range sent {
		if err := n0.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range sent {
		select {
		case got := <-n1.Recv():
			want.From = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("got %#v want %#v", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("message %d never arrived", want.Seq)
		}
	}
}

// TestDecodeRejectsCorruptBodies spot-checks malformed frame bodies.
func TestDecodeRejectsCorruptBodies(t *testing.T) {
	good, ok := appendMessage(nil, types.Message{To: 1, Payload: core.GoMsg{Coins: []types.Value{1, 1}}})
	if !ok {
		t.Fatal("encode failed")
	}
	cases := map[string][]byte{
		"empty":                  {},
		"truncated":              good[:len(good)-1],
		"trailing garbage":       append(append([]byte{}, good...), 0xFF),
		"unknown tag":            {0, 0, 0, 0, 0, 0xEE},
		"huge coin count":        {0, 0, 0, 0, 0, tagCoreGo, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F},
		"huge member count":      {0, 0, 0, 0, 0, tagTxnBatchEnvelope, 0, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F},
		"truncated vec proposal": {0, 0, 0, 0, 0, tagAgVecProposal, 2, 4, 1, 1},
		// Two items promised, the second cut off after its tag.
		"truncated bundle item": {0, 0, 0, 0, 0, tagTxnBundle, 4, tagCoreVote, 1, tagTxnEnvelope},
		"huge bundle count":     hugeBundle,
	}
	for name, body := range cases {
		if _, err := decodeMessage(body); err == nil {
			t.Errorf("%s: decode accepted a corrupt body", name)
		}
	}
	// A count past the remaining bytes is refused before anything is
	// sized from it: the decode allocates no more than an unknown tag's.
	unknown := []byte{0, 0, 0, 0, 0, 0xEE}
	base := testing.AllocsPerRun(100, func() { _, _ = decodeMessage(unknown) })
	if got := testing.AllocsPerRun(100, func() { _, _ = decodeMessage(hugeBundle) }); got > base {
		t.Errorf("huge bundle count: %v allocs per decode, unknown tag %v", got, base)
	}
	// Deep nesting must hit the depth limit, not the stack, both for
	// Piggyback chains and for bundles inside bundles.
	deep := []byte{0, 0, 0, 0, 0}
	for i := 0; i < 10_000; i++ {
		deep = append(deep, tagCorePiggyback)
	}
	if _, err := decodeMessage(deep); err == nil {
		t.Error("deep nesting accepted")
	}
	nested := []byte{0, 0, 0, 0, 0}
	for i := 0; i <= maxPayloadDepth+1; i++ {
		nested = append(nested, tagTxnBundle, 2) // one item: the next bundle
	}
	nested = append(nested, tagNil)
	if _, err := decodeMessage(nested); err == nil {
		t.Error("bundle nesting past maxPayloadDepth accepted")
	}
}

// hugeBundle claims ~4 billion items in a six-byte body.
var hugeBundle = []byte{0, 0, 0, 0, 0, tagTxnBundle, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F}

// FuzzDecodeMessage fuzzes the binary decoder: arbitrary bodies must never
// panic, and any body that decodes must re-encode and decode to the same
// message (the codec is canonical on its own output).
func FuzzDecodeMessage(f *testing.F) {
	for _, p := range wirePayloads() {
		if body, ok := appendMessage(nil, types.Message{From: 1, To: 2, Payload: p, Seq: 3}); ok {
			f.Add(body)
		}
	}
	f.Add([]byte{0, 0, 0, 0, 0, tagCoreGo, 2, 1, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		msg, err := decodeMessage(body)
		if err != nil {
			return
		}
		re, ok := appendMessage(nil, msg)
		if !ok {
			t.Fatalf("decoded message not re-encodable: %#v", msg)
		}
		msg2, err := decodeMessage(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round trip diverged:\nfirst  = %#v\nsecond = %#v", msg, msg2)
		}
	})
}
