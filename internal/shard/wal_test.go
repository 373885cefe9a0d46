package shard

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/types"
	"repro/internal/wal"
)

// crossFrames frames cross records exactly as the log writes them.
func crossFrames(t testing.TB, recs ...CrossRecord) []byte {
	t.Helper()
	var out []byte
	for _, r := range recs {
		p, err := encodeCrossPayload(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wal.Frame(p)...)
	}
	return out
}

// crossDisk is a disk holding seg as a cross log's only segment and,
// when snap is non-nil, snap framed as the snapshot covering nothing
// before it.
func crossDisk(seg, snap []byte) *wal.MemFS {
	fs := wal.NewMemFS()
	if f, err := fs.Create("wal-00000001.seg"); err == nil {
		f.Write(seg) //nolint:errcheck // in-memory
		f.Sync()     //nolint:errcheck // in-memory
	}
	if snap != nil {
		if f, err := fs.Create("snap-00000001.snap"); err == nil {
			f.Write(wal.Frame(snap)) //nolint:errcheck // in-memory
			f.Sync()                 //nolint:errcheck // in-memory
		}
	}
	return fs
}

func TestCrossLogRoundtrip(t *testing.T) {
	disk := wal.NewMemFS()
	l, _, err := OpenCrossSegmented("", wal.SegmentedOptions{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	recs := []CrossRecord{
		{Type: RecBegin, Txn: "pay-1", Shards: []int{0, 2, 5}},
		{Type: RecVerdict, Txn: "pay-1", Shard: 2, Decision: types.DecisionCommit},
		{Type: RecVerdict, Txn: "pay-1", Shard: 0, Decision: types.DecisionCommit},
		{Type: RecVerdict, Txn: "pay-1", Shard: 5, Decision: types.DecisionAbort},
		{Type: RecOutcome, Txn: "pay-1", Decision: types.DecisionAbort},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCrossHistory(disk)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		a, b := recs[i], got[i]
		if a.Type != b.Type || a.Txn != b.Txn || a.Shard != b.Shard || a.Decision != b.Decision {
			t.Fatalf("record %d: got %+v, want %+v", i, b, a)
		}
		if len(a.Shards) != len(b.Shards) {
			t.Fatalf("record %d shards: got %v, want %v", i, b.Shards, a.Shards)
		}
		for j := range a.Shards {
			if a.Shards[j] != b.Shards[j] {
				t.Fatalf("record %d shards: got %v, want %v", i, b.Shards, a.Shards)
			}
		}
	}
	// The outcome retired pay-1: a reopened log holds nothing in doubt.
	l2, open, err := OpenCrossSegmented("", wal.SegmentedOptions{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //nolint:errcheck
	if len(open) != 0 {
		t.Fatalf("decided txn still in doubt after reopen: %+v", open)
	}
}

func TestCrossLogTornTail(t *testing.T) {
	full := crossFrames(t,
		CrossRecord{Type: RecBegin, Txn: "t", Shards: []int{0, 1}},
		CrossRecord{Type: RecOutcome, Txn: "t", Decision: types.DecisionCommit})
	// Every torn prefix reads to a whole-record boundary, and opens: the
	// torn outcome leaves t in doubt, exactly what its begin says.
	for cut := len(full) - 1; cut > 0; cut-- {
		recs, err := ReadCrossHistory(crossDisk(full[:cut], nil))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) > 1 {
			t.Fatalf("cut %d: torn log yielded %d records", cut, len(recs))
		}
		l, open, err := OpenCrossSegmented("", wal.SegmentedOptions{FS: crossDisk(full[:cut], nil)})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		l.Close() //nolint:errcheck // in-memory
		if len(open) != len(recs) {
			t.Fatalf("cut %d: open recovered %d in-doubt records, scan read %d", cut, len(open), len(recs))
		}
	}
}

func TestCrossLogCorruption(t *testing.T) {
	begin := CrossRecord{Type: RecBegin, Txn: "t", Shards: []int{0, 1}}
	payloadBit := crossFrames(t, begin)
	payloadBit[len(payloadBit)-1] ^= 0xff
	crcField := crossFrames(t, begin, begin)
	crcField[4] ^= 0x01 // the first record's checksum, with a good record after it
	implausible := []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 2, 3}
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"flipped payload bit", payloadBit},
		{"flipped checksum bit", crcField},
		{"implausible length", implausible},
	} {
		if _, err := ReadCrossHistory(crossDisk(c.raw, nil)); !errors.Is(err, wal.ErrCorrupt) {
			t.Errorf("%s: scan error = %v, want wal.ErrCorrupt", c.name, err)
		}
		if _, _, err := OpenCrossSegmented("", wal.SegmentedOptions{FS: crossDisk(c.raw, nil)}); !errors.Is(err, wal.ErrCorrupt) {
			t.Errorf("%s: open error = %v, want wal.ErrCorrupt", c.name, err)
		}
	}
}

// TestCrossSnapshotGolden pins the cross log's snapshot bytes: the open
// transactions as framed records — Begin then Verdicts by shard, per
// transaction in id order.
func TestCrossSnapshotGolden(t *testing.T) {
	c := &crossCodec{open: map[string]*CrossState{
		"tx-b": {Txn: "tx-b", Shards: []int{0, 2}, Verdicts: map[int]types.Decision{2: types.DecisionCommit, 0: types.DecisionAbort}},
		"a":    {Txn: "a", Shards: []int{1, 3}, Verdicts: map[int]types.Decision{}},
	}}
	want := []byte{
		0xd, 0x0, 0x0, 0x0, 0x1c, 0xfd, 0xb4, 0x26, 0x1, 0x0, 0x0, 0x0, 0x2, 0x0, 0x1, 0x0, 0x3, 0x0, 0x1, 0x0, 0x61,
		0x10, 0x0, 0x0, 0x0, 0x88, 0x55, 0x75, 0x4a, 0x1, 0x0, 0x0, 0x0, 0x2, 0x0, 0x0, 0x0, 0x2, 0x0, 0x4, 0x0, 0x74, 0x78, 0x2d, 0x62,
		0xc, 0x0, 0x0, 0x0, 0x9e, 0x91, 0xd8, 0xf0, 0x2, 0x1, 0x0, 0x0, 0x0, 0x0, 0x4, 0x0, 0x74, 0x78, 0x2d, 0x62,
		0xc, 0x0, 0x0, 0x0, 0xa2, 0x27, 0xcf, 0x6d, 0x2, 0x2, 0x2, 0x0, 0x0, 0x0, 0x4, 0x0, 0x74, 0x78, 0x2d, 0x62,
	}
	got := c.EncodeSnapshot()
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes:\ngot  %#v\nwant %#v", got, want)
	}
	if empty := (&crossCodec{open: map[string]*CrossState{}}).EncodeSnapshot(); len(empty) != 0 {
		t.Fatalf("empty snapshot = %v", empty)
	}
	// The bytes restore to the same open set, and only all-or-nothing.
	r := &crossCodec{}
	if err := r.RestoreSnapshot(got); err != nil {
		t.Fatal(err)
	}
	if again := r.EncodeSnapshot(); !bytes.Equal(again, want) {
		t.Fatalf("restore/encode round trip changed the bytes:\ngot  %#v", again)
	}
	if err := r.RestoreSnapshot(got[:len(got)-1]); err == nil {
		t.Fatal("torn snapshot restored")
	}
	if len(r.open) != 2 {
		t.Fatalf("failed restore changed the open set: %v", r.open)
	}
}

func TestReconstructCross(t *testing.T) {
	states := ReconstructCross([]CrossRecord{
		{Type: RecBegin, Txn: "a", Shards: []int{0, 1}},
		{Type: RecBegin, Txn: "b", Shards: []int{1, 2}},
		{Type: RecVerdict, Txn: "a", Shard: 0, Decision: types.DecisionCommit},
		{Type: RecVerdict, Txn: "a", Shard: 1, Decision: types.DecisionCommit},
		{Type: RecOutcome, Txn: "a", Decision: types.DecisionCommit},
		{Type: RecVerdict, Txn: "b", Shard: 1, Decision: types.DecisionCommit},
	})
	a, b := states["a"], states["b"]
	if a == nil || b == nil {
		t.Fatalf("missing states: %v", states)
	}
	if a.InDoubt() || !a.Decided || a.Outcome != types.DecisionCommit {
		t.Errorf("txn a: %+v, want decided COMMIT", a)
	}
	if !b.InDoubt() {
		t.Errorf("txn b should be in doubt: %+v", b)
	}
	if b.Verdicts[1] != types.DecisionCommit || b.Verdicts[2] != types.DecisionNone {
		t.Errorf("txn b verdicts: %v", b.Verdicts)
	}
}

func TestCombine(t *testing.T) {
	mk := func(shards []int, vs map[int]types.Decision) *CrossState {
		return &CrossState{Txn: "t", Shards: shards, Verdicts: vs}
	}
	cases := []struct {
		name    string
		st      *CrossState
		want    types.Decision
		decided bool
	}{
		{"all commit", mk([]int{0, 1}, map[int]types.Decision{0: types.DecisionCommit, 1: types.DecisionCommit}), types.DecisionCommit, true},
		{"one abort", mk([]int{0, 1}, map[int]types.Decision{0: types.DecisionCommit, 1: types.DecisionAbort}), types.DecisionAbort, true},
		{"abort with unknown", mk([]int{0, 1, 2}, map[int]types.Decision{1: types.DecisionAbort}), types.DecisionAbort, true},
		{"commit with unknown", mk([]int{0, 1}, map[int]types.Decision{0: types.DecisionCommit}), types.DecisionNone, false},
		{"nothing known", mk([]int{0, 1}, map[int]types.Decision{}), types.DecisionNone, false},
	}
	for _, c := range cases {
		got, decided := combine(c.st)
		if got != c.want || decided != c.decided {
			t.Errorf("%s: combine = (%v, %v), want (%v, %v)", c.name, got, decided, c.want, c.decided)
		}
	}
}
