package wal_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wal"
)

// openNodeLog opens a node journal on fs, failing the test on error.
func openNodeLog(t testing.TB, fs wal.FS) *wal.NodeLog {
	t.Helper()
	nl, _, _, err := wal.OpenNodeLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		t.Fatalf("open node journal: %v", err)
	}
	return nl
}

// segmentRecords decodes every record in a closed journal's segments.
func segmentRecords(t testing.TB, fs wal.FS) []wal.Record {
	t.Helper()
	var out []wal.Record
	err := wal.ScanSegments(fs, func(payload []byte) error {
		r, err := wal.DecodeRecord(payload)
		out = append(out, r)
		return err
	})
	if err != nil {
		t.Fatalf("scan segments: %v", err)
	}
	return out
}

// frameRecords frames records exactly as the journal writes them.
func frameRecords(t testing.TB, records ...wal.Record) []byte {
	t.Helper()
	var out []byte
	for _, r := range records {
		p, err := wal.EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wal.Frame(p)...)
	}
	return out
}

// checkFraming feeds raw segment bytes to both readers of the framing —
// the segment scanner and segmented open — and checks each reports
// wantRecords records before a clean stop, or fails with wantErr.
func checkFraming(t *testing.T, name string, raw []byte, wantRecords int, wantErr error) {
	t.Helper()
	n := 0
	err := wal.ScanSegments(diskWith(raw, nil), func([]byte) error { n++; return nil })
	if wantErr != nil {
		if !errors.Is(err, wantErr) {
			t.Errorf("%s: scan err = %v, want %v", name, err, wantErr)
		}
	} else if err != nil || n != wantRecords {
		t.Errorf("%s: scan read %d records (err %v), want %d", name, n, err, wantRecords)
	}

	nl, _, _, err := wal.OpenNodeLog(wal.SegmentedOptions{FS: diskWith(raw, nil)})
	if wantErr != nil {
		if !errors.Is(err, wantErr) {
			t.Errorf("%s: open err = %v, want %v", name, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Errorf("%s: open: %v", name, err)
		return
	}
	defer nl.Close() //nolint:errcheck
	if got := nl.Stats().Replay.Records; got != wantRecords {
		t.Errorf("%s: open replayed %d records, want %d", name, got, wantRecords)
	}
}

func TestRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	log := openNodeLog(t, fs)
	records := []wal.Record{
		{Type: wal.RecordVote, Value: types.V1},
		{Type: wal.RecordCoins, Coins: []types.Value{1, 0, 1, 1, 0}},
		{Type: wal.RecordInput, Value: types.V1},
		{Type: wal.RecordVote, Value: types.V0},
		{Type: wal.RecordDecision, Value: types.V0},
	}
	for _, r := range records {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got := segmentRecords(t, fs)
	if len(got) != len(records) {
		t.Fatalf("replayed %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if got[i].Type != records[i].Type || got[i].Value != records[i].Value {
			t.Errorf("record %d = %+v, want %+v", i, got[i], records[i])
		}
		if len(got[i].Coins) != len(records[i].Coins) {
			t.Errorf("record %d coins = %v", i, got[i].Coins)
		}
	}
}

func TestTornTailIsTolerated(t *testing.T) {
	full := frameRecords(t,
		wal.Record{Type: wal.RecordVote, Value: types.V1},
		wal.Record{Type: wal.RecordDecision, Value: types.V1})
	// Chop bytes off the end: neither reader may error, and both must
	// return the first record intact once the second is incomplete.
	for cut := 1; cut < 12; cut++ {
		checkFraming(t, fmt.Sprintf("cut=%d", cut), full[:len(full)-cut], 1, nil)
	}
}

func TestCorruptionDetected(t *testing.T) {
	decision := wal.Record{Type: wal.RecordDecision, Value: types.V1}
	payloadBit := frameRecords(t, decision)
	payloadBit[len(payloadBit)-1] ^= 0xFF
	crcField := frameRecords(t, decision, decision)
	crcField[4] ^= 0x01 // the first record's checksum, with a good record after it
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"flipped payload bit", payloadBit},
		{"flipped checksum bit", crcField},
	} {
		checkFraming(t, c.name, c.raw, 0, wal.ErrCorrupt)
	}
}

func TestImplausibleLengthRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"2GiB length", []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 1, 2, 3}},
		{"one byte past the record bound", []byte{0x01, 0x00, 0x10, 0x00, 0, 0, 0, 0, 1, 2, 3}},
	} {
		checkFraming(t, c.name, c.raw, 0, wal.ErrCorrupt)
	}
}

// TestNodeLogDirLifecycle runs a node journal on a real directory:
// records survive close/reopen, appends after a reopen accumulate, and
// a fresh directory carries no prior participation.
func TestNodeLogDirLifecycle(t *testing.T) {
	fs, err := wal.NewDirFS(filepath.Join(t.TempDir(), "proc3.wal"))
	if err != nil {
		t.Fatal(err)
	}
	nl, st, had, err := wal.OpenNodeLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if had || st.HasVote || st.Decided {
		t.Fatalf("fresh directory claims prior participation: had=%v %+v", had, st)
	}
	if err := nl.Append(wal.Record{Type: wal.RecordVote, Value: types.V1}); err != nil {
		t.Fatal(err)
	}
	if err := nl.Append(wal.Record{Type: wal.RecordDecision, Value: types.V1}); err != nil {
		t.Fatal(err)
	}
	if err := nl.Close(); err != nil {
		t.Fatal(err)
	}
	// Append-reopen: records accumulate.
	nl2, st, had, err := wal.OpenNodeLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if !had || !st.Decided || st.Decision != types.V1 {
		t.Fatalf("reopened journal: had=%v %+v", had, st)
	}
	if err := nl2.Append(wal.Record{Type: wal.RecordVote, Value: types.V0}); err != nil {
		t.Fatal(err)
	}
	st, err = nl2.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := segmentRecords(t, fs); len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	if !st.Decided || st.Vote != types.V0 {
		t.Fatalf("drained state = %+v, want decided with vote 0", st)
	}
}

func TestReconstruct(t *testing.T) {
	s := wal.Reconstruct([]wal.Record{
		{Type: wal.RecordVote, Value: types.V1},
		{Type: wal.RecordCoins, Coins: []types.Value{1, 0}},
		{Type: wal.RecordVote, Value: types.V0}, // demotion overwrites
		{Type: wal.RecordInput, Value: types.V0},
		{Type: wal.RecordDecision, Value: types.V0},
	})
	if !s.HasVote || s.Vote != types.V0 {
		t.Errorf("vote = %+v", s)
	}
	if len(s.Coins) != 2 {
		t.Errorf("coins = %v", s.Coins)
	}
	if !s.HasInput || s.Input != types.V0 {
		t.Errorf("input = %+v", s)
	}
	if !s.Decided || s.Decision != types.V0 {
		t.Errorf("decision = %+v", s)
	}
	if empty := wal.Reconstruct(nil); empty.Decided || empty.HasVote {
		t.Errorf("empty state = %+v", empty)
	}
}

func TestRecordTypeString(t *testing.T) {
	for rt, want := range map[wal.RecordType]string{
		wal.RecordVote: "vote", wal.RecordCoins: "coins",
		wal.RecordInput: "input", wal.RecordDecision: "decision",
		wal.RecordType(99): "RecordType(99)",
	} {
		if rt.String() != want {
			t.Errorf("%d -> %q, want %q", rt, rt.String(), want)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(typ uint8, val bool, coinBits []bool) bool {
		r := wal.Record{Type: wal.RecordType(typ%4 + 1)}
		if val {
			r.Value = types.V1
		}
		for _, b := range coinBits {
			if b {
				r.Coins = append(r.Coins, types.V1)
			} else {
				r.Coins = append(r.Coins, types.V0)
			}
		}
		fs := wal.NewMemFS()
		log := openNodeLog(t, fs)
		if err := log.Append(r); err != nil {
			return false
		}
		if err := log.Close(); err != nil {
			return false
		}
		got := segmentRecords(t, fs)
		if len(got) != 1 {
			return false
		}
		if got[0].Type != r.Type || got[0].Value != r.Value || len(got[0].Coins) != len(r.Coins) {
			return false
		}
		for i := range r.Coins {
			if got[0].Coins[i] != r.Coins[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLoggedCommitJournal runs a full simulated commit with every machine
// journaled and confirms the logs reconstruct to the protocol outcome.
func TestLoggedCommitJournal(t *testing.T) {
	n := 5
	logs := make([]*wal.NodeLog, n)
	machines := make([]types.Machine, n)
	logged := make([]*wal.LoggedCommit, n)
	for i := 0; i < n; i++ {
		m, err := core.New(core.Config{
			ID: types.ProcID(i), N: n, T: 2, K: 4, Vote: types.V1, Gadget: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = openNodeLog(t, wal.NewMemFS())
		logged[i] = wal.NewLoggedCommit(m, logs[i])
		machines[i] = logged[i]
	}
	res, err := sim.Run(sim.Config{
		K: 4, Machines: machines, Adversary: &adversary.RoundRobin{},
		Seeds: rng.NewCollection(7, n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllNonfaultyDecided() {
		t.Fatal("run undecided")
	}
	for p := 0; p < n; p++ {
		if logged[p].Err() != nil {
			t.Fatalf("proc %d journal error: %v", p, logged[p].Err())
		}
		s, err := logs[p].Drain()
		if err != nil {
			t.Fatalf("proc %d replay: %v", p, err)
		}
		if !s.Decided || s.Decision != res.Values[p] {
			t.Errorf("proc %d reconstructed %+v, run decided %v", p, s, res.Values[p])
		}
		if !s.HasVote || s.Vote != types.V1 {
			t.Errorf("proc %d vote not journaled: %+v", p, s)
		}
		if len(s.Coins) != n {
			t.Errorf("proc %d coins not journaled: %v", p, s.Coins)
		}
		if !s.HasInput || s.Input != types.V1 {
			t.Errorf("proc %d input not journaled: %+v", p, s)
		}
	}
}

// TestLoggedCommitJournalsDemotion confirms the 2K-timeout vote demotion
// is captured (the record a recovering processor needs to know it already
// promised nothing).
func TestLoggedCommitJournalsDemotion(t *testing.T) {
	n := 3
	fs := wal.NewMemFS()
	log := openNodeLog(t, fs)
	m, err := core.New(core.Config{ID: 1, N: n, T: 1, K: 2, Vote: types.V1, Gadget: true})
	if err != nil {
		t.Fatal(err)
	}
	lm := wal.NewLoggedCommit(m, log)
	st := rng.NewStream(1)
	// Wake with a bare GO, then starve through the 2K timeout.
	lm.Step([]types.Message{{From: 0, To: 1, Payload: core.GoMsg{Coins: []types.Value{0, 1, 0}}}}, st)
	for i := 0; i < 6; i++ {
		lm.Step(nil, st)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	records := segmentRecords(t, fs)
	votes := 0
	for _, r := range records {
		if r.Type == wal.RecordVote {
			votes++
		}
	}
	if votes < 2 {
		t.Fatalf("expected initial vote + demotion, got %d vote records", votes)
	}
	s := wal.Reconstruct(records)
	if s.Vote != types.V0 {
		t.Fatalf("final journaled vote = %v, want demoted 0", s.Vote)
	}
}
