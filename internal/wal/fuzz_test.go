package wal_test

import (
	"reflect"
	"testing"

	"repro/internal/types"
	"repro/internal/wal"
)

// FuzzReplay throws arbitrary bytes at the node journal's decoders, once
// as its only segment (the frame scanner and record decoder) and once as
// a framed snapshot (the protocol snapshot decoder). Open must never
// panic; if it succeeds, the journal must still be fully usable — a
// probe decision appended to it must survive a clean restart.
func FuzzReplay(f *testing.F) {
	// Seed with a valid log, a truncated log, and garbage.
	valid := frameRecords(f,
		wal.Record{Type: wal.RecordVote, Value: 1},
		wal.Record{Type: wal.RecordCoins, Coins: []types.Value{1, 0, 1}})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		probeNodeJournal(t, diskWith(data, nil))
		probeNodeJournal(t, diskWith(nil, data))
	})
}

// diskWith builds a disk holding seg as the first segment and, when snap
// is non-nil, snap framed as the snapshot covering nothing before it.
func diskWith(seg, snap []byte) *wal.MemFS {
	fs := wal.NewMemFS()
	if sf, err := fs.Create("wal-00000001.seg"); err == nil {
		sf.Write(seg) //nolint:errcheck
		sf.Sync()     //nolint:errcheck
		sf.Close()    //nolint:errcheck
	}
	if snap != nil {
		if sf, err := fs.Create("snap-00000001.snap"); err == nil {
			sf.Write(wal.Frame(snap)) //nolint:errcheck
			sf.Sync()                 //nolint:errcheck
			sf.Close()                //nolint:errcheck
		}
	}
	return fs
}

// probeNodeJournal opens the node journal on fs; if it opens, a probe
// decision must be appended and survive a restart.
func probeNodeJournal(t *testing.T, fs *wal.MemFS) {
	nl, _, _, err := wal.OpenNodeLog(wal.SegmentedOptions{FS: fs})
	if err != nil {
		return // rejected cleanly
	}
	if err := nl.Append(wal.Record{Type: wal.RecordDecision, Value: 1}); err != nil {
		t.Fatalf("opened journal rejected append: %v", err)
	}
	st, err := nl.Drain()
	if err != nil {
		t.Fatalf("journal unrecoverable after successful open+append: %v", err)
	}
	if !st.Decided || st.Decision != 1 {
		t.Fatalf("probe decision lost across restart: %+v", st)
	}
}

// FuzzSegmentedOpen throws arbitrary bytes at the segmented decoders: a
// fuzzed segment file (exercising the frame scanner and the decision
// codec) plus a fuzzed-but-framed snapshot file (exercising snapshot
// restore and its older-snapshot fallback). Opening must never panic; if
// it succeeds, the log must still be fully usable — a probe decision
// appended to it must survive a clean restart.
func FuzzSegmentedOpen(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(wal.Frame(wal.EncodeDecision("txn-1", types.DecisionCommit)), []byte{})
	f.Add(wal.Frame(wal.EncodeRetire("txn-1")), []byte{0, 0, 0, 0})
	// A one-entry snapshot: [u32 count=1][u8 decision][u16 len][id].
	f.Add([]byte{0xde, 0xad}, []byte{1, 0, 0, 0, 2, 5, 0, 't', 'x', 'n', '-', '1'})
	f.Fuzz(func(t *testing.T, seg, snap []byte) {
		if len(snap) == 0 {
			snap = nil
		}
		fs := diskWith(seg, snap)
		dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
		if err != nil {
			return // rejected cleanly
		}
		for id, d := range dl.Recovered() {
			if d != types.DecisionCommit && d != types.DecisionAbort {
				t.Fatalf("recovered impossible decision %d for %q", d, id)
			}
		}
		if err := dl.AppendSync("fuzz-probe", types.DecisionCommit); err != nil {
			t.Fatalf("opened log rejected append: %v", err)
		}
		if err := dl.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		dl2, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs})
		if err != nil {
			t.Fatalf("log unrecoverable after successful open+append: %v", err)
		}
		defer dl2.Close() //nolint:errcheck
		if dl2.Recovered()["fuzz-probe"] != types.DecisionCommit {
			t.Fatal("probe decision lost across restart")
		}
	})
}

// FuzzAppendReplayRoundTrip: any record the encoder accepts must
// survive a restart of the node journal, even with trailing garbage
// after it in the segment.
func FuzzAppendReplayRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{1, 0, 1}, []byte{0xff})
	f.Fuzz(func(t *testing.T, typRaw, valRaw uint8, coinsRaw, garbage []byte) {
		rec := wal.Record{
			Type:  wal.RecordType(typRaw%4 + 1),
			Value: 0,
		}
		if valRaw%2 == 1 {
			rec.Value = 1
		}
		for _, c := range coinsRaw {
			rec.Coins = append(rec.Coins, 0)
			if c%2 == 1 {
				rec.Coins[len(rec.Coins)-1] = 1
			}
		}
		fs := wal.NewMemFS()
		nl, _, _, err := wal.OpenNodeLog(wal.SegmentedOptions{FS: fs})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := nl.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := nl.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if sf, err := fs.OpenAppend("wal-00000001.seg"); err == nil {
			sf.Write(garbage) //nolint:errcheck
			sf.Close()        //nolint:errcheck
		}
		var records []wal.Record
		scanErr := wal.ScanSegments(fs, func(p []byte) error {
			r, err := wal.DecodeRecord(p)
			if err == nil {
				records = append(records, r)
			}
			return err
		})
		if len(records) < 1 {
			t.Fatal("own record lost")
		}
		got := records[0]
		if got.Type != rec.Type || got.Value != rec.Value || len(got.Coins) != len(rec.Coins) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, rec)
		}
		// Open agrees with the scan: it replays what the scan read, or
		// rejects the same corruption.
		nl2, st, _, err := wal.OpenNodeLog(wal.SegmentedOptions{FS: fs})
		if scanErr != nil {
			if err == nil {
				nl2.Close() //nolint:errcheck
				t.Fatalf("open accepted a segment the scan rejected (%v)", scanErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("open rejected a segment the scan accepted: %v", err)
		}
		defer nl2.Close() //nolint:errcheck
		if want := wal.Reconstruct(records); !reflect.DeepEqual(st, want) {
			t.Fatalf("open recovered %+v, scan folds to %+v", st, want)
		}
	})
}
