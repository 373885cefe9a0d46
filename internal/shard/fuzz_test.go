package shard

import (
	"testing"

	"repro/internal/types"
	"repro/internal/wal"
)

// FuzzCrossSegmentedOpen is FuzzSegmentedOpen's twin for the cross log:
// a fuzzed segment (the frame scanner and the cross record decoder) plus
// a fuzzed-but-framed snapshot (the snapshot's inner frame stream and its
// restore). Opening must never panic; if it succeeds, the recovered
// records must be in-doubt state only, and the log must still be fully
// usable — a probe transaction begun in it must survive a clean restart.
func FuzzCrossSegmentedOpen(f *testing.F) {
	begin := CrossRecord{Type: RecBegin, Txn: "txn-1", Shards: []int{0, 1}}
	outcome := CrossRecord{Type: RecOutcome, Txn: "txn-1", Decision: types.DecisionCommit}
	f.Add([]byte{}, []byte{})
	f.Add(crossFrames(f, begin), []byte{})
	f.Add(crossFrames(f, outcome), crossFrames(f, begin))
	f.Add([]byte{0xde, 0xad}, crossFrames(f, begin,
		CrossRecord{Type: RecVerdict, Txn: "txn-1", Shard: 1, Decision: types.DecisionAbort}))
	f.Fuzz(func(t *testing.T, seg, snap []byte) {
		if len(snap) == 0 {
			snap = nil
		}
		disk := crossDisk(seg, snap)
		l, recs, err := OpenCrossSegmented("", wal.SegmentedOptions{FS: disk})
		if err != nil {
			return // rejected cleanly
		}
		for _, r := range recs {
			if r.Type != RecBegin && r.Type != RecVerdict {
				t.Fatalf("recovered a %v record as in-doubt state", r.Type)
			}
		}
		probe := CrossRecord{Type: RecBegin, Txn: "fuzz-probe", Shards: []int{0, 1}}
		if err := l.Append(probe); err != nil {
			t.Fatalf("opened log rejected append: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		l2, recs2, err := OpenCrossSegmented("", wal.SegmentedOptions{FS: disk})
		if err != nil {
			t.Fatalf("log unrecoverable after successful open+append: %v", err)
		}
		defer l2.Close() //nolint:errcheck
		if st := ReconstructCross(recs2)["fuzz-probe"]; st == nil || !st.InDoubt() || len(st.Shards) != 2 {
			t.Fatalf("probe begin lost across restart: %+v", st)
		}
	})
}
