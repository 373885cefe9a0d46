package wal_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/wal"
)

// BenchmarkAppend measures node-journal appends (handed to the
// group-commit writer) to an in-memory disk.
func BenchmarkAppend(b *testing.B) {
	fs := wal.NewMemFS()
	log, _, _, err := wal.OpenNodeLog(wal.SegmentedOptions{FS: fs, SegmentBytes: 1 << 22})
	if err != nil {
		b.Fatal(err)
	}
	rec := wal.Record{Type: wal.RecordCoins, Coins: make([]types.Value, 32)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	var written int64 // framed bytes: 8-byte header plus payload
	if err := wal.ScanSegments(fs, func(p []byte) error { written += int64(8 + len(p)); return nil }); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(written / int64(max(b.N, 1)))
}

// BenchmarkReplay measures node-journal recovery: open a 1000-record
// journal and fold it back into protocol state.
func BenchmarkReplay(b *testing.B) {
	fs := wal.NewMemFS()
	opts := wal.SegmentedOptions{FS: fs, SegmentBytes: 1 << 22}
	log, _, _, err := wal.OpenNodeLog(opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		rec := wal.Record{Type: wal.RecordVote, Value: types.Value(i % 2)}
		if i%10 == 0 {
			rec = wal.Record{Type: wal.RecordCoins, Coins: make([]types.Value, 16)}
		}
		if err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	size, err := fs.Size("wal-00000001.seg")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log, _, _, err := wal.OpenNodeLog(opts)
		if err != nil {
			b.Fatal(err)
		}
		if n := log.Stats().Replay.Records; n != 1000 {
			b.Fatalf("replayed %d records", n)
		}
		b.StopTimer()
		if err := log.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.SetBytes(size)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkWALAppend measures the segmented journal's sequential durable
// append: one client, so every record is its own group and pays a full
// flush barrier — the fsyncs/txn=1 baseline that group commit amortizes.
func BenchmarkWALAppend(b *testing.B) {
	fs := wal.NewMemFS()
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs, SegmentBytes: 1 << 22})
	if err != nil {
		b.Fatal(err)
	}
	defer dl.Close() //nolint:errcheck
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dl.AppendSync(fmt.Sprintf("bench-%08d", i), types.DecisionCommit); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := dl.Stats()
	b.ReportMetric(float64(st.Fsyncs)/float64(max(b.N, 1)), "fsyncs/txn")
}

// BenchmarkWALGroupCommit256 measures the group-commit path at the
// 256-client load point: each benchmark iteration is one wave of 256
// concurrent durable appends, which the writer coalesces into a handful
// of shared fsyncs. fsyncs/txn is the headline number — sequential
// appends pay 1.0; this must sit far below it.
func BenchmarkWALGroupCommit256(b *testing.B) {
	const clients = 256
	fs := wal.NewMemFS()
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{
		FS:           fs,
		SegmentBytes: 1 << 22,
		GroupCommit:  200 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dl.Close() //nolint:errcheck
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				id := fmt.Sprintf("bench-%06d-%03d", i, c)
				if err := dl.AppendSync(id, types.DecisionCommit); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()
	st := dl.Stats()
	b.ReportMetric(float64(st.Fsyncs)/float64(max(int(st.Appends), 1)), "fsyncs/txn")
}

// BenchmarkWALSegmentedReplay measures recovery of a snapshotted journal:
// restore the newest snapshot and replay the bounded suffix.
func BenchmarkWALSegmentedReplay(b *testing.B) {
	fs := wal.NewMemFS()
	opts := wal.SegmentedOptions{FS: fs, SegmentBytes: 1 << 16, SnapshotEvery: 1024}
	dl, err := wal.OpenDecisionLog(opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if err := dl.AppendSync(fmt.Sprintf("bench-%08d", i), types.DecisionCommit); err != nil {
			b.Fatal(err)
		}
	}
	if err := dl.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dl, err := wal.OpenDecisionLog(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(dl.Recovered()) != 10_000 {
			b.Fatalf("recovered %d", len(dl.Recovered()))
		}
		b.StopTimer()
		if err := dl.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkDecisionSnapshotEncode measures the decision journal's
// snapshot encoder at 64k live entries. It runs on the group-commit
// writer, so its cost is a stall for every append queued behind it.
func BenchmarkDecisionSnapshotEncode(b *testing.B) {
	m := make(map[string]types.Decision, 1<<16)
	for i := 0; i < 1<<16; i++ {
		d := types.DecisionCommit
		if i%10 == 0 {
			d = types.DecisionAbort
		}
		m[fmt.Sprintf("txn-%d", i)] = d
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.SetBytes(int64(len(wal.EncodeDecisionSnapshot(m))))
	}
}
