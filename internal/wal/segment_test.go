package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/wal"
)

func decisionFor(i int) types.Decision {
	if i%3 == 0 {
		return types.DecisionAbort
	}
	return types.DecisionCommit
}

func txnID(i int) string { return fmt.Sprintf("txn-%04d", i) }

// TestDecisionLogRoundTrip: decisions appended and synced survive a
// close/reopen; retired decisions are dropped from the recovered map.
func TestDecisionLogRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	open := func() *wal.DecisionLog {
		t.Helper()
		dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{FS: fs, SegmentBytes: 256, SnapshotEvery: 8})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return dl
	}

	dl := open()
	if n := len(dl.Recovered()); n != 0 {
		t.Fatalf("fresh log recovered %d decisions", n)
	}
	const txns = 50
	for i := 0; i < txns; i++ {
		if err := dl.AppendSync(txnID(i), decisionFor(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := dl.Retire(txnID(i)); err != nil {
			t.Fatalf("retire %d: %v", i, err)
		}
	}
	if err := dl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	dl2 := open()
	defer dl2.Close() //nolint:errcheck
	rec := dl2.Recovered()
	for i := 0; i < 10; i++ {
		if _, ok := rec[txnID(i)]; ok {
			t.Errorf("retired %s survived recovery", txnID(i))
		}
	}
	for i := 10; i < txns; i++ {
		if got := rec[txnID(i)]; got != decisionFor(i) {
			t.Errorf("%s: recovered %v, want %v", txnID(i), got, decisionFor(i))
		}
	}
	if len(rec) != txns-10 {
		t.Errorf("recovered %d decisions, want %d", len(rec), txns-10)
	}
}

// TestSegmentedRotation: records spill across many small segments and all
// replay on reopen.
func TestSegmentedRotation(t *testing.T) {
	fs := wal.NewMemFS()
	opts := wal.SegmentedOptions{FS: fs, SegmentBytes: 64}
	dl, err := wal.OpenDecisionLog(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const txns = 40
	for i := 0; i < txns; i++ {
		if err := dl.AppendSync(txnID(i), decisionFor(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := dl.Stats()
	if err := dl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st.SegmentsCreated < 5 {
		t.Errorf("SegmentBytes=64 with %d records created only %d segments", txns, st.SegmentsCreated)
	}
	names, _ := fs.List()
	segs := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".seg") {
			segs++
		}
	}
	if segs < 5 {
		t.Errorf("expected several segment files, found %d (%v)", segs, names)
	}

	dl2, err := wal.OpenDecisionLog(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dl2.Close() //nolint:errcheck
	if got := len(dl2.Recovered()); got != txns {
		t.Fatalf("recovered %d decisions across segments, want %d", got, txns)
	}
	if dl2.ReplayStats().Records != txns {
		t.Errorf("replayed %d records, want %d (no snapshots configured)", dl2.ReplayStats().Records, txns)
	}
}

// TestSnapshotBoundsReplay: with snapshots enabled, the number of records
// replayed at open is bounded by the snapshot cadence — independent of how
// many records the log has ever carried — and compaction actually deletes
// the covered segments.
// TestDecisionSnapshotGolden pins the decision snapshot's bytes:
// [u32 count] then, sorted by id, [u8 decision][u16 len][id] per entry.
func TestDecisionSnapshotGolden(t *testing.T) {
	got := wal.EncodeDecisionSnapshot(map[string]types.Decision{
		"tx-b": types.DecisionCommit, "a": types.DecisionAbort,
	})
	want := []byte{
		2, 0, 0, 0,
		byte(types.DecisionAbort), 1, 0, 'a',
		byte(types.DecisionCommit), 4, 0, 't', 'x', '-', 'b',
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes:\ngot  %v\nwant %v", got, want)
	}
	if got := wal.EncodeDecisionSnapshot(nil); !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("empty snapshot = %v", got)
	}
}

func TestSnapshotBoundsReplay(t *testing.T) {
	const every = 16
	run := func(txns int) (replayed int, st wal.SegStats, files int) {
		t.Helper()
		fs := wal.NewMemFS()
		opts := wal.SegmentedOptions{FS: fs, SegmentBytes: 512, SnapshotEvery: every}
		dl, err := wal.OpenDecisionLog(opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := 0; i < txns; i++ {
			if err := dl.AppendSync(txnID(i), decisionFor(i)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		st = dl.Stats()
		if err := dl.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		dl2, err := wal.OpenDecisionLog(opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer dl2.Close() //nolint:errcheck
		if got := len(dl2.Recovered()); got != txns {
			t.Fatalf("recovered %d decisions, want %d", got, txns)
		}
		names, _ := fs.List()
		return dl2.ReplayStats().Records, st, len(names)
	}

	small, _, _ := run(10 * every)
	big, st, files := run(100 * every)
	// AppendSync batches are single-record, so a snapshot lands exactly on
	// the cadence and at most `every` records can trail the newest one.
	if small > 2*every || big > 2*every {
		t.Errorf("replay not bounded by snapshots: small=%d big=%d (cadence %d)", small, big, every)
	}
	if big > small+every {
		t.Errorf("replay grew with history length: small=%d big=%d", small, big)
	}
	if st.Snapshots == 0 {
		t.Error("no snapshots written")
	}
	if st.SegmentsCompacted == 0 {
		t.Error("compaction never deleted a segment")
	}
	// Everything below the newest snapshot is compacted, so the directory
	// stays small no matter how long the log has lived.
	if files > 8 {
		t.Errorf("directory holds %d files after compaction", files)
	}
}

// TestGroupCommitCoalescesFsyncs: concurrent durable appends share flush
// barriers — with a group-commit window, N concurrent appends complete in
// far fewer than N fsyncs.
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	fs := wal.NewMemFS()
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{
		FS: fs, GroupCommit: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer dl.Close() //nolint:errcheck

	const clients = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = dl.AppendSync(txnID(i), decisionFor(i))
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := dl.Stats()
	if st.Appends != clients {
		t.Fatalf("appends=%d, want %d", st.Appends, clients)
	}
	// 64 concurrent appends against a 20ms window should land in a few
	// groups; 16 fsyncs (4x amortization) is a very loose ceiling.
	if st.Fsyncs*4 > st.Appends {
		t.Errorf("group commit did not coalesce: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
}

// failSyncFS wraps an FS so every file Sync fails once armed — the
// disk-died-under-the-group case.
type failSyncFS struct {
	wal.FS
	armed atomic.Bool
	fail  error
}

func (f *failSyncFS) OpenAppend(name string) (wal.File, error) {
	inner, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &failSyncFile{File: inner, fs: f}, nil
}

func (f *failSyncFS) Create(name string) (wal.File, error) {
	inner, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &failSyncFile{File: inner, fs: f}, nil
}

type failSyncFile struct {
	wal.File
	fs *failSyncFS
}

func (f *failSyncFile) Sync() error {
	if f.fs.armed.Load() {
		return f.fs.fail
	}
	return f.File.Sync()
}

// TestSegmentedFlushErrorReachesEveryWaiter: when the group's single
// fsync fails, EVERY append coalesced into that group observes the error
// — none is acked — and the log stays poisoned.
func TestSegmentedFlushErrorReachesEveryWaiter(t *testing.T) {
	errDisk := errors.New("disk gone")
	ffs := &failSyncFS{FS: wal.NewMemFS(), fail: errDisk}
	dl, err := wal.OpenDecisionLog(wal.SegmentedOptions{
		FS: ffs, GroupCommit: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ffs.armed.Store(true)

	const clients = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = dl.AppendSync(txnID(i), types.DecisionCommit)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("append %d acked despite failed group fsync", i)
		}
	}
	if dl.Err() == nil {
		t.Error("failed flush did not poison the log")
	}
	if err := dl.AppendSync("late", types.DecisionCommit); err == nil {
		t.Error("append after poisoned flush succeeded")
	}
	dl.Close() //nolint:errcheck // already poisoned
}

// countWriter is a concurrency-safe sink whose length tells a test how
// many record bytes have been written so far.
type countWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *countWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *countWriter) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Len()
}

// decisionRecordSize is the framed size of a coin-less record:
// 8 bytes of header + 4 of payload.
const decisionRecordSize = 12

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLogSyncErrorReachesEveryWaiter is the regression test for the
// coalesced-fsync error path of the single-file Log: a leader's failed
// flush must propagate to every follower whose record it covered (and
// poison the log), never silently ack a follower. The blocking hook
// freezes the leader mid-fsync so followers provably pile onto it.
func TestLogSyncErrorReachesEveryWaiter(t *testing.T) {
	errDisk := errors.New("disk gone")
	enter := make(chan struct{})   // closed when the leader is inside sync
	release := make(chan struct{}) // closed to let the leader's sync return
	var syncCalls atomic.Int32
	w := &countWriter{}
	log := wal.NewWithSync(w, func() error {
		if syncCalls.Add(1) == 1 {
			close(enter)
			<-release
		}
		return errDisk
	})

	leaderErr := make(chan error, 1)
	go func() {
		leaderErr <- log.Append(wal.Record{Type: wal.RecordDecision, Value: 1})
	}()
	<-enter

	const followers = 8
	followerErrs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func() {
			followerErrs <- log.Append(wal.Record{Type: wal.RecordDecision, Value: 1})
		}()
	}
	// All followers must have written (and be waiting on the flush)
	// before the leader's fsync resolves.
	waitFor(t, "followers to write", func() bool {
		return w.Len() == (1+followers)*decisionRecordSize
	})
	close(release)

	if err := <-leaderErr; !errors.Is(err, errDisk) {
		t.Fatalf("leader got %v, want the disk error", err)
	}
	for i := 0; i < followers; i++ {
		if err := <-followerErrs; !errors.Is(err, errDisk) {
			t.Fatalf("follower got %v, want the disk error", err)
		}
	}
	// The poison is sticky — and no follower may retry the flush (the
	// durable suffix is unknown), so sync ran exactly once.
	if err := log.Append(wal.Record{Type: wal.RecordDecision, Value: 1}); !errors.Is(err, errDisk) {
		t.Errorf("post-poison append got %v, want the disk error", err)
	}
	if n := syncCalls.Load(); n != 1 {
		t.Errorf("sync ran %d times after a poisoning failure, want 1", n)
	}
}

// TestLogSyncSuccessCoalesces is the success-path twin: followers that
// write while the leader is flushing are covered by exactly one follow-up
// flush, not one each.
func TestLogSyncSuccessCoalesces(t *testing.T) {
	enter := make(chan struct{})
	release := make(chan struct{})
	var syncCalls atomic.Int32
	w := &countWriter{}
	log := wal.NewWithSync(w, func() error {
		if syncCalls.Add(1) == 1 {
			close(enter)
			<-release
		}
		return nil
	})

	leaderErr := make(chan error, 1)
	go func() {
		leaderErr <- log.Append(wal.Record{Type: wal.RecordDecision, Value: 1})
	}()
	<-enter

	const followers = 8
	followerErrs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func() {
			followerErrs <- log.Append(wal.Record{Type: wal.RecordDecision, Value: 1})
		}()
	}
	waitFor(t, "followers to write", func() bool {
		return w.Len() == (1+followers)*decisionRecordSize
	})
	close(release)

	if err := <-leaderErr; err != nil {
		t.Fatalf("leader: %v", err)
	}
	for i := 0; i < followers; i++ {
		if err := <-followerErrs; err != nil {
			t.Fatalf("follower: %v", err)
		}
	}
	// The leader's flush covered only its own record (it started before
	// the followers wrote); ONE more flush covered all eight followers.
	if n := syncCalls.Load(); n != 2 {
		t.Errorf("sync ran %d times for 1 leader + %d followers, want 2", n, followers)
	}
}

// TestDifferentialSegmentedVsSingleFileReplay: the same record stream
// appended through the single-file Log and through the segmented node
// journal (with rotation and snapshots forced) must reconstruct the SAME
// protocol state.
func TestDifferentialSegmentedVsSingleFileReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var stream []wal.Record
	for i := 0; i < 300; i++ {
		switch rng.Intn(3) {
		case 0:
			stream = append(stream, wal.Record{Type: wal.RecordVote, Value: types.Value(rng.Intn(2))})
		case 1:
			coins := make([]types.Value, 1+rng.Intn(20))
			for j := range coins {
				coins[j] = types.Value(rng.Intn(2))
			}
			stream = append(stream, wal.Record{Type: wal.RecordCoins, Coins: coins})
		case 2:
			stream = append(stream, wal.Record{Type: wal.RecordInput, Value: types.Value(rng.Intn(2))})
		}
	}
	stream = append(stream, wal.Record{Type: wal.RecordDecision, Value: 1})

	// Single-file replay.
	var buf bytes.Buffer
	single := wal.New(&buf)
	for _, r := range stream {
		if err := single.Append(r); err != nil {
			t.Fatalf("single append: %v", err)
		}
	}
	records, err := wal.Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("single replay: %v", err)
	}
	want := wal.Reconstruct(records)

	// Segmented replay, with rotation and snapshots in the path.
	dir := t.TempDir()
	nl, st0, had, err := wal.OpenNodeLog(dir, wal.SegmentedOptions{SegmentBytes: 128, SnapshotEvery: 64})
	if err != nil {
		t.Fatalf("segmented open: %v", err)
	}
	if had || st0.Decided {
		t.Fatalf("fresh segmented journal claims prior participation (%+v)", st0)
	}
	for _, r := range stream {
		if err := nl.Append(r); err != nil {
			t.Fatalf("segmented append: %v", err)
		}
	}
	if err := nl.Close(); err != nil {
		t.Fatalf("segmented close: %v", err)
	}

	nl2, got, had2, err := wal.OpenNodeLog(dir, wal.SegmentedOptions{SegmentBytes: 128, SnapshotEvery: 64})
	if err != nil {
		t.Fatalf("segmented reopen: %v", err)
	}
	defer nl2.Close() //nolint:errcheck
	if !had2 {
		t.Fatal("segmented journal forgot its participation")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("segmented replay diverged from single-file replay:\n got %+v\nwant %+v", got, want)
	}
	if rs, ok := nl2.Stats(); !ok || rs.Replay.SnapshotSeq == 0 {
		t.Errorf("differential run never exercised a snapshot (stats %+v ok=%v)", rs, ok)
	}
}
