package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// startDaemon runs the daemon in-process on an ephemeral port and returns
// its base URL plus a stop function that delivers SIGTERM and waits for
// the drained exit.
func startDaemon(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0", "-n", "3", "-k", "3", "-seed", "42",
	}, extraArgs...)
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, &out, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	stop := func() {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v\n%s", err, out.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("daemon never drained\n%s", out.String())
		}
		if !strings.Contains(out.String(), "drained") {
			t.Fatalf("no drain summary in output:\n%s", out.String())
		}
	}
	return "http://" + addr, stop
}

func commitOne(t *testing.T, base, id string, votes []bool) service.CommitResponseJSON {
	t.Helper()
	body, err := json.Marshal(service.CommitRequestJSON{ID: id, Votes: votes})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/commit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /commit status = %d", resp.StatusCode)
	}
	var out service.CommitResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDaemonChannelBackend(t *testing.T) {
	base, stop := startDaemon(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h service.HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.N != 3 {
		t.Fatalf("healthz = %+v", h)
	}

	if out := commitOne(t, base, "d1", nil); out.State != service.StateCommit {
		t.Fatalf("commit = %+v", out)
	}
	if out := commitOne(t, base, "d2", []bool{true, false, true}); out.State != service.StateAbort {
		t.Fatalf("abort = %+v", out)
	}

	stop()
}

func TestDaemonTCPBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp backend round trip in -short mode")
	}
	base, stop := startDaemon(t, "-backend", "tcp", "-tick", "2ms")
	for i := 0; i < 3; i++ {
		votes := []bool(nil)
		if i == 1 {
			votes = []bool{false, true, true}
		}
		out := commitOne(t, base, fmt.Sprintf("tcp-%d", i), votes)
		want := service.StateCommit
		if i == 1 {
			want = service.StateAbort
		}
		if out.State != want {
			t.Fatalf("txn %d over tcp = %+v", i, out)
		}
	}
	stop()
}

func TestDaemonBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-backend", "carrier-pigeon"}, &out, nil); err == nil {
		t.Fatal("bad backend accepted")
	}
	if err := run([]string{"-n", "4", "-t", "2"}, &out, nil); err == nil {
		t.Fatal("bad cluster shape accepted")
	}
}

func TestDaemonSharded(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "cross")
	base, stop := startDaemon(t, "-shards", "3", "-tick", "500us", "-cross-wal", walPath)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h service.HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.N != 3 || h.Shards != 3 {
		t.Fatalf("healthz = %+v", h)
	}

	// Single-shard commit.
	if out := commitOne(t, base, "sd1", nil); out.State != service.StateCommit || len(out.Shards) != 1 {
		t.Fatalf("single commit = %+v", out)
	}

	// Cross-shard commit: enough distinct keys span >= 2 shards with
	// near-certainty over 3 shards; assert on the reported shard set.
	body, err := json.Marshal(service.CommitRequestJSON{
		ID: "sdx", Keys: []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/commit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out service.CommitResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.State != service.StateCommit || len(out.Shards) < 2 {
		t.Fatalf("cross commit = %+v", out)
	}

	stop()

	// The WAL survived the daemon: a second daemon replays it cleanly
	// (everything is decided, so recovery settles nothing but must not
	// fail) and keeps serving.
	base2, stop2 := startDaemon(t, "-shards", "3", "-tick", "500us", "-cross-wal", walPath)
	if out := commitOne(t, base2, "sd2", nil); !out.State.Terminal() {
		t.Fatalf("post-restart commit = %+v", out)
	}
	stop2()
}

// TestDaemonRejectsLegacyCrossWALFile: -cross-wal naming a regular file
// (a single-file cross log from an older build) must fail at start,
// naming the path, never start with an empty log: its in-doubt
// transactions would go unsettled.
func TestDaemonRejectsLegacyCrossWALFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cross.wal")
	if err := os.WriteFile(path, []byte("an old cross log"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-shards", "2", "-tick", "500us", "-cross-wal", path}, &out, nil)
	if err == nil {
		t.Fatal("daemon started on a single-file cross WAL path")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name the cross WAL path", err)
	}
}

func TestDaemonShardedBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-shards", "0"}, &out, nil); err == nil {
		t.Fatal("zero shards accepted")
	}
	if err := run([]string{"-shards", "2", "-backend", "tcp"}, &out, nil); err == nil {
		t.Fatal("tcp backend with multiple shards accepted")
	}
}
