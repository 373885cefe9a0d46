package shard_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestRuntimeNodeMetricsPerShard: two groups on one registry keep one
// runtime series per (shard, node) — node 0 of shard 1 is not folded
// into node 0 of shard 0 — and a crash is counted on its own shard's
// series only.
func TestRuntimeNodeMetricsPerShard(t *testing.T) {
	c := newCoordinator(t, shard.Config{Shards: 2})
	var series []string
	for _, sh := range []string{"0", "1"} {
		for _, node := range []string{"0", "1", "2"} {
			series = append(series, `{shard="`+sh+`",node="`+node+`"}`)
		}
	}
	// exposition returns the registry's text and the value of each
	// series line, keyed by name and labels.
	exposition := func() (string, map[string]float64) {
		var b bytes.Buffer
		if err := c.Registry().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		values := make(map[string]float64)
		for _, line := range strings.Split(b.String(), "\n") {
			if key, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("series line %q: %v", line, err)
				}
				values[key] = f
			}
		}
		return b.String(), values
	}
	// Every node ticks, idle or not: wait until each series has counted
	// steps of its own.
	deadline := time.Now().Add(10 * time.Second)
	text, values := exposition()
	for _, s := range series {
		for values["runtime_node_steps_total"+s] == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("no steps counted on runtime_node_steps_total%s:\n%s", s, text)
			}
			time.Sleep(10 * time.Millisecond)
			text, values = exposition()
		}
	}
	if err := c.Crash(1, 2); err != nil {
		t.Fatal(err)
	}
	text, values = exposition()
	for _, f := range []string{"runtime_node_messages_received_total", "runtime_node_messages_sent_total"} {
		for _, s := range series {
			if _, ok := values[f+s]; !ok {
				t.Errorf("no series %s%s", f, s)
			}
		}
	}
	for key := range values {
		if strings.HasPrefix(key, "runtime_node_") && !strings.Contains(key, "{shard=") {
			t.Errorf("series %s carries no shard label", key)
		}
	}
	if got := values[`runtime_node_crashes_total{shard="1",node="2"}`]; got != 1 {
		t.Errorf("crash of shard 1 node 2 counted %v times on its series, want 1", got)
	}
	if strings.Contains(text, `runtime_node_crashes_total{shard="0"`) {
		t.Errorf("crash of shard 1 node 2 counted on shard 0:\n%s", text)
	}
}
