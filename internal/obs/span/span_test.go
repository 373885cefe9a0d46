package span

import (
	"reflect"
	"strconv"
	"testing"
)

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	if c.Now() != 0 || c.Add(Span{}) != 0 || c.Dropped() != 0 || c.Len() != 0 {
		t.Error("nil collector methods must be no-op zeros")
	}
	g := c.Graph()
	if len(g.Spans) != 0 || len(g.Edges) != 0 {
		t.Error("nil collector graph must be empty")
	}
}

func TestCollectorClockAndIDs(t *testing.T) {
	now := int64(0)
	c := NewCollectorClock(8, func() int64 { return now })
	now = 7
	if c.Now() != 7 {
		t.Fatalf("Now() = %d, want 7", c.Now())
	}
	id1 := c.Add(Span{Track: "service", Name: StageAdmit, Kind: KindStage, Start: 0, End: 7})
	id2 := c.Add(Span{Track: "service", Name: StageBatch, Kind: KindStage, Start: 7, End: 9})
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d,%d, want 1,2", id1, id2)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCollectorEviction(t *testing.T) {
	c := NewCollectorClock(2, func() int64 { return 0 })
	for i := 0; i < 5; i++ {
		c.Add(Span{Track: "x", Name: "s", Start: int64(i), End: int64(i)})
	}
	if c.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", c.Dropped())
	}
	g := c.Graph()
	if g.Dropped != 3 {
		t.Fatalf("graph Dropped = %d, want 3", g.Dropped)
	}
	if len(g.Spans) != 2 || g.Spans[0].ID != 4 || g.Spans[1].ID != 5 {
		t.Fatalf("retained spans = %+v, want ids 4,5", g.Spans)
	}
}

func TestCollectorDefaultCapacity(t *testing.T) {
	c := NewCollector(0)
	if cap(c.buf) != DefaultCollectorCapacity {
		t.Fatalf("cap = %d, want %d", cap(c.buf), DefaultCollectorCapacity)
	}
	if c.Now() < 0 {
		t.Error("wall clock ran backward")
	}
}

func TestByTxnFilters(t *testing.T) {
	g := &Graph{Unit: "us", Spans: []Span{
		{ID: 1, Txn: "a", Track: "service", Name: StageAdmit},
		{ID: 2, Txn: "b", Track: "service", Name: StageAdmit},
		{ID: 3, Txn: "a", Track: "service", Name: StageNotify},
	}, Edges: []Edge{{From: 1, To: 3}, {From: 1, To: 2}}}
	fg := g.ByTxn("a")
	if len(fg.Spans) != 2 || fg.Spans[0].ID != 1 || fg.Spans[1].ID != 3 {
		t.Fatalf("filtered spans = %+v", fg.Spans)
	}
	if !reflect.DeepEqual(fg.Edges, []Edge{{From: 1, To: 3}}) {
		t.Fatalf("filtered edges = %+v", fg.Edges)
	}
}

// TestInferEdgesProgramOrder: spans on one (txn, track) chain in time
// order regardless of insertion order.
func TestInferEdgesProgramOrder(t *testing.T) {
	spans := []Span{
		{ID: 1, Txn: "t", Track: "proc 0", Name: "round 2", Kind: KindRound, Start: 10, End: 20},
		{ID: 2, Txn: "t", Track: "proc 0", Name: "round 1", Kind: KindRound, Start: 0, End: 10},
		{ID: 3, Txn: "t", Track: "proc 1", Name: "round 1", Kind: KindRound, Start: 0, End: 12},
	}
	got := InferEdges(spans)
	want := []Edge{{From: 2, To: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %+v, want %+v", got, want)
	}
}

// TestInferEdgesLink: a link span connects the sender span active at the
// send to the receiver span covering the delivery.
func TestInferEdgesLink(t *testing.T) {
	spans := []Span{
		{ID: 1, Track: "proc 0", Name: "round 1", Kind: KindRound, Start: 0, End: 10, From: -1, To: -1},
		{ID: 2, Track: "proc 1", Name: "round 1", Kind: KindRound, Start: 0, End: 8, From: -1, To: -1},
		{ID: 3, Track: "proc 1", Name: "round 2", Kind: KindRound, Start: 8, End: 20, From: -1, To: -1},
		{ID: 4, Track: "net", Name: "vote", Kind: KindLink, Start: 5, End: 12, From: 0, To: 1},
	}
	got := InferEdges(spans)
	want := []Edge{
		{From: 1, To: 4}, // proc 0's round active at send 5 → link
		{From: 2, To: 3}, // program order on proc 1
		{From: 4, To: 3}, // link delivery at 12 lands in proc 1's round 2
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %+v, want %+v", got, want)
	}
}

// TestInferEdgesLinkAfterLastSpan: a delivery after every receiver span
// ended attaches to the first span starting after it — or to none when
// the receiver has no later span.
func TestInferEdgesLinkAfterLastSpan(t *testing.T) {
	spans := []Span{
		{ID: 1, Track: "proc 0", Name: "round 1", Kind: KindRound, Start: 0, End: 4, From: -1, To: -1},
		{ID: 2, Track: "proc 1", Name: "round 1", Kind: KindRound, Start: 0, End: 3, From: -1, To: -1},
		{ID: 3, Track: "net", Name: "go", Kind: KindLink, Start: 1, End: 9, From: 0, To: 1},
	}
	got := InferEdges(spans)
	want := []Edge{{From: 1, To: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %+v, want %+v", got, want)
	}
}

// TestInferEdgesServiceHandoff: dispatch feeds each processor's first
// protocol span; each processor's last protocol span feeds decided — the
// walk from the client-visible decision must descend into the protocol.
func TestInferEdgesServiceHandoff(t *testing.T) {
	spans := []Span{
		{ID: 1, Txn: "t", Track: "service", Name: StageAdmit, Kind: KindStage, Start: 0, End: 1},
		{ID: 2, Txn: "t", Track: "service", Name: StageDispatch, Kind: KindStage, Start: 1, End: 2},
		{ID: 3, Txn: "t", Track: "proc 0", Name: "round 1", Kind: KindRound, Start: 2, End: 6},
		{ID: 4, Txn: "t", Track: "proc 0", Name: "round 2", Kind: KindRound, Start: 6, End: 9},
		{ID: 5, Txn: "t", Track: "service", Name: StageDecided, Kind: KindStage, Start: 2, End: 10},
		{ID: 6, Txn: "t", Track: "service", Name: StageNotify, Kind: KindStage, Start: 10, End: 11},
	}
	got := InferEdges(spans)
	want := []Edge{
		{From: 1, To: 2}, // admit → dispatch (program order)
		{From: 2, To: 3}, // dispatch → first proto span
		{From: 2, To: 5}, // dispatch → decided (program order)
		{From: 3, To: 4}, // proto program order
		{From: 4, To: 5}, // last proto span → decided
		{From: 5, To: 6}, // decided → notify (program order)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %+v, want %+v", got, want)
	}
}

func TestInferEdgesEmpty(t *testing.T) {
	if got := InferEdges(nil); len(got) != 0 {
		t.Fatalf("edges of empty span set = %+v", got)
	}
}

func TestTxnCapEvictsOldestCompleted(t *testing.T) {
	c := NewCollectorClock(64, func() int64 { return 0 })
	c.SetTxnCap(2)
	add := func(txn string, n int) {
		for i := 0; i < n; i++ {
			c.Add(Span{Txn: txn, Track: "service", Name: StageAdmit, Kind: KindStage})
		}
	}
	add("a", 3)
	add("b", 2)
	add("c", 4)
	if c.Len() != 9 {
		t.Fatalf("Len = %d, want 9", c.Len())
	}
	c.CompleteTxn("a")
	c.CompleteTxn("b")
	if c.Len() != 9 {
		t.Fatalf("within cap, nothing evicted: Len = %d", c.Len())
	}
	c.CompleteTxn("c") // backlog 3 > cap 2: txn a's 3 spans go
	if c.Len() != 6 {
		t.Fatalf("Len = %d, want 6 after evicting a", c.Len())
	}
	if c.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", c.Dropped())
	}
	g := c.Graph()
	if len(g.Spans) != 6 {
		t.Fatalf("graph spans = %d, want 6", len(g.Spans))
	}
	for _, s := range g.Spans {
		if s.Txn == "a" {
			t.Fatalf("txn a should be evicted: %+v", s)
		}
	}
	// Graph stays well-formed: ids sorted, no zero entries.
	for i := 1; i < len(g.Spans); i++ {
		if g.Spans[i].ID <= g.Spans[i-1].ID {
			t.Fatalf("ids unsorted: %+v", g.Spans)
		}
	}
}

func TestTxnCapCompleteIsIdempotent(t *testing.T) {
	c := NewCollectorClock(64, func() int64 { return 0 })
	c.SetTxnCap(1)
	c.Add(Span{Txn: "x", Track: "service", Name: StageAdmit})
	c.CompleteTxn("x")
	c.CompleteTxn("x")
	c.Add(Span{Txn: "y", Track: "service", Name: StageAdmit})
	c.CompleteTxn("y") // evicts x once
	if c.Len() != 1 || c.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d, want 1,1", c.Len(), c.Dropped())
	}
}

func TestTxnCapRingReuseAndStaleSlots(t *testing.T) {
	// Capacity 4 ring: txn eviction zeroes slots, ring reuse of a zeroed
	// slot is not a drop, and stale slot indices never zero a newer span.
	c := NewCollectorClock(4, func() int64 { return 0 })
	c.SetTxnCap(1)
	c.Add(Span{Txn: "a", Track: "t", Name: "s"}) // idx 0
	c.Add(Span{Txn: "a", Track: "t", Name: "s"}) // idx 1
	c.Add(Span{Txn: "b", Track: "t", Name: "s"}) // idx 2
	c.CompleteTxn("a")
	c.CompleteTxn("b") // evicts a: idx 0,1 zeroed
	if c.Len() != 1 || c.Dropped() != 2 {
		t.Fatalf("Len=%d Dropped=%d, want 1,2", c.Len(), c.Dropped())
	}
	// Fill the ring: idx 3, then wraps to 0,1 (zeroed slots: no drop),
	// then idx 2 (live span b: drop).
	c.Add(Span{Txn: "c", Track: "t", Name: "s"})
	c.Add(Span{Txn: "c", Track: "t", Name: "s"})
	c.Add(Span{Txn: "c", Track: "t", Name: "s"})
	if c.Dropped() != 2 {
		t.Fatalf("reusing zeroed slots must not count drops: %d", c.Dropped())
	}
	c.Add(Span{Txn: "c", Track: "t", Name: "s"}) // overwrites b at idx 2
	if c.Dropped() != 3 {
		t.Fatalf("overwriting live span must drop: %d", c.Dropped())
	}
	if c.Len() != 4 {
		t.Fatalf("Len=%d, want 4 (ring full of c)", c.Len())
	}
	// b's stale slot index (2) now holds a c span; evicting b later must
	// not zero it.
	c.CompleteTxn("c") // evicts b (stale) — nothing real to zero
	if c.Len() != 4 {
		t.Fatalf("stale eviction must not zero live spans: Len=%d", c.Len())
	}
	for _, s := range c.Graph().Spans {
		if s.Txn != "c" {
			t.Fatalf("only txn c should remain: %+v", s)
		}
	}
}

func TestTxnCapNilAndDisabled(t *testing.T) {
	var nilC *Collector
	nilC.SetTxnCap(4)
	nilC.CompleteTxn("x")
	c := NewCollectorClock(4, func() int64 { return 0 })
	c.Add(Span{Txn: "a", Track: "t", Name: "s"})
	c.CompleteTxn("a") // no cap set: no-op
	if c.Len() != 1 {
		t.Fatalf("Len=%d", c.Len())
	}
}

// TestTxnCapIndexBoundedByRing: keys that never reach CompleteTxn (batch
// keys, abandoned transactions) leave the per-transaction index as the
// ring overwrites their spans, so the index never outgrows the ring.
func TestTxnCapIndexBoundedByRing(t *testing.T) {
	const ring = 64
	c := NewCollectorClock(ring, func() int64 { return 0 })
	c.SetTxnCap(4)
	for i := 0; i < 100_000; i++ {
		c.Add(Span{Txn: "k" + strconv.Itoa(i), Track: "t", Name: "s"})
	}
	if n := len(c.slots); n > ring {
		t.Fatalf("index holds %d keys after 100k never-completed keys, ring is %d", n, ring)
	}
	indexed := 0
	for txn, list := range c.slots {
		for _, idx := range list {
			if c.buf[idx].Txn != txn {
				t.Fatalf("index entry %s -> %d names a slot holding %q", txn, idx, c.buf[idx].Txn)
			}
			indexed++
		}
	}
	if indexed != c.Len() {
		t.Fatalf("index covers %d slots, ring holds %d spans", indexed, c.Len())
	}
}

// TestAddAllMatchesAdd: AddAll records the same spans, with the same
// ids, as one Add per span.
func TestAddAllMatchesAdd(t *testing.T) {
	var spans []Span
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		spans = append(spans, Span{Txn: n, Track: "t", Name: n})
	}
	one := NewCollectorClock(3, func() int64 { return 0 })
	for _, s := range spans {
		one.Add(s)
	}
	all := NewCollectorClock(3, func() int64 { return 0 })
	all.AddAll(spans)
	if got, want := all.Graph(), one.Graph(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AddAll graph %+v, Add graph %+v", got, want)
	}
	var nilC *Collector
	nilC.AddAll(spans)
}
