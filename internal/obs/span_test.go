package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736"},
		{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Parent: "00f067aa0ba902b7"},
		{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Parent: "00f067aa0ba902b7", ReqID: 0xdeadbeef},
		{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", ReqID: 7},
	}
	for _, tc := range cases {
		got, ok := ParseTraceContext(tc.String())
		if !ok || got != tc {
			t.Fatalf("round-trip %+v via %q: got %+v ok=%v", tc, tc.String(), got, ok)
		}
	}
	if s := (TraceContext{}).String(); s != "" {
		t.Fatalf("zero context formats as %q, want empty", s)
	}
}

func TestParseTraceContextRejects(t *testing.T) {
	bad := []string{
		"",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // unknown version
		"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01",   // short trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902-01",   // short parent
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",  // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", // non-hex
		"garbage",
	}
	for _, s := range bad {
		if tc, ok := ParseTraceContext(s); ok {
			t.Fatalf("ParseTraceContext(%q) accepted: %+v", s, tc)
		}
	}
	// A zero parent parses as "no parent"; a junk r-segment is ignored.
	tc, ok := ParseTraceContext("00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01-rnothex")
	if !ok || tc.Parent != "" || tc.ReqID != 0 {
		t.Fatalf("zero-parent parse: %+v ok=%v", tc, ok)
	}
}

func TestSpanStoreEviction(t *testing.T) {
	st := NewSpanStore("n0", 3)
	trace := "4bf92f3577b34da6a3ce929d0e0e4736"
	for i := 0; i < 5; i++ {
		st.Record(Span{TraceID: trace, Stage: fmt.Sprintf("s%d", i), DurNS: int64(i) * 1e6})
	}
	if st.Total() != 5 || st.Capacity() != 3 {
		t.Fatalf("total %d cap %d, want 5/3", st.Total(), st.Capacity())
	}
	got := st.Query(trace, "", 0, 0)
	if len(got) != 3 || got[0].Stage != "s2" || got[2].Stage != "s4" {
		t.Fatalf("retained %+v, want oldest-first s2..s4", got)
	}
	for _, sp := range got {
		if sp.SpanID == "" || sp.Node != "n0" {
			t.Fatalf("Record did not fill id/node: %+v", sp)
		}
	}
	if got := st.Query(trace, "", 3*time.Millisecond, 0); len(got) != 2 {
		t.Fatalf("min-duration filter kept %+v", got)
	}
	if got := st.Query(trace, "", 0, 1); len(got) != 1 || got[0].Stage != "s4" {
		t.Fatalf("limit=1 kept %+v, want the most recent", got)
	}
	if got := st.Query("other", "", 0, 0); len(got) != 0 {
		t.Fatalf("foreign trace matched %+v", got)
	}
}

// TestSpanStoreConcurrentEviction hammers a tiny ring from concurrent
// writers and readers so the race detector can check the eviction path.
func TestSpanStoreConcurrentEviction(t *testing.T) {
	st := NewSpanStore("n0", 8)
	var wg sync.WaitGroup
	traces := []string{
		"11111111111111111111111111111111",
		"22222222222222222222222222222222",
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := st.Start(traces[w%2], "", "stage")
				sp.SetAttr("i", "x")
				sp.End()
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Query(traces[r], "", 0, 0)
				st.Total()
			}
		}(r)
	}
	wg.Wait()
	if st.Total() != 2000 {
		t.Fatalf("total %d, want 2000", st.Total())
	}
	if got := st.Query("", "", 0, 0); len(got) != 8 {
		t.Fatalf("retained %d spans, want a full ring of 8", len(got))
	}
}

func TestActiveSpanNilSafe(t *testing.T) {
	var sp *ActiveSpan
	if sp.ID() != "" || sp.End() != 0 {
		t.Fatal("nil ActiveSpan must no-op")
	}
	sp.SetAttr("k", "v")
	sp.EndWith(time.Second)

	var st *SpanStore
	if st.Start("t", "", "s") != nil || st.Record(Span{}) != "" || st.Query("", "", 0, 0) != nil {
		t.Fatal("nil SpanStore must no-op")
	}
}

func TestActiveSpanEndIdempotent(t *testing.T) {
	st := NewSpanStore("", 4)
	sp := st.Start("4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7", "stage")
	sp.SetAttr("k", "v")
	first := sp.End()
	sp.End()
	sp.EndWith(time.Hour)
	if st.Total() != 1 {
		t.Fatalf("double End recorded %d spans", st.Total())
	}
	got := st.Query("", "", 0, 0)[0]
	if got.SpanID != sp.ID() || got.Attrs["k"] != "v" || got.DurNS != first.Nanoseconds() {
		t.Fatalf("recorded %+v, want id %s attr k=v dur %d", got, sp.ID(), first)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	fr := NewFlightRecorder(2)
	for i := 0; i < 3; i++ {
		fr.Push(FlightRecord{TraceID: fmt.Sprintf("t%d", i), DurNS: int64(i)})
	}
	if fr.Total() != 3 || fr.Capacity() != 2 {
		t.Fatalf("total %d cap %d, want 3/2", fr.Total(), fr.Capacity())
	}
	recs := fr.Items(0)
	if len(recs) != 2 || recs[0].TraceID != "t1" || recs[1].TraceID != "t2" {
		t.Fatalf("retained %+v, want t1,t2 oldest-first", recs)
	}
	if c := NewFlightRecorder(0).Capacity(); c != DefaultFlightRecorderCapacity {
		t.Fatalf("NewFlightRecorder(0) keeps %d, want the default %d", c, DefaultFlightRecorderCapacity)
	}
}
