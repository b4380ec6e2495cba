package server

import (
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parulel/internal/wal"
)

// TestMutationEndpointsEquivalent pins what every way of changing working
// memory leaves behind: the same facts sent by /facts, a one-op /batch, a
// /stream frame that does not tick and a snapshot import build the same
// working memory, and each logs the record shape it always has — a bare
// OpAssert, OpBatch[OpAssert] twice, and OpImport. /retract and a batch
// retract log OpRetract with the same count, and neither logs anything
// when no fact matched.
func TestMutationEndpointsEquivalent(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir, Fsync: wal.PolicyAlways})
	const facts = `[{"template":"item","fields":{"k":"a","state":"new"}},{"template":"item","fields":{"k":"b","state":"new"}}]`
	send := []struct{ name, path, body, wantOp string }{
		{"facts", "/facts", `{"facts":` + facts + `}`, wal.OpAssert},
		{"batch", "/batch", `{"ops":[{"op":"assert","facts":` + facts + `}]}`, wal.OpBatch},
		{"stream", "/stream", `{"facts":` + facts + `,"ticks":0}` + "\n", wal.OpBatch},
		{"import", "/snapshot", "(wm (item ^k a ^state new) (item ^k b ^state new))", wal.OpImport},
	}
	urls := make([]string, len(send))
	logOf := func(i int) []wal.Record {
		t.Helper()
		id := urls[i][strings.LastIndex(urls[i], "/")+1:]
		res, err := wal.ScanFile(filepath.Join(dir, "sessions", id, walFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) == 0 || res.Records[0].Op != wal.OpCreate {
			t.Fatalf("%s: log does not open with a create record: %+v", send[i].name, res.Records)
		}
		return res.Records[1:]
	}
	post := func(url, body string) string {
		t.Helper()
		resp := postRaw(t, url, body, "")
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, body %s", url, resp.StatusCode, got)
		}
		return string(got)
	}
	wmOf := func(url string) string {
		t.Helper()
		resp, err := http.Get(url + "/wm")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		return string(got)
	}

	var asserted []wal.Fact
	for i, c := range send {
		urls[i] = ts.URL + "/api/v1/sessions/" + createSession(t, ts.URL, createSessionRequest{Source: contractSrc}).ID
		post(urls[i]+c.path, c.body)
		if i > 0 {
			if got, want := wmOf(urls[i]), wmOf(urls[0]); got != want {
				t.Fatalf("%s: working memory %s, /facts left %s", c.name, got, want)
			}
		}
		recs := logOf(i)
		if len(recs) != 1 || recs[0].Op != c.wantOp {
			t.Fatalf("%s: logged %+v, want one %s record", c.name, recs, c.wantOp)
		}
		rec := &recs[0]
		switch c.wantOp {
		case wal.OpAssert:
			asserted = rec.Facts
		case wal.OpBatch:
			if len(rec.Ops) != 1 || rec.Ops[0].Op != wal.OpAssert || !reflect.DeepEqual(rec.Ops[0].Facts, asserted) {
				t.Fatalf("%s: batch frame holds %+v, want one OpAssert of %+v", c.name, rec.Ops, asserted)
			}
		case wal.OpImport:
			if rec.Count != 2 || rec.Text != c.body {
				t.Fatalf("%s: import record count %d text %q", c.name, rec.Count, rec.Text)
			}
		}
	}

	// Retracts: the bare endpoint on the /facts session, a batch op on the
	// batch session. A retract that matches nothing logs nothing.
	for _, k := range []string{"zzz", "a"} {
		fields := `{"template":"item","fields":{"k":"` + k + `"}}`
		post(urls[0]+"/retract", fields)
		post(urls[1]+"/batch", `{"ops":[{"op":"retract",`+fields[1:]+`]}`)
	}
	bare, batched := logOf(0)[1:], logOf(1)[1:]
	if len(bare) != 1 || bare[0].Op != wal.OpRetract || bare[0].Count != 1 {
		t.Fatalf("/retract logged %+v, want one OpRetract of 1 fact", bare)
	}
	if len(batched) != 1 || batched[0].Op != wal.OpBatch || len(batched[0].Ops) != 1 {
		t.Fatalf("batch retract logged %+v, want one OpBatch frame", batched)
	}
	if op := batched[0].Ops[0]; op.Op != wal.OpRetract || op.Count != bare[0].Count || op.Template != bare[0].Template ||
		!reflect.DeepEqual(op.Fields, bare[0].Fields) {
		t.Fatalf("batch retract logged %+v, /retract %+v", op, bare[0])
	}
	if got, want := wmOf(urls[1]), wmOf(urls[0]); got != want {
		t.Fatalf("after the retracts: batch session %s, /facts session %s", got, want)
	}
}
