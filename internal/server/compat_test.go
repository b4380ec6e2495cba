package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parulel/internal/audit"
	"parulel/internal/wal"
)

const parentDataDir = "testdata/parent-datadir"

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if fi.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func auditClean(t *testing.T, dir, when string) {
	t.Helper()
	reports, err := audit.VerifyDataDir(dir)
	if err != nil {
		t.Fatalf("%s: audit: %v", when, err)
	}
	for _, r := range reports {
		if len(r.Findings) != 0 {
			t.Errorf("%s: session %s does not audit clean: %+v", when, r.Session, r.Findings)
		}
	}
}

// TestParentWrittenDataDirRecovers is the on-disk compatibility contract
// for the hand-written log codec. testdata/parent-datadir was written by
// the daemon of the parent commit — json.Marshal of the Record structs,
// maps and all (gen.sh there says how): four sessions, two behind a
// checkpoint with a chained Merkle commit, every op and every value kind
// between them. Under this code it must audit clean as it stands (every
// frame re-encodes to the bytes its ledger leaf was hashed over), recover
// to the state the parent served, and keep auditing clean once this
// code's appender has extended the parent's logs and ledgers.
func TestParentWrittenDataDirRecovers(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join(parentDataDir, "sessions"), filepath.Join(dir, "sessions"))
	sessions := []string{"s1", "s2", "s3", "s4"}

	auditClean(t, dir, "as written by the parent")
	frames := 0
	for _, id := range sessions {
		path := filepath.Join(dir, "sessions", id, walFile)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := wal.ScanFile(path)
		if err != nil || res.TruncatedBytes != 0 {
			t.Fatalf("%s: scan: %v, %d bytes dropped", id, err, res.TruncatedBytes)
		}
		for i := range res.Records {
			n := int(binary.LittleEndian.Uint32(raw[:4]))
			stored := raw[8 : 8+n]
			if got := res.Records[i].AppendJSON(nil); !bytes.Equal(got, stored) {
				t.Fatalf("%s seq %d: re-encoding the scanned record does not reproduce the stored payload\n got %s\nwant %s",
					id, res.Records[i].Seq, got, stored)
			}
			raw = raw[8+n:]
			frames++
		}
		if len(raw) != 0 {
			t.Fatalf("%s: %d bytes of the log were not scanned", id, len(raw))
		}
	}
	if frames < 12 {
		t.Fatalf("only %d frames in the parent's logs; the fixture is not what the test assumes", frames)
	}

	s, ts := newTestServer(t, Config{DataDir: dir, Fsync: wal.PolicyAlways})
	for _, id := range sessions {
		url := ts.URL + "/api/v1/sessions/" + id
		readJSONFile := func(name string, v any) {
			data, err := os.ReadFile(filepath.Join(parentDataDir, "expected", name))
			if err == nil {
				err = json.Unmarshal(data, v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		// Recovery runs Reconcile over every frame before it serves.
		var want, got struct {
			WMSize, Runs, Cycles, Firings, Redactions int
			Tick                                      int64
		}
		readJSONFile(id+".info.json", &want)
		if st := call(t, "GET", url, nil, &got); st != http.StatusOK {
			t.Fatalf("%s: recovery: status %d", id, st)
		}
		if got != want {
			t.Errorf("%s recovered as %+v, the parent served %+v", id, got, want)
		}
		var wantWM, gotWM any
		readJSONFile(id+".wm.json", &wantWM)
		if st := call(t, "GET", url+"/wm", nil, &gotWM); st != http.StatusOK || !reflect.DeepEqual(gotWM, wantWM) {
			t.Errorf("%s: /wm (status %d) differs from what the parent served\n got %v\nwant %v", id, st, gotWM, wantWM)
		}
		if wantSnap, err := os.ReadFile(filepath.Join(parentDataDir, "expected", id+".snapshot.txt")); err == nil {
			if gotSnap := exportSnapshot(t, url); gotSnap != string(wantSnap) {
				t.Errorf("%s: snapshot differs from the parent's\n-- got --\n%s\n-- want --\n%s", id, gotSnap, wantSnap)
			}
		}
		// Extend the parent's log with this code's appender.
		body := `{"ops":[{"op":"assert","facts":[{"template":"t","fields":{"a":7}}]},{"op":"tick"}]}`
		if id == "s1" || id == "s3" {
			body = `{"ops":[{"op":"run"},{"op":"tick","ticks":2}]}`
		}
		if resp := postRaw(t, url+"/batch", body, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: batch after recovery: status %d", id, resp.StatusCode)
		}
	}
	closeServer(t, s, ts)
	auditClean(t, dir, "after this code extended the parent's logs")
}
