package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the recovery scanner: it must never
// panic, opening and closing the log must leave every byte in place, and
// once CutTail has run the file is the clean prefix the scan accepted.
func FuzzReplay(f *testing.F) {
	frame := func(payload string) []byte {
		b := make([]byte, frameHeader+len(payload))
		binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE([]byte(payload)))
		copy(b[frameHeader:], payload)
		return b
	}
	f.Add([]byte{})
	f.Add(frame(`{"seq":1,"op":"create","program":"p"}`))
	f.Add(append(frame(`{"seq":1,"op":"run","cycles":3}`), frame(`{"seq":2,"op":"run"}`)...))
	f.Add(append(frame(`{"seq":1,"op":"assert"}`), 0xff, 0xff, 0xff, 0xff)) // huge bogus length
	f.Add(frame(`not json`))
	f.Add(frame(`{"seq":0,"op":"run"}`)) // non-monotonic seq
	f.Add(frame(`{"seq":1,"op":"tick","tick":5,"count":2}`))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 'x'})
	f.Add(frame(`{"seq":1,"op":"batch","ops":[{"op":"assert"},{"op":"tick","tick":1}]}`))
	f.Add(frame(`{"seq":18446744073709551615,"op":"run"}`))                           // max uint64 seq
	f.Add(append(frame(`{"seq":1,"op":"run"}`), frame(`{"seq":9000,"op":"run"}`)...)) // sparse seqs
	f.Add(frame(`{"seq":1,"op":"import","text":"\u0000\ufffd\n(wm)"}`))
	// A valid frame preceded by one flipped payload byte: nothing after
	// the corruption may be salvaged (no resynchronization).
	bad := frame(`{"seq":1,"op":"run","cycles":3}`)
	bad[frameHeader+2] ^= 0x01
	f.Add(append(bad, frame(`{"seq":2,"op":"run"}`)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		l, res, err := Open(path, Options{})
		if err != nil {
			return // I/O-level failure is acceptable; panicking is not
		}
		l.Close()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("opening and closing the log changed the file (err %v)", err)
		}
		l2, _, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("second open failed: %v", err)
		}
		if err := l2.CutTail(); err != nil {
			t.Fatalf("cutting the tail: %v", err)
		}
		l2.Close()
		l3, res3, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("open after the cut failed: %v", err)
		}
		defer l3.Close()
		if res3.TruncatedBytes != 0 {
			t.Fatalf("scan after the cut still finds %d torn bytes", res3.TruncatedBytes)
		}
		if len(res3.Records) != len(res.Records) {
			t.Fatalf("scan after the cut saw %d records, the first saw %d", len(res3.Records), len(res.Records))
		}
	})
}

// FuzzTickRecord round-trips the temporal OpTick record through the log
// for arbitrary clock values and expiry counts — replay verifies both
// fields against the live tick, so a lossy encoding of any value
// (extremes, negatives a corrupted log might carry) would surface as
// spurious divergence. Ticks are exercised both standalone (the batch
// endpoint's framing) and nested in an OpBatch (the stream endpoint's).
func FuzzTickRecord(f *testing.F) {
	f.Add(int64(1), 0)
	f.Add(int64(0), -1)
	f.Add(int64(1)<<62, 1<<30)
	f.Add(int64(-7), 3)
	f.Fuzz(func(t *testing.T, tick int64, count int) {
		path := filepath.Join(t.TempDir(), "wal.log")
		l, _, err := Open(path, Options{})
		if err != nil {
			t.Skip()
		}
		if err := l.Append(&Record{Op: OpTick, Tick: tick, Count: count}); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(&Record{Op: OpBatch, Ops: []Record{{Op: OpTick, Tick: tick, Count: count}}}); err != nil {
			t.Fatal(err)
		}
		l.Close()

		_, res, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if len(res.Records) != 2 {
			t.Fatalf("scan saw %d records, want 2", len(res.Records))
		}
		got := res.Records[0]
		if got.Op != OpTick || got.Tick != tick || got.Count != count {
			t.Fatalf("tick record corrupted: got op %q tick %d count %d, want tick %d count %d",
				got.Op, got.Tick, got.Count, tick, count)
		}
		batch := res.Records[1]
		if batch.Op != OpBatch || len(batch.Ops) != 1 ||
			batch.Ops[0].Tick != tick || batch.Ops[0].Count != count {
			t.Fatalf("nested tick record corrupted: %+v", batch)
		}
	})
}

// FuzzProofVerify throws arbitrary proof JSON at the verifier. It must
// never panic, and — the binding property the audit trail rests on — a
// proof that verifies against a trusted (root, index, count) triple must
// carry exactly the leaf the honest proof carried: no mutation can
// substitute a different frame hash under the same root.
func FuzzProofVerify(f *testing.F) {
	path := filepath.Join(f.TempDir(), "merkle.log")
	led, err := OpenLedger(path)
	if err != nil {
		f.Fatal(err)
	}
	defer led.Close()
	for i := 1; i <= 11; i++ {
		led.observe(uint64(i), []byte{byte(i), 0x33})
	}
	if err := led.SyncAll(); err != nil {
		f.Fatal(err)
	}
	honest, err := proveFile(path, 6)
	if err != nil {
		f.Fatal(err)
	}
	honestJSON, err := json.Marshal(honest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(honestJSON)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seq":6,"index":5,"count":11,"leaf":"ff","path":[],"root":"00"}`))
	mutated := append([]byte(nil), honestJSON...)
	mutated[len(mutated)/2] ^= 0x20
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Proof
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		if err := VerifyProof(&p); err != nil {
			return // rejection is always fine; panicking is not
		}
		if p.Root == honest.Root && p.Index == honest.Index && p.Count == honest.Count && p.Leaf != honest.Leaf {
			t.Fatalf("forged proof verified: leaf %s accepted at index %d under root %s (honest leaf %s)",
				p.Leaf, p.Index, p.Root, honest.Leaf)
		}
	})
}

// FuzzLedgerOpen feeds arbitrary bytes to the ledger parser: it must
// never panic, never accept a state it cannot summarize, and — like the
// WAL scan — be idempotent: once one open has truncated a torn tail, a
// second open finds a clean file.
func FuzzLedgerOpen(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "merkle.log")
	led, err := OpenLedger(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		led.observe(uint64(i), []byte{byte(i)})
	}
	if err := led.SyncAll(); err != nil {
		f.Fatal(err)
	}
	led.Close()
	clean, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-5]) // torn entry
	f.Add([]byte{})
	f.Add([]byte("parulel-merkle v1\n"))
	f.Add([]byte("parulel-merkle v1\n{\"base\":0}\n"))
	f.Add([]byte("parulel-merkle v1\n{\"base\":3,\"peaks\":[\"zz\"]}\n"))
	f.Add([]byte("not a ledger"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "merkle.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		led, err := OpenLedger(path)
		if err != nil {
			return
		}
		st, serr := led.State()
		if serr != nil {
			t.Fatalf("opened ledger cannot summarize its state: %v", serr)
		}
		led.Close()
		led2, err := OpenLedger(path)
		if err != nil {
			t.Fatalf("second open failed after truncating open: %v", err)
		}
		defer led2.Close()
		st2, serr := led2.State()
		if serr != nil || st2.Count != st.Count || st2.Root != st.Root {
			t.Fatalf("second open diverged: %+v vs %+v (err=%v)", st2, st, serr)
		}
	})
}
