// Package audit verifies a paruleld data directory offline: no running
// server, no locks — just the session files. For every session it
// cross-checks the three durability artifacts against each other:
//
//   - the WAL (wal.log): every surviving frame must hash to exactly the
//     leaf its Merkle ledger entry recorded — a frame that was altered,
//     replaced, or spliced in from another session fails here;
//   - the Merkle ledger (merkle.log): entries the newest checkpoint
//     committed must reproduce the committed root (and the previous
//     checkpoint's root through the chain), and committed entries whose
//     frames should still be in the log must have them;
//   - the checkpoint: its CRC frame must verify and its ledger commit
//     must match the ledger.
//
// Findings are split into errors (history was altered or lost after
// being committed) and warnings (crash-consistent states the recovery
// path repairs: torn tails, frames whose ledger flush never landed).
// Strict mode treats warnings as failures — right for "this machine shut
// down cleanly, anything off is suspect", wrong for auditing after a
// crash.
package audit

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"parulel/internal/store"
	"parulel/internal/wal"
)

// Finding levels.
const (
	Error = "error"
	Warn  = "warn"
)

// Finding codes, stable for scripting.
const (
	CodeCheckpointCorrupt  = "checkpoint-corrupt"
	CodeLedgerCorrupt      = "ledger-corrupt"
	CodeLedgerMissing      = "ledger-missing"
	CodeLedgerTorn         = "ledger-torn"
	CodeNoLedger           = "no-ledger"
	CodeWALUnreadable      = "wal-unreadable"
	CodeWALTorn            = "wal-torn"
	CodeFrameMismatch      = "frame-ledger-mismatch"
	CodeLedgerGap          = "ledger-gap"
	CodeUnledgeredTail     = "unledgered-tail"
	CodeCommittedMissing   = "committed-frame-missing"
	CodeLedgerFrameMissing = "ledger-frame-missing"
	CodeCommitMismatch     = "commit-root-mismatch"
	CodeChainMismatch      = "commit-chain-mismatch"
)

// Finding is one observation about a session's on-disk state.
type Finding struct {
	Level  string `json:"level"`
	Code   string `json:"code"`
	Detail string `json:"detail"`
}

// Report is the verification result for one session directory.
type Report struct {
	Session  string    `json:"session"`
	Dir      string    `json:"dir"`
	Findings []Finding `json:"findings,omitempty"`

	Frames      int    `json:"frames"`       // valid WAL frames scanned
	LedgerCount uint64 `json:"ledger_count"` // leaves the ledger covers (base included)
	Committed   uint64 `json:"committed"`    // leaves the newest checkpoint commits
	Root        string `json:"root,omitempty"`
}

func (r *Report) add(level, code, detail string) {
	r.Findings = append(r.Findings, Finding{Level: level, Code: code, Detail: detail})
}

// Failed reports whether the session fails verification: any error, or
// under strict any warning too.
func (r *Report) Failed(strict bool) bool {
	for _, f := range r.Findings {
		if f.Level == Error || (strict && f.Level == Warn) {
			return true
		}
	}
	return false
}

// VerifySessionDir audits one session directory.
func VerifySessionDir(dir string) *Report { return VerifyImage(dir, store.ReadSession(wal.OS, dir)) }

// VerifyImage audits what store.ReadSession read from session directory
// dir.
func VerifyImage(dir string, img *store.Image) *Report {
	r := &Report{Session: filepath.Base(dir), Dir: dir}
	if img.CheckpointErr != nil {
		// The CRC frame covers the whole header — a flipped bit in the
		// committed root (or anything else) lands here.
		r.add(Error, CodeCheckpointCorrupt, img.CheckpointErr.Error())
	}
	h, ckptSeq := img.Header, img.Seq()
	if h != nil && h.Ledger != nil {
		r.Committed = h.Ledger.Count
	}

	info, err := img.Ledger, img.LedgerErr
	if err != nil {
		r.add(Error, CodeLedgerCorrupt, err.Error())
	}
	switch {
	case info == nil && r.Committed > 0:
		r.add(Error, CodeLedgerMissing, fmt.Sprintf("checkpoint commits %d leaves but no ledger file exists", r.Committed))
	case info == nil && err == nil:
		r.add(Warn, CodeNoLedger, "no merkle ledger; nothing to attest frames against")
	}

	if img.WALErr != nil {
		r.add(Error, CodeWALUnreadable, img.WALErr.Error())
	}
	r.Frames = len(img.Records)
	if img.TornBytes > 0 {
		r.add(Warn, CodeWALTorn, fmt.Sprintf("%d torn/corrupt bytes past the last valid frame", img.TornBytes))
	}

	if info == nil {
		return r
	}
	r.LedgerCount = info.Count()
	if info.TornBytes > 0 {
		r.add(Warn, CodeLedgerTorn, fmt.Sprintf("%d torn bytes past the last complete entry", info.TornBytes))
	}
	if root, rerr := info.Root(); rerr == nil {
		r.Root = root
	} else {
		r.add(Error, CodeLedgerCorrupt, rerr.Error())
	}

	// Checkpoint commit: the committed prefix must reproduce the root it
	// was signed under, and so must the previous checkpoint's through
	// the chain.
	if h != nil && h.Ledger != nil {
		c := h.Ledger
		if c.Count > info.Count() {
			r.add(Error, CodeLedgerGap,
				fmt.Sprintf("checkpoint commits %d leaves, ledger holds %d", c.Count, info.Count()))
		} else {
			if got, rerr := info.RootAt(c.Count); rerr != nil {
				r.add(Error, CodeCommitMismatch, rerr.Error())
			} else if got != c.Root {
				r.add(Error, CodeCommitMismatch,
					fmt.Sprintf("root over %d committed leaves is %s, checkpoint recorded %s", c.Count, got, c.Root))
			}
			if c.PrevCount > 0 && c.PrevCount >= info.Base && c.PrevCount <= info.Count() {
				if got, rerr := info.RootAt(c.PrevCount); rerr != nil {
					r.add(Error, CodeChainMismatch, rerr.Error())
				} else if got != c.PrevRoot {
					r.add(Error, CodeChainMismatch,
						fmt.Sprintf("root over %d chained leaves is %s, checkpoint recorded %s", c.PrevCount, got, c.PrevRoot))
				}
			}
		}
	}

	// Frame ↔ entry cross-check.
	entryAt := make(map[uint64]int, len(info.Entries))
	for i, e := range info.Entries {
		entryAt[e.Seq] = i
	}
	lastEntrySeq := uint64(0)
	if n := len(info.Entries); n > 0 {
		lastEntrySeq = info.Entries[n-1].Seq
	}
	for i := range img.Records {
		rec := &img.Records[i]
		leaf := wal.RecordLeafHex(rec)
		if ei, ok := entryAt[rec.Seq]; ok {
			if info.Entries[ei].Leaf != leaf {
				r.add(Error, CodeFrameMismatch,
					fmt.Sprintf("frame seq %d hashes to %s, ledger entry records %s", rec.Seq, leaf, info.Entries[ei].Leaf))
			}
		} else if rec.Seq <= lastEntrySeq {
			r.add(Error, CodeLedgerGap, fmt.Sprintf("frame seq %d has no ledger entry", rec.Seq))
		} else {
			r.add(Warn, CodeUnledgeredTail,
				fmt.Sprintf("frame seq %d past the ledger's last entry (ledger flush never landed)", rec.Seq))
		}
	}

	// Entries past the WAL: fine below the checkpoint horizon (the log
	// was legitimately emptied), always an error above it. Ledger entries
	// flush strictly after their frame's fsync confirms, so no crash
	// ordering leaves a durable entry without a durable frame — the log
	// was cut (perhaps by a corrupt frame truncating the valid prefix) or
	// the ledger padded.
	frameAt := make(map[uint64]bool, len(img.Records))
	for i := range img.Records {
		frameAt[img.Records[i].Seq] = true
	}
	for i, e := range info.Entries {
		if e.Seq <= ckptSeq || frameAt[e.Seq] {
			continue
		}
		idx := info.Base + uint64(i)
		if idx < r.Committed {
			r.add(Error, CodeCommittedMissing,
				fmt.Sprintf("committed leaf %d (frame seq %d) has no surviving WAL frame", idx, e.Seq))
		} else {
			r.add(Error, CodeLedgerFrameMissing,
				fmt.Sprintf("ledger entry for seq %d has no WAL frame (entries flush only after the frame's fsync)", e.Seq))
		}
	}
	return r
}

// VerifyDataDir audits every session under a paruleld data directory
// (either the data dir itself — sessions live under <dir>/sessions — or
// a sessions directory directly). Reports come back sorted by session id.
func VerifyDataDir(dir string) ([]*Report, error) {
	dirs, root, err := store.SessionDirs(wal.OS, dir)
	if err != nil {
		return nil, err
	}
	var reports []*Report
	for _, d := range dirs {
		reports = append(reports, VerifySessionDir(d))
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Session < reports[j].Session })
	if len(reports) == 0 {
		return nil, errors.New("no session directories found under " + root)
	}
	return reports, nil
}
