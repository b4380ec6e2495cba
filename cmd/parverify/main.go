// Command parverify audits paruleld durability state offline — no
// running server required.
//
//	parverify -data-dir /var/parulel            audit every session
//	parverify -data-dir /var/parulel -session s1
//	parverify -data-dir /var/parulel -strict    crash debris fails too
//	parverify -proof p.json                     check a saved inclusion proof
//	parverify -proof p.json -root <hex>         …against a root recorded out of band
//
// Data-dir mode cross-checks each session's WAL frames against its
// Merkle ledger and the roots committed (and chained) through its
// checkpoint headers; see docs/SERVER.md "Audit & proofs" for what each
// finding means. Proof mode verifies a proof JSON saved from
// GET /sessions/{id}/proof — self-contained, or pinned to a trusted
// root with -root.
//
// Exit status: 0 everything verified, 1 a verification failed, 2 usage
// or I/O trouble.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"parulel/internal/audit"
	"parulel/internal/store"
	"parulel/internal/wal"
)

func main() {
	dataDir := flag.String("data-dir", "", "paruleld data directory (or its sessions/ subdirectory) to audit")
	session := flag.String("session", "", "audit only this session id")
	strict := flag.Bool("strict", false, "treat crash-consistent debris (torn tails, unflushed ledger entries) as failures")
	proofPath := flag.String("proof", "", "verify a saved inclusion-proof JSON instead of a data dir")
	root := flag.String("root", "", "with -proof: the trusted root the proof must commit to (hex)")
	verbose := flag.Bool("v", false, "print per-session detail even when everything verifies")
	flag.Parse()

	switch {
	case *proofPath != "" && *dataDir != "":
		fmt.Fprintln(os.Stderr, "parverify: -proof and -data-dir are mutually exclusive")
		os.Exit(2)
	case *proofPath != "":
		os.Exit(verifyProof(*proofPath, *root))
	case *dataDir != "":
		os.Exit(verifyDataDir(*dataDir, *session, *strict, *verbose))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func verifyProof(path, trustedRoot string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parverify: %v\n", err)
		return 2
	}
	var p wal.Proof
	if err := json.Unmarshal(raw, &p); err != nil {
		fmt.Fprintf(os.Stderr, "parverify: %s is not a proof document: %v\n", path, err)
		return 2
	}
	if trustedRoot != "" && p.Root != trustedRoot {
		fmt.Printf("FAIL: proof commits to root %s, trusted root is %s\n", p.Root, trustedRoot)
		return 1
	}
	if err := wal.VerifyProof(&p); err != nil {
		fmt.Printf("FAIL: %v\n", err)
		return 1
	}
	fmt.Printf("OK: seq %d is leaf %d of %d under root %s\n", p.Seq, p.Index, p.Count, p.Root)
	return 0
}

func verifyDataDir(dir, session string, strict, verbose bool) int {
	var (
		reports []*audit.Report
		err     error
	)
	if session != "" {
		dirs, root, derr := store.SessionDirs(wal.OS, dir)
		for _, d := range dirs {
			if filepath.Base(d) == session {
				reports = []*audit.Report{audit.VerifySessionDir(d)}
			}
		}
		if reports == nil {
			if derr == nil {
				derr = fmt.Errorf("no session %s under %s", session, root)
			}
			fmt.Fprintf(os.Stderr, "parverify: %v\n", derr)
			return 2
		}
	} else {
		reports, err = audit.VerifyDataDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parverify: %v\n", err)
			return 2
		}
	}

	failed := 0
	for _, r := range reports {
		bad := r.Failed(strict)
		if bad {
			failed++
		}
		if bad || verbose || len(r.Findings) > 0 {
			status := "OK"
			if bad {
				status = "FAIL"
			}
			fmt.Printf("%s: session %s (frames=%d ledger=%d committed=%d root=%s)\n",
				status, r.Session, r.Frames, r.LedgerCount, r.Committed, shortHex(r.Root))
			for _, f := range r.Findings {
				fmt.Printf("  %-5s %s: %s\n", f.Level, f.Code, f.Detail)
			}
		}
	}
	if failed > 0 {
		fmt.Printf("parverify: %d of %d sessions FAILED\n", failed, len(reports))
		return 1
	}
	fmt.Printf("parverify: %d sessions verified\n", len(reports))
	return 0
}

func shortHex(s string) string {
	if len(s) > 12 {
		return s[:12] + "…"
	}
	if s == "" {
		return "-"
	}
	return s
}
