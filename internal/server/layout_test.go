package server

import "parulel/internal/store"

// The session directory's file names, as internal/store declares them.
const (
	walFile        = store.WALFile
	checkpointFile = store.CheckpointFile
	ledgerFile     = store.LedgerFile
)
