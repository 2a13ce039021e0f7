package fault

import "peak/internal/store"

// The checkpoint journal lives in internal/store, beside the store file
// whose record format it shares. These names keep callers of the earlier
// fault journal compiling; new code uses the store names.
type (
	// Journal is store.Journal.
	Journal = store.Journal
	// Record is store.Record.
	Record = store.Record
	// RecoveryReport is store.JournalRecovery.
	RecoveryReport = store.JournalRecovery
)

// NewJournal is store.NewJournal.
func NewJournal(path string) (*Journal, error) { return store.NewJournal(path) }

// OpenJournal is store.OpenJournal.
func OpenJournal(path string) (*Journal, error) { return store.OpenJournal(path) }

// NewMemoryJournal is store.NewMemoryJournal.
func NewMemoryJournal() *Journal { return store.NewMemoryJournal() }
