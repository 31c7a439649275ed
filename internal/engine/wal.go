package engine

import (
	"sort"

	"github.com/sieve-db/sieve/internal/storage"
)

// WAL is the engine's durability hook (internal/wal implements it): every
// catalog or heap mutation of a logged table is appended to a write-ahead
// log BEFORE it is applied in memory.
//
// The contract is a commit closure. Append* validates the operation via
// check, appends the record, syncs it per the log's policy, and returns
// with the log's serialisation lock held; the engine then applies the
// mutation and releases the lock by calling commit. Holding the lock across
// append+apply makes log order equal to apply order, which is what lets
// recovery replay the suffix deterministically — including insert RowID
// assignment, which is positional.
//
// check runs under the log lock before anything is written, so an
// operation that would fail to apply (duplicate table, missing row, schema
// mismatch) is rejected without leaving a record; the log never contains a
// mutation the in-memory state rejected.
//
// LogsTable gates which tables are row-logged: the policy relations log
// logically (AddPolicy/RevokePolicy records carry the whole policy), so
// they are excluded here, as are tables the log is configured to skip.
type WAL interface {
	LogsTable(table string) bool
	AppendInsert(table string, row storage.Row, check func() error) (commit func(), err error)
	AppendBulkInsert(table string, rows []storage.Row, check func() error) (commit func(), err error)
	AppendUpdate(table string, id storage.RowID, row storage.Row, check func() error) (commit func(), err error)
	AppendDelete(table string, id storage.RowID, check func() error) (commit func(), err error)
	AppendCreateTable(name string, schema *storage.Schema, check func() error) (commit func(), err error)
	AppendCreateIndex(table, col string, check func() error) (commit func(), err error)
	AppendCompact(table string, check func() error) (commit func(), err error)
}

// SetWAL attaches the durability hook. Attach at configuration time,
// before mutations run concurrently; recovery replays with no hook
// attached and attaches afterwards, so replayed mutations are not
// re-logged.
func (db *DB) SetWAL(w WAL) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.wal = w
}

// walFor returns the hook when table mutations must be logged, else nil.
func (db *DB) walFor(table string) WAL {
	db.mu.RLock()
	w := db.wal
	db.mu.RUnlock()
	if w == nil || !w.LogsTable(table) {
		return nil
	}
	return w
}

// TableNames returns the catalog's table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
