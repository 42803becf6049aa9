package aplus

// SnapPins exposes the current snapshot's reader count to the external
// test package (0 before the first read has built the snapshot manager).
func SnapPins(db *DB) int64 {
	if db.mgr.Load() == nil {
		return 0
	}
	return snapPins(db)
}
